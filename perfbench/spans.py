"""In-memory span tracer that times cpscatter's public functions from outside.

The tracer replaces module attributes with timing wrappers and puts the
originals back on close, so the package itself is never edited. A function
that another module imported by value (``from .detector import
threshold_exact``) is a separate attribute there, so it is wrapped in every
namespace the traced workloads call it through; all copies record under one
span name, ``<defining module>.<function>``.

A span is (name, start, end, parent). Spans are appended when they open, so
a parent always has a smaller index than its children, and they stay in
memory until ``dump`` writes them out. Tracing is single-threaded: traced
runs execute in-process with one worker, so no span crosses a process pool.
"""

from __future__ import annotations

import json
import time

from cpscatter import analysis, cli, detector, harness, phy

# span name -> the (module, attribute) pairs through which the workloads call it
WRAPPED = {
    "cli.main": [(cli, "main")],
    "harness.run_experiment": [(cli, "run_experiment"), (harness, "run_experiment")],
    "harness._run_chunk": [(harness, "_run_chunk")],
    "harness.run_trial": [(harness, "run_trial")],
    "detector.threshold_for": [(harness, "threshold_for"), (detector, "threshold_for")],
    "detector.threshold_exact": [(harness, "threshold_exact"), (detector, "threshold_exact")],
    "detector.threshold_paper": [(detector, "threshold_paper")],
    "detector.detection_snr": [(harness, "detection_snr"), (detector, "detection_snr")],
    "detector.decide": [(harness, "decide"), (detector, "decide")],
    "detector.pdf_h0": [(analysis, "pdf_h0"), (detector, "pdf_h0")],
    "detector.pdf_h1": [(analysis, "pdf_h1"), (detector, "pdf_h1")],
    "numerics.log_chi2_pdf": [(detector, "log_chi2_pdf")],
    "numerics.log_noncentral_chi2_pdf": [(detector, "log_noncentral_chi2_pdf")],
    "numerics.complex_gaussian": [(phy, "complex_gaussian")],
    "analysis.ber_exact": [(analysis, "ber_exact")],
    "phy.draw_channels": [(harness, "draw_channels"), (phy, "draw_channels")],
    "phy.simulate_frame": [(harness, "simulate_frame"), (phy, "simulate_frame")],
    "receiver.process": [(harness, "process")],
    "receiver.test_statistic": [(harness, "test_statistic")],
}

THRESHOLD_SPANS = {"detector.threshold_for", "detector.threshold_exact", "detector.threshold_paper"}
LOGPDF_SPANS = {"numerics.log_chi2_pdf", "numerics.log_noncentral_chi2_pdf"}
DENSITY_SPANS = {"detector.pdf_h0", "detector.pdf_h1"}


class Tracer:
    """Records spans while installed (use as a context manager)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrapper(self, name, original):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        traced.__wrapped__ = original
        return traced

    def __enter__(self):
        for name, sites in WRAPPED.items():
            for module, attr in sites:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(name, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def dump(self, path) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


class SpanTable:
    """Durations, self times and ancestry of a tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.parents = tracer.parents
        self.dur = [e - s for s, e in zip(tracer.starts, tracer.ends)]
        child = [0.0] * len(self.dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.dur[i]
        # children run strictly inside their parent on one thread, so the
        # sum of their durations is the part of the parent they cover
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def _outermost(self, group: set) -> list[int]:
        out = []
        for i, name in enumerate(self.names):
            if name not in group:
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] not in group:
                p = self.parents[p]
            if p < 0:
                out.append(i)
        return out

    def calls(self, group: set) -> int:
        """Calls into a group from outside it (nested calls not counted)."""
        return len(self._outermost(group))

    def busy(self, group: set) -> float:
        """Wall time spent inside the group, nested spans counted once."""
        return sum(self.dur[i] for i in self._outermost(group))

    def count(self, group: set) -> int:
        return sum(1 for n in self.names if n in group)

    def durations(self, name: str) -> list[float]:
        return [d for n, d in zip(self.names, self.dur) if n == name]

    def self_of(self, name: str) -> float:
        return sum(s for n, s in zip(self.names, self.self_time) if n == name)

    def self_by_module(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for n, s in zip(self.names, self.self_time):
            key = n.split(".", 1)[0]
            out[key] = out.get(key, 0.0) + s
        return out

    def root_time(self) -> float:
        return sum(d for p, d in zip(self.parents, self.dur) if p < 0)
