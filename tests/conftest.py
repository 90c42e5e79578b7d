"""Shared fixtures: the two acceptance sweeps and the discrepancy report sink."""

import re
import time
from pathlib import Path

import pytest

from cpscatter.harness import ExperimentSpec, run_experiment
from cpscatter.phy import SystemConfig

REPORT_PATH = Path(__file__).resolve().parents[1] / "reports" / "discrepancy_report.txt"

# the statistically exact detector pipeline: every acceptance sweep runs here
ACCEPTANCE_BASE = SystemConfig(
    dof_convention="complex",
    threshold_mode="exact-root",
    gamma_knowledge="genie",
    seed=20260811,
)

SWEEP_TRIALS = 100_000


class ReportSink:
    def __init__(self):
        self.lines = []

    def add(self, line: str):
        self.lines.append(line)


def _by_criterion(lines):
    """Report lines grouped by the criterion number each one names."""
    groups = {}
    for line in lines:
        num = int(re.search(r"criterion (\d+)", line).group(1))
        groups.setdefault(num, []).append(line)
    return groups


def merge_report(old, new):
    """The report after a run that recorded `new`, merged by criterion.

    A criterion's new lines replace its old ones, unless fewer of its tests
    ran (one W of a parametrized criterion), so a partial run (-k, a node
    id) updates what it ran and truncates nothing.
    """
    def results(lines):  # one "[PASS]" or "[FAIL]" line per test that ran
        return sum(line.startswith("[") for line in lines)

    merged = _by_criterion(old)
    for num, lines in _by_criterion(new).items():
        if results(lines) >= results(merged.get(num, [])):
            merged[num] = lines
    return [line for num in sorted(merged) for line in merged[num]]


@pytest.fixture(scope="session")
def report():
    sink = ReportSink()
    yield sink
    old = REPORT_PATH.read_text().splitlines() if REPORT_PATH.exists() else []
    REPORT_PATH.parent.mkdir(parents=True, exist_ok=True)
    REPORT_PATH.write_text("\n".join(merge_report(old, sink.lines)) + "\n")


@pytest.fixture(scope="session")
def sweep_snr():
    """BER-vs-SNR sweep: gamma in {6, 9, 13, 16} dB, W in {3, 12}, 1e5 trials."""
    spec = ExperimentSpec(
        base=ACCEPTANCE_BASE,
        snr_db_list=(6.0, 9.0, 13.0, 16.0),
        W_list=(3, 12),
        trials_per_point=SWEEP_TRIALS,
        workers=0,
        emit="ber_vs_snr",
    )
    t0 = time.perf_counter()
    results = run_experiment(spec)
    return results, time.perf_counter() - t0


@pytest.fixture(scope="session")
def sweep_w():
    """BER-vs-W sweep: W in {2, 4, 8, 12} at 13 and 16 dB, 1e5 trials."""
    spec = ExperimentSpec(
        base=ACCEPTANCE_BASE,
        snr_db_list=(13.0, 16.0),
        W_list=(2, 4, 8, 12),
        trials_per_point=SWEEP_TRIALS,
        workers=0,
        emit="ber_vs_w",
    )
    results = run_experiment(spec)
    return results
