"""Every function the benchmark tracer wraps by name still resolves.

perfbench/spans.py replaces (module, attribute) pairs with timing wrappers,
so a renamed or removed public function breaks a traced benchmark run. This
check is fast; the slow smoke test runs the workloads themselves.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_names_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module.__name__}.{attr}"
        for sites in spans.WRAPPED.values()
        for module, attr in sites
        if not callable(getattr(module, attr, None))
    ]
    assert spans.WRAPPED and missing == []
