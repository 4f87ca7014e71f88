"""The benchmark's layer tracer finds every public name it wraps.

`perfbench/tracing.py` replaces public names of `lmmpf` (the filter stages
among them) with timing wrappers and reports a name it cannot find as a
missing span, whose per-layer metrics then read 0. A renamed or removed
stage fails here instead of silently emptying those metrics.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_the_benchmark_tracer_misses_no_span():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    with tracing.Tracer() as tracer:
        assert tracer.missing == set()
