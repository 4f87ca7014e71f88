"""Self-tests of the benchmark at tiny sizes.

Run from the root of the checkout:

    python -m pytest -q perfbench
"""

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.load_program()

import tracing  # noqa: E402
import workloads  # noqa: E402

# About N = 8 particles and 5 to 10 steps per filter run.
TINY = {
    "paper_sweep": dict(
        pairs=("AB1-AB2", "AM1-AM2"), v_values=(0.1,), replicates=2, n_particles=8, t_end=0.5
    ),
    "large_ensemble": dict(pairs=("AB3-AB4", "BDF3-BDF4", "RK4-RK5"), n_particles=8, t_end=0.5),
    "scalar_rhs": dict(pairs=("AB3-AB4", "AM3-AM4"), n_particles=8, n_steps=10, stride=5),
}

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(workload, trace):
    args = argparse.Namespace(
        workload=workload, seed=3, seconds=0.01, trace=trace, setup_probe=False
    )
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.run_workload(args, sizes=TINY[workload]) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = result["metrics"]
    assert sorted(got) == sorted(m["name"] for m in declared)
    for metric in declared:
        entry = got[metric["name"]]
        assert entry["unit"] == metric["unit"], metric["name"]
        assert isinstance(entry["value"], float) and not entry.get("missing")
    if not trace:
        assert all(got[m["name"]]["value"] > 0 for m in declared)


def _traced(workload):
    w = workloads.build(workload, 5, os.path.join(run.OUT, "test-tmp"), **TINY[workload])
    try:
        with tracing.Tracer() as tracer:
            m = run.measure(w, 0.01, {}, tracer, passes=2)
    finally:
        shutil.rmtree(os.path.join(run.OUT, "test-tmp"), ignore_errors=True)
    return tracer, m


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_self_times_account_for_traced_wall_time(workload):
    tracer, m = _traced(workload)
    assert m.failed == 0
    selfs = tracer.self_times()
    assert min(selfs.values()) > -1e-9
    roots = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    assert sum(selfs.values()) == pytest.approx(roots, rel=1e-9)
    # Each root span sits inside one timed step of the benchmark loop, and
    # the program's layers hold most of the traced time.
    timed = sum(wall for _, wall, _ in m.log)
    assert 0.9 * timed <= roots <= timed
    bench = sum(v for k, v in selfs.items() if k.startswith(("bench.", "trace.")))
    assert bench < 0.5 * roots
    assert set(selfs) - {"bench.unit", "bench.after_pass", "trace.observe"} <= {
        t.span for t in tracing.TARGETS
    }


def test_traced_counts_match_the_filter_structure():
    tracer, m = _traced("paper_sweep")
    metrics = tracer.layer_metrics(m.runs)
    # 5 steps, every step observed: one pair propagation and three
    # likelihood evaluations (resample, reweight twice) per step.
    assert metrics["homec.propagate_calls"]["value"] == 5
    assert metrics["state_space.loglik_calls"]["value"] == 15
    assert metrics["experiment.emit_bytes"]["value"] > 0
    assert 0 < metrics["particle_filter.unique_ancestor_frac"]["value"] <= 1
    assert 0 < metrics["particle_filter.ess_frac"]["value"] <= 1
    assert metrics["integrators.implicit_rhs_calls"]["value"] > 0


def test_missing_public_name_is_reported_not_fatal(monkeypatch):
    import lmmpf.particle_filter as pf

    monkeypatch.delattr(pf, "weight_update")
    with tracing.Tracer() as tracer:
        metrics = tracer.layer_metrics(1)
    assert tracer.missing == {"particle_filter.reweight"}
    for name in ("particle_filter.reweight_s", "particle_filter.ess_frac"):
        assert metrics[name]["missing"]
    assert not metrics["particle_filter.resample_s"].get("missing")
    assert not hasattr(pf, "weight_update")


def test_tracer_restores_every_name():
    import lmmpf.ode_models as om
    import lmmpf.particle_filter as pf

    before = (pf.run_filter, om.OdeSystem.__dict__["rhs_batch"])
    with tracing.Tracer():
        assert pf.run_filter is not before[0]
    assert (pf.run_filter, om.OdeSystem.__dict__["rhs_batch"]) == before


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_seed_changes_inputs_and_replays(workload):
    def trajectory(seed):
        w = workloads.build(workload, seed, os.path.join(run.OUT, "test-tmp"), **TINY[workload])
        return run._fingerprint(w.units[0].run())

    assert trajectory(1) == trajectory(1)
    assert trajectory(1) != trajectory(2)


def test_replay_mismatch_counts_as_failure():
    w = workloads.build("scalar_rhs", 1, "unused", **TINY["scalar_rhs"])
    m = run.Measurement()
    assert run.run_unit(w, 0, m, {0: b"not this trajectory"}) is None
    assert (m.attempted, m.failed) == (1, 1)
    assert "replay" in m.problems[0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
