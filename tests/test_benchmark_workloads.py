"""Every benchmark workload builds and runs against the package.

`perfbench/workloads.py` builds its workloads from public names of `lmmpf`
(configs, table rows, observations, filter runs, output files). A change to
one of those names or fields that breaks a workload fails here, at tiny
sizes, instead of only in a benchmark run.
"""

import importlib.util
import math
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# every pair each workload runs, at N = 8 over a few steps
TINY = {
    "paper_sweep": dict(v_values=(0.1, 1e-4), replicates=2, n_particles=8, t_end=0.5),
    "large_ensemble": dict(n_particles=8, t_end=0.5),
    "scalar_rhs": dict(n_particles=8, n_steps=10, stride=5),
}


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_tiny_sizes_cover_every_workload():
    assert set(TINY) == set(_load_workloads().WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_the_benchmark_workload_runs_on_the_package(name, tmp_path):
    workload = _load_workloads().build(name, 3, str(tmp_path), **TINY[name])
    assert workload.units
    diags = [unit.run() for unit in workload.units]
    for unit, diag in zip(workload.units, diags):
        assert math.isfinite(diag.error_inf_norm), unit.label
        assert diag.error_inf_norm < workload.err_limit, unit.label
    if workload.after_pass is not None:
        workload.after_pass(diags)
        assert (tmp_path / "table.csv").exists()
