"""The benchmark's workloads, built from a seed.

A workload is a list of units, each one filter run of the lmmpf program,
plus an optional step that runs after every pass over the units. The
program receives only the configs and observations built here; every seed
it sees is derived from the benchmark seed. Program functions are looked up
on their modules at call time, so the layer tracer sees these calls too.

Sizes are keyword arguments so the self-tests can run every workload at a
tiny size; the benchmark itself always uses the defaults.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from lmmpf import experiment, homec, metrics, ode_models, particle_filter, state_space

class CheckError(RuntimeError):
    """An output of the program is not what the benchmark expects."""


@dataclass
class Unit:
    label: str
    n_particles: int
    n_steps: int
    run: Callable[[], object]  # returns lmmpf.metrics.RunDiagnostics


@dataclass
class Workload:
    name: str
    units: List[Unit]
    # Largest error inf-norm a correct run can have: the range of the exact
    # solution, so the check only catches estimates that left the problem.
    err_limit: float
    # What limits the workload's speed: names the reference kernel its times
    # are scaled by (see run.py).
    bound_by: str = "interpreter"
    after_pass: Optional[Callable[[list], None]] = None
    temp_dirs: List[str] = field(default_factory=list)


def sub_seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def _replicate_unit(config, replicate, label):
    t_start, t_end = ode_models.get_problem(config.problem).t_span
    if config.t_end is not None:
        t_end = config.t_end
    return Unit(
        label=label,
        n_particles=config.n_particles,
        n_steps=int(round((t_end - t_start) / config.step)),
        run=lambda: experiment.run_replicate(config, replicate),
    )


def paper_sweep(
    seed,
    outdir,
    *,
    pairs=("AB1-AB2", "AB3-AB4", "AM1-AM2", "AM3-AM4"),
    v_values=(0.1, 1e-2, 1e-3, 1e-4),
    replicates=10,
    n_particles=150,
    t_end=None,
):
    """The paper's gaussian_decay error-vs-V0 table, then its output files."""
    units, cells = [], []
    for pair in pairs:
        for v in v_values:
            config = experiment.ExperimentConfig(
                problem="gaussian_decay",
                pair=pair,
                n_particles=n_particles,
                initial_variance=v,
                t_end=t_end,
                replicates=replicates,
                seed=sub_seed(seed, 0, len(cells)),
            )
            cells.append(config)
            for rep in range(replicates):
                units.append(_replicate_unit(config, rep, f"{pair} V0={v:g} rep {rep}"))

    def emit(diags):
        rows = []
        for c, config in enumerate(cells):
            cell = diags[c * replicates : (c + 1) * replicates]
            errs = np.array([d.error_inf_norm for d in cell])
            var2 = np.array([d.variance_2norm for d in cell])
            rows.append(
                experiment.TableRow(
                    pair_id=config.pair,
                    initial_variance=config.initial_variance,
                    error_inf_norm=float(errs.mean()),
                    variance_2norm=float(var2.mean()),
                    error_band=(float(errs.min()), float(errs.max())),
                    variance_band=(float(var2.min()), float(var2.max())),
                    t_end=float(cell[0].times[-1]),
                    replicates=replicates,
                )
            )
        manifest = experiment.emit_outputs(experiment.ResultsTable(rows=rows), diags, outdir)
        if len(manifest) != 1 + 2 * len(diags):
            raise CheckError(f"emit_outputs wrote {len(manifest)} files for {len(diags)} runs")
        with open(manifest[0], encoding="utf-8") as fh:
            table = fh.read().splitlines()
        for row, line in zip(rows, table[1:]):
            want = f"{row.pair_id},{row.initial_variance:.6g},{row.error_inf_norm:.6g},"
            if not line.startswith(want):
                raise CheckError(f"table.csv row {line!r} does not start with {want!r}")
        if len(table) != 1 + len(rows):
            raise CheckError(f"table.csv has {len(table) - 1} rows, expected {len(rows)}")

    return Workload("paper_sweep", units, err_limit=math.e, after_pass=emit, temp_dirs=[outdir])


def large_ensemble(
    seed,
    outdir,
    *,
    pairs=("AB3-AB4", "AM3-AM4", "BDF3-BDF4", "RK4-RK5"),
    n_particles=100_000,
    t_end=None,
):
    """One pair per family at a large ensemble: array- and memory-bound."""
    units = []
    for i, pair in enumerate(pairs):
        config = experiment.ExperimentConfig(
            problem="gaussian_decay",
            pair=pair,
            n_particles=n_particles,
            t_end=t_end,
            replicates=1,
            seed=sub_seed(seed, 1, i),
        )
        units.append(_replicate_unit(config, 0, f"{pair} N={n_particles}"))
    return Workload("large_ensemble", units, err_limit=math.e, bound_by="array")


def scalar_rhs(
    seed,
    outdir,
    *,
    pairs=("AB3-AB4", "AM3-AM4"),
    n_particles=500,
    n_steps=200,
    stride=5,
    step=0.1,
):
    """`smooth` behind a non-vectorized rhs, so rhs_batch loops in Python."""
    smooth = ode_models.smooth_problem()
    system = ode_models.OdeSystem(
        dimension=1, rhs=smooth.system.rhs, vectorized=False, name="smooth_scalar"
    )
    problem = ode_models.TestProblem(
        system=system,
        initial_state=smooth.initial_state,
        t_span=(0.0, n_steps * step),
        exact_solution=smooth.exact_solution,
        name="smooth_scalar",
    )
    obs_steps = list(range(stride, n_steps + 1, stride))
    times = [k * step for k in obs_steps]
    units = []
    for i, pair_id in enumerate(pairs):
        pair = homec.make_pair(pair_id, tau=experiment.DEFAULT_TAU)
        model = state_space.EvolutionObservationModel(
            system=system,
            pair=pair,
            measurement_var=np.array([experiment.DEFAULT_NOISE_STDDEV**2]),
        )
        records = ode_models.synthesize_observations(
            problem,
            times,
            experiment.DEFAULT_NOISE_STDDEV,
            np.random.default_rng(sub_seed(seed, 2, i, 0)),
            time_indices=obs_steps,
        )
        config = particle_filter.FilterConfig(
            n_particles=n_particles,
            initial_variance=0.1,
            step=step,
            pair=pair,
            seed=sub_seed(seed, 2, i, 1),
        )

        def run(config=config, model=model, records=records):
            ensembles = particle_filter.run_filter(
                config, model, records, problem.initial_state, t_start=0.0
            )
            return metrics.diagnostics(ensembles, problem.exact_solution)

        units.append(Unit(f"{pair_id} N={n_particles} scalar rhs", n_particles, n_steps, run))
    return Workload("scalar_rhs", units, err_limit=math.pi / 2)


WORKLOADS = {"paper_sweep": paper_sweep, "large_ensemble": large_ensemble, "scalar_rhs": scalar_rhs}


def build(name, seed, outdir, **sizes):
    """Workload ``name`` for ``seed``; ``outdir`` is its temporary directory."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return WORKLOADS[name](seed, outdir, **sizes)
