"""Experiment harness: configured filter runs, variance sweeps, file outputs.

A single experiment synthesizes noisy observations of a test problem's
exact solution on the integration grid, runs the filter once per replicate
with seeds derived from the base seed, and reduces the replicate
diagnostics to one results row. Sweeps cross method pairs with initial
variances and collect the rows into the results table.
"""

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .homec import make_pair
from .integrators import step_count
from .metrics import RunDiagnostics, diagnostics
from .ode_models import get_problem, synthesize_observations
from .particle_filter import RESAMPLERS, FilterConfig, iter_filter
from .state_space import EvolutionObservationModel
from .svg_plot import render_line_plot

# Defaults calibrated against the reference error/variance tables: the
# tabulated norms sit an order of magnitude above what tightly-observed,
# mildly-inflated runs produce, which pins the effective measurement noise
# near 0.27 and the error-control safety factor near 5.5.
DEFAULT_NOISE_STDDEV = 0.27
DEFAULT_TAU = 5.5

# Gaussian observation model needs a proper density even for noiseless data.
MIN_MEASUREMENT_VAR = 1e-30


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    pair: str
    n_particles: int = 150
    initial_variance: float = 0.1
    step: float = 0.1
    t_end: Optional[float] = None
    stride: int = 1
    noise_stddev: float = DEFAULT_NOISE_STDDEV
    tau: float = DEFAULT_TAU
    eps_floor: float = 1e-20
    seed: int = 1234
    replicates: int = 10
    resampler: str = "multinomial"
    outdir: str = "results"


@dataclass(frozen=True)
class TableRow:
    pair_id: str
    initial_variance: float
    error_inf_norm: float
    variance_2norm: float
    error_band: Tuple[float, float]
    variance_band: Tuple[float, float]
    t_end: float
    replicates: int


@dataclass
class ResultsTable:
    rows: List[TableRow] = field(default_factory=list)


def _sub_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def _resolve(config: ExperimentConfig):
    try:
        problem = get_problem(config.problem)
        pair = make_pair(config.pair, tau=config.tau, eps_floor=config.eps_floor)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if config.stride < 1:
        raise ConfigError("stride must be >= 1")
    if config.replicates < 1:
        raise ConfigError("replicates must be >= 1")
    if not 0 <= config.noise_stddev < np.inf:
        raise ConfigError("noise_stddev must be nonnegative and finite")
    if config.n_particles < 2:
        raise ConfigError("nsample must be >= 2")
    if not 0 < config.initial_variance < np.inf:
        raise ConfigError("v0 must be positive and finite")
    if not 0 < config.step < np.inf:
        raise ConfigError("dt must be positive and finite")
    if config.resampler not in RESAMPLERS:
        raise ConfigError(
            f"unknown resampler {config.resampler!r}; valid resamplers: {', '.join(RESAMPLERS)}"
        )
    t_start = problem.t_span[0]
    t_end = float(config.t_end if config.t_end is not None else problem.t_span[1])
    n_steps = step_count(t_start, t_end, config.step)
    if n_steps < 1:
        raise ConfigError(
            f"t_end={t_end} is not an integral number of steps of h={config.step} from {t_start}"
        )
    obs_steps = list(range(config.stride, n_steps + 1, config.stride))
    if not obs_steps:
        raise ConfigError("no observation falls inside the time span; reduce the stride")
    meas_var = np.array([max(config.noise_stddev**2, MIN_MEASUREMENT_VAR)])
    model = EvolutionObservationModel(system=problem.system, pair=pair, measurement_var=meas_var)
    return problem, model, t_start, t_end, obs_steps


def run_replicate(config: ExperimentConfig, replicate: int) -> RunDiagnostics:
    """One seeded end-to-end run: synthesize data, filter, diagnose."""
    return _run_resolved(config, _resolve(config), replicate)


def _run_resolved(config: ExperimentConfig, resolved, replicate: int) -> RunDiagnostics:
    problem, model, t_start, _, obs_steps = resolved
    times = [t_start + k * config.step for k in obs_steps]
    obs_rng = np.random.default_rng(_sub_seed(config.seed, replicate, 0))
    records = synthesize_observations(
        problem, times, config.noise_stddev, obs_rng, time_indices=obs_steps
    )
    fconfig = FilterConfig(
        n_particles=config.n_particles,
        initial_variance=config.initial_variance,
        step=config.step,
        pair=model.pair,
        resampler=config.resampler,
        seed=_sub_seed(config.seed, replicate, 1),
    )
    run = iter_filter(fconfig, model, records, problem.initial_state, t_start=t_start)
    return diagnostics(run, problem.exact_solution)


def run_experiment(config: ExperimentConfig) -> Tuple[List[RunDiagnostics], TableRow]:
    """Run all replicates of one experiment and reduce them to a table row."""
    resolved = _resolve(config)
    diags = [_run_resolved(config, resolved, rep) for rep in range(config.replicates)]
    errs = np.array([d.error_inf_norm for d in diags])
    variances = np.array([d.variance_2norm for d in diags])
    row = TableRow(
        pair_id=config.pair,
        initial_variance=config.initial_variance,
        error_inf_norm=float(np.mean(errs)),
        variance_2norm=float(np.mean(variances)),
        error_band=(float(np.min(errs)), float(np.max(errs))),
        variance_band=(float(np.min(variances)), float(np.max(variances))),
        t_end=resolved[3],
        replicates=config.replicates,
    )
    return diags, row


def run_sweep(
    problem: str, pair_ids: Sequence[str], v_values: Sequence[float], **settings
) -> ResultsTable:
    """Cross pairs with initial variances; rows sorted (pair, V descending).

    ``settings`` are further `ExperimentConfig` fields, such as ``replicates``
    and ``seed``, shared by every cell.
    """
    if not pair_ids or not len(v_values):
        raise ConfigError("sweep needs at least one pair and one variance value")
    table = ResultsTable()
    for pair_id in pair_ids:
        for v in sorted(v_values, reverse=True):
            config = ExperimentConfig(
                problem=problem, pair=pair_id, initial_variance=float(v), **settings
            )
            _, row = run_experiment(config)
            table.rows.append(row)
    return table


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"failed to write {path}: {exc}") from exc


def emit_outputs(
    table: ResultsTable, diags: Sequence[RunDiagnostics], output_dir: str
) -> List[str]:
    """Write table.csv plus per-run trajectory.csv / plot.svg; returns paths."""
    os.makedirs(output_dir, exist_ok=True)
    manifest = []
    lines = ["pair,V,err_inf,var_2norm,err_band_lo,err_band_hi"]
    for row in table.rows:
        lines.append(
            f"{row.pair_id},{row.initial_variance:.6g},{row.error_inf_norm:.6g},"
            f"{row.variance_2norm:.6g},{row.error_band[0]:.6g},{row.error_band[1]:.6g}"
        )
    table_path = os.path.join(output_dir, "table.csv")
    _write(table_path, "\n".join(lines) + "\n")
    manifest.append(table_path)
    multiple = len(diags) > 1
    for i, diag in enumerate(diags):
        suffix = f"_{i:02d}" if multiple else ""
        traj_path = os.path.join(output_dir, f"trajectory{suffix}.csv")
        manifest.append(traj_path)
        _write(traj_path, _trajectory_csv(diag))
        plot_path = os.path.join(output_dir, f"plot{suffix}.svg")
        manifest.append(plot_path)
        _write(plot_path, _trajectory_svg(diag, f"filter run{suffix.replace('_', ' ')}"))
    return manifest


def _trajectory_csv(diag: RunDiagnostics) -> str:
    d = diag.ensemble_means.shape[1]
    if d == 1:
        header = "t,mean,exact,abs_error,variance"
    else:
        cols = [
            ",".join(f"{name}_{k}" for k in range(d))
            for name in ("mean", "exact", "abs_error", "variance")
        ]
        header = "t," + ",".join(cols)
    lines = [header]
    for i, t in enumerate(diag.times):
        fields = [f"{t:.17g}"]
        for arr in (
            diag.ensemble_means,
            diag.exact_values,
            diag.absolute_errors,
            diag.sample_variances,
        ):
            fields.extend(f"{v:.17g}" for v in arr[i])
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def _trajectory_svg(diag: RunDiagnostics, title: str) -> str:
    return render_line_plot(
        title,
        diag.times,
        [
            ("computed", "black", diag.ensemble_means[:, 0]),
            ("exact", "blue", diag.exact_values[:, 0]),
            ("abs error", "red", diag.absolute_errors[:, 0]),
        ],
    )


# Setting name, as a config-file key and (with "_" as "-") a CLI flag ->
# (ExperimentConfig field, parser of its text value, help text). The CLI
# appends each field's default to the help text.
CONFIG_FIELDS = {
    "problem": ("problem", str, "problem id (see 'lmmpf list')"),
    "pair": ("pair", str, "method pair id (see 'lmmpf list')"),
    "nsample": ("n_particles", int, "number of particles"),
    "v0": ("initial_variance", float, "initial ensemble variance"),
    "dt": ("step", float, "integration step"),
    "tend": ("t_end", float, "end time (default: problem span)"),
    "stride": ("stride", int, "steps between observations"),
    "noise": ("noise_stddev", float, "observation noise stddev"),
    "tau": ("tau", float, "error-control safety factor"),
    "eps_floor": ("eps_floor", float, "innovation covariance floor"),
    "resampler": ("resampler", str, f"resampling scheme: {', '.join(RESAMPLERS)}"),
    "seed": ("seed", int, "base seed"),
    "reps": ("replicates", int, "replicate count"),
    "outdir": ("outdir", str, "output directory"),
}


def parse_config_file(path: str) -> Dict[str, str]:
    """Read line-oriented key=value experiment settings."""
    out: Dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in CONFIG_FIELDS:
                    raise ConfigError(
                        f"{path}:{lineno}: unknown key {key!r}; valid keys: "
                        + ", ".join(CONFIG_FIELDS)
                    )
                out[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out
