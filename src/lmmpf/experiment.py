"""Experiment harness: configured filter runs, variance sweeps, file outputs.

A single experiment synthesizes noisy observations of a test problem's
exact solution on the integration grid, runs the filter once per replicate
with seeds derived from the base seed, and reduces the replicate
diagnostics to one results row. Sweeps cross method pairs with initial
variances and collect the rows into the results table.
"""

import functools
import os
from dataclasses import dataclass, field, replace
from numbers import Real
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .homec import MethodPair, make_pair
from .integrators import step_count
from .metrics import RunDiagnostics, diagnostics
from .ode_models import get_problem, synthesize_observations
from .particle_filter import RESAMPLERS, FilterConfig, _check_integer, iter_filter
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
    """The settings of one experiment. They are checked when the config is built:
    a bad one raises `ConfigError` naming its key, so a config that exists is valid."""

    problem: str
    pair: str
    n_particles: int = 150
    initial_variance: float = 0.1
    step: float = 0.1
    t_end: Optional[float] = None
    stride: int = 1
    noise_stddev: float = DEFAULT_NOISE_STDDEV
    tau: float = DEFAULT_TAU
    eps_floor: float = MethodPair.eps_floor
    seed: int = 1234
    replicates: int = 10
    resampler: str = FilterConfig.resampler
    outdir: str = "results"

    def __post_init__(self):
        for key, value, least in (
            ("nsample", self.n_particles, 2), ("stride", self.stride, 1),
            ("reps", self.replicates, 1), ("seed", self.seed, 0),
        ):
            try:
                _check_integer(key, value, least)
            except ValueError:
                rule = f">= {least} and an integer" if least else "a nonnegative integer"
                raise ConfigError(f"{key} must be {rule}, got {value!r}") from None
        if not (isinstance(self.noise_stddev, Real) and 0 <= self.noise_stddev < np.inf):
            raise ConfigError("noise must be nonnegative and finite")
        if not (isinstance(self.initial_variance, Real) and 0 < self.initial_variance < np.inf):
            raise ConfigError("v0 must be positive and finite")
        if not (isinstance(self.step, Real) and 0 < self.step < np.inf):
            raise ConfigError("dt must be positive and finite")
        if not isinstance(self.t_end, (Real, type(None))):
            raise ConfigError(f"tend must be a number, got {self.t_end!r}")
        if not isinstance(self.outdir, (str, os.PathLike)) or not os.fspath(self.outdir):
            raise ConfigError(f"outdir must be a path, got {self.outdir!r}")
        _build(self)


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


def _build(config: ExperimentConfig):
    """(problem, model, FilterConfig at its default seed, t_start, t_end, obs steps, obs times).

    Raises `ConfigError` for a problem, pair or resampler it cannot build and
    for a t_end or stride off the step grid; the config checks the rest.
    """
    try:
        problem = get_problem(config.problem)
        pair = make_pair(config.pair, tau=config.tau, eps_floor=config.eps_floor)
        fconfig = FilterConfig(
            config.n_particles, config.initial_variance, config.step, pair, config.resampler
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # every replicate reads the exact solution at the same grid times; its
    # callers copy what it returns, so sharing the arrays is safe
    problem = replace(
        problem, exact_solution=functools.lru_cache(maxsize=None)(problem.exact_solution)
    )
    t_start = problem.t_span[0]
    t_end = float(config.t_end if config.t_end is not None else problem.t_span[1])
    n_steps = step_count(t_start, t_end, config.step)
    if n_steps is None:
        raise ConfigError(
            f"t_end={t_end} is not an integral number of steps of h={config.step} from {t_start}"
        )
    if n_steps < 1:
        raise ConfigError(
            f"t_end={t_end} must lie at least one step of h={config.step} after the start {t_start}"
        )
    if n_steps % config.stride:
        last = n_steps - n_steps % config.stride
        ending = f"the last observation would be at t={t_start + last * config.step:g}"
        raise ConfigError(
            f"{n_steps} steps to t_end={t_end} are not a multiple of stride={config.stride}; "
            + (ending if last else "no step would be observed")
        )
    # tuples: every replicate of the config shares the cached result
    obs_steps = tuple(range(config.stride, n_steps + 1, config.stride))
    obs_times = tuple(t_start + k * config.step for k in obs_steps)
    meas_var = np.array([max(config.noise_stddev**2, MIN_MEASUREMENT_VAR)])
    model = EvolutionObservationModel(system=problem.system, pair=pair, measurement_var=meas_var)
    return problem, model, fconfig, t_start, t_end, obs_steps, obs_times


# a config that exists is valid, so the config itself keys the cache
_resolve = functools.lru_cache(maxsize=128)(_build)


def run_replicate(config: ExperimentConfig, replicate: int) -> RunDiagnostics:
    """One seeded end-to-end run: synthesize data, filter, diagnose. What it builds
    from the config is cached per equal config (the 128 most recent)."""
    problem, model, fconfig, t_start, _, obs_steps, obs_times = _resolve(config)
    obs_rng = np.random.default_rng(_sub_seed(config.seed, replicate, 0))
    records = synthesize_observations(
        problem, obs_times, config.noise_stddev, obs_rng, time_indices=obs_steps
    )
    fconfig = replace(fconfig, seed=_sub_seed(config.seed, replicate, 1))
    run = iter_filter(fconfig, model, records, problem.initial_state, t_start=t_start)
    return diagnostics(run, problem.exact_solution)


def run_experiment(config: ExperimentConfig) -> Tuple[List[RunDiagnostics], TableRow]:
    """Run all replicates of one experiment on one cached build; reduce them to a table row."""
    diags = [run_replicate(config, rep) for rep in range(config.replicates)]
    errs = np.array([d.error_inf_norm for d in diags])
    variances = np.array([d.variance_2norm for d in diags])
    row = TableRow(
        pair_id=config.pair,
        initial_variance=config.initial_variance,
        error_inf_norm=float(np.mean(errs)),
        variance_2norm=float(np.mean(variances)),
        error_band=(float(np.min(errs)), float(np.max(errs))),
        variance_band=(float(np.min(variances)), float(np.max(variances))),
        t_end=_resolve(config)[4],
        replicates=config.replicates,
    )
    return diags, row


def sweep_configs(
    problem: str, pair_ids: Sequence[str], v_values: Sequence[float], **settings
) -> List[ExperimentConfig]:
    """The config of each cell crossing pairs with initial variances, sorted
    (pair, V descending). ``settings`` are further `ExperimentConfig` fields,
    such as ``replicates`` and ``seed``, shared by every cell."""
    if not pair_ids or not len(v_values):
        raise ConfigError("sweep needs at least one pair and one variance value")
    return [
        ExperimentConfig(problem=problem, pair=pair_id, initial_variance=float(v), **settings)
        for pair_id in pair_ids
        for v in sorted(v_values, reverse=True)
    ]


def run_sweep(
    problem: str, pair_ids: Sequence[str], v_values: Sequence[float], **settings
) -> ResultsTable:
    """The table of `sweep_configs`' cells; every config is built, and so
    checked, before any cell runs."""
    configs = sweep_configs(problem, pair_ids, v_values, **settings)
    return ResultsTable(rows=[run_experiment(config)[1] for config in configs])


def _write(path: str, text: str) -> str:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"failed to write {path}: {exc}") from exc
    return path


def emit_outputs(
    table: ResultsTable, diags: Sequence[RunDiagnostics], output_dir: str
) -> List[str]:
    """Write table.csv plus per-run trajectory.csv / plot.svg; returns paths."""
    os.makedirs(output_dir, exist_ok=True)
    return [
        _write(os.path.join(output_dir, name), text) for name, text in _output_files(table, diags)
    ]


def _output_files(table: ResultsTable, diags: Sequence[RunDiagnostics]):
    """(file name, text) of each output in write order; a text is made when it is asked for."""
    lines = ["pair,V,err_inf,var_2norm,err_band_lo,err_band_hi"]
    for row in table.rows:
        values = (row.initial_variance, row.error_inf_norm, row.variance_2norm, *row.error_band)
        lines.append(",".join([row.pair_id] + [f"{v:.6g}" for v in values]))
    yield "table.csv", "\n".join(lines) + "\n"
    for i, diag in enumerate(diags):
        suffix = f"_{i:02d}" if len(diags) > 1 else ""
        yield f"trajectory{suffix}.csv", _trajectory_csv(diag)
        yield f"plot{suffix}.svg", _trajectory_svg(diag, f"filter run{suffix.replace('_', ' ')}")


def _trajectory_csv(diag: RunDiagnostics) -> str:
    names = ("mean", "exact", "abs_error", "variance")
    values = (diag.ensemble_means, diag.exact_values, diag.absolute_errors, diag.sample_variances)
    d = diag.ensemble_means.shape[1]
    header = ["t"] + [name if d == 1 else f"{name}_{k}" for name in names for k in range(d)]
    rows = np.column_stack([diag.times, *values])
    # one %-template for the whole file: the text of f"{v:.17g}" per value
    row = ",".join(["%.17g"] * rows.shape[1])
    body = "\n".join([row] * rows.shape[0]) % tuple(rows.ravel().tolist())
    return ",".join(header) + "\n" + body + "\n"


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
    "pair": ("pair", str, "method pair id (see 'lmmpf list'); sweep: comma-separated ids"),
    "nsample": ("n_particles", int, "number of particles"),
    "v0": ("initial_variance", float, "initial ensemble variance; sweep: comma-separated values"),
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
    """Read line-oriented key=value experiment settings; each key may appear once."""
    out: Dict[str, str] = {}
    lines: Dict[str, int] = {}
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
                if key in out:
                    raise ConfigError(
                        f"{path}:{lineno}: key {key!r} is already set on line {lines[key]}"
                    )
                out[key], lines[key] = value, lineno
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out
