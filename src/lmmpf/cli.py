"""Command-line harness: run single experiments, sweeps, and listings.

Exit codes: 0 success, 2 configuration error, 1 runtime error.
"""

import argparse
import sys
from typing import List, Optional

from .experiment import (
    CONFIG_FIELDS,
    ConfigError,
    DEFAULT_TAU,
    ExperimentConfig,
    ResultsTable,
    emit_outputs,
    parse_config_file,
    run_experiment,
    run_sweep,
)
from .homec import PAIR_IDS
from .ode_models import PROBLEMS
from .particle_filter import RESAMPLERS


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="key=value config file (flags win over file values)")
    parser.add_argument("--nsample", type=int, help="number of particles (default 150)")
    parser.add_argument("--dt", type=float, help="integration step (default 0.1)")
    parser.add_argument("--tend", type=float, help="end time (default: problem span)")
    parser.add_argument("--stride", type=int, help="steps between observations (default 1)")
    parser.add_argument("--noise", type=float, help="observation noise stddev")
    parser.add_argument(
        "--tau", type=float, help=f"error-control safety factor (default {DEFAULT_TAU})"
    )
    parser.add_argument("--seed", type=int, help="base seed (default 1234)")
    parser.add_argument("--reps", type=int, help="replicate count (default 10)")
    parser.add_argument("--outdir", help="output directory (default results)")
    parser.add_argument(
        "--eps-floor", type=float, default=None, help="innovation covariance floor"
    )
    parser.add_argument("--resampler", choices=RESAMPLERS, default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmmpf",
        description="State estimation with multistep-integrator particle filters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment and write its outputs")
    p_run.add_argument("--problem", help="problem id (see 'lmmpf list')")
    p_run.add_argument("--pair", help="method pair id (see 'lmmpf list')")
    p_run.add_argument("--v0", type=float, help="initial ensemble variance (default 0.1)")
    _add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="cross method pairs with initial variances")
    p_sweep.add_argument("--problem", help="problem id")
    p_sweep.add_argument("--pairs", help="comma-separated pair ids")
    p_sweep.add_argument("--v", help="comma-separated initial variances")
    _add_common(p_sweep)

    sub.add_parser("list", help="list available problems and method pairs")
    return parser


def _collect_settings(args) -> dict:
    settings = {}
    if getattr(args, "config", None):
        file_values = parse_config_file(args.config)
        for key, raw in file_values.items():
            field, cast = CONFIG_FIELDS[key]
            try:
                settings[field] = cast(raw)
            except ValueError:
                raise ConfigError(f"config key {key}: cannot parse {raw!r}") from None
    for flag, (field, _) in CONFIG_FIELDS.items():
        value = getattr(args, flag, None)
        if value is not None:
            settings[field] = value
    return settings


def _print_table(table: ResultsTable):
    print("pair         V        err_inf   var_2norm")
    for row in table.rows:
        print(
            f"{row.pair_id:<12} {row.initial_variance:<8g} "
            f"{row.error_inf_norm:<9.4g} {row.variance_2norm:<9.4g}"
        )


def _cmd_run(args) -> int:
    settings = _collect_settings(args)
    if "problem" not in settings or "pair" not in settings:
        raise ConfigError("run needs --problem and --pair (flags or config file)")
    config = ExperimentConfig(**settings)
    diags, row = run_experiment(config)
    table = ResultsTable(rows=[row])
    manifest = emit_outputs(table, diags, config.outdir)
    _print_table(table)
    print(f"wrote {len(manifest)} files to {config.outdir}")
    return 0


def _cmd_sweep(args) -> int:
    settings = _collect_settings(args)
    problem = settings.pop("problem", None)
    if problem is None:
        raise ConfigError("sweep needs --problem")
    file_pairs = settings.pop("pair", None)
    pair_value = getattr(args, "pairs", None) or file_pairs
    if not pair_value:
        raise ConfigError("sweep needs --pairs")
    pair_ids = [p.strip() for p in pair_value.split(",") if p.strip()]
    v_raw = getattr(args, "v", None)
    if not v_raw:
        raise ConfigError("sweep needs --v (comma-separated variances)")
    try:
        v_values = [float(v) for v in v_raw.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse variances {v_raw!r}") from None
    outdir = settings.get("outdir", ExperimentConfig.outdir)
    settings.pop("initial_variance", None)
    table = run_sweep(problem, pair_ids, v_values, **settings)
    manifest = emit_outputs(table, [], outdir)
    _print_table(table)
    print(f"wrote {len(manifest)} files to {outdir}")
    return 0


def _cmd_list() -> int:
    print("problems:")
    for name in sorted(PROBLEMS):
        print(f"  {name}")
    print("method pairs:")
    for pair_id in PAIR_IDS:
        print(f"  {pair_id}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_list()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
