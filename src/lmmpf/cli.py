"""Command-line harness: run single experiments, sweeps, and listings.

Exit codes: 0 success, 2 configuration error, 1 runtime error.
"""

import argparse
import dataclasses
import os
import sys
from typing import List, Optional

from .experiment import (
    CONFIG_FIELDS,
    ConfigError,
    ExperimentConfig,
    ResultsTable,
    emit_outputs,
    parse_config_file,
    run_experiment,
    sweep_configs,
)
from .homec import PAIR_IDS
from .ode_models import PROBLEMS

# Keys that `sweep` reads as comma-separated lists, crossing their values
SWEEP_LISTS = ("pair", "v0")


def _add_settings(parser: argparse.ArgumentParser):
    """`--config` plus one text flag per `CONFIG_FIELDS` key; `_collect_settings` parses it."""
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    parser.add_argument("--config", help="key=value config file (flags win over file values)")
    for key, (field, _, text) in CONFIG_FIELDS.items():
        default = defaults[field]
        if default not in (None, dataclasses.MISSING):
            text = f"{text} (default {default})"
        parser.add_argument("--" + key.replace("_", "-"), help=text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmmpf",
        description="State estimation with multistep-integrator particle filters",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_settings(sub.add_parser("run", help="run one experiment and write its outputs"))
    _add_settings(sub.add_parser("sweep", help="cross method pairs with initial variances"))
    sub.add_parser("list", help="list available problems and method pairs")
    return parser


def _collect_settings(args) -> dict:
    """File values overridden by the flags given, each parsed by its `CONFIG_FIELDS` entry;
    `sweep` parses each element of a `SWEEP_LISTS` value into a list."""
    texts = parse_config_file(args.config) if args.config else {}
    for key in CONFIG_FIELDS:
        if getattr(args, key) is not None:
            texts[key] = getattr(args, key)
    settings = {}
    for key, text in texts.items():
        field, parse, _ = CONFIG_FIELDS[key]
        try:
            if args.command == "sweep" and key in SWEEP_LISTS:
                settings[field] = [parse(v) for v in map(str.strip, text.split(",")) if v]
            else:
                settings[field] = parse(text)
        except ValueError:
            raise ConfigError(f"config key {key}: cannot parse {text!r}") from None
    return settings


def _write_outputs(table: ResultsTable, diags, outdir: str) -> int:
    manifest = emit_outputs(table, diags, outdir)
    print("pair         V        err_inf   var_2norm")
    for row in table.rows:
        print(
            f"{row.pair_id:<12} {row.initial_variance:<8g} "
            f"{row.error_inf_norm:<9.4g} {row.variance_2norm:<9.4g}"
        )
    print(f"wrote {len(manifest)} files to {outdir}")
    return 0


def _cmd_run(settings: dict) -> int:
    config = ExperimentConfig(**settings)
    os.makedirs(config.outdir, exist_ok=True)  # an unusable outdir fails before any run
    diags, row = run_experiment(config)
    return _write_outputs(ResultsTable(rows=[row]), diags, config.outdir)


def _cmd_sweep(settings: dict) -> int:
    v_values = settings.pop("initial_variance", [ExperimentConfig.initial_variance])
    configs = sweep_configs(settings.pop("problem"), settings.pop("pair"), v_values, **settings)
    os.makedirs(configs[0].outdir, exist_ok=True)
    table = ResultsTable(rows=[run_experiment(config)[1] for config in configs])
    return _write_outputs(table, [], configs[0].outdir)


def _cmd_list() -> int:
    print("problems:")
    for name in sorted(PROBLEMS):
        print(f"  {name}")
    print("method pairs:")
    for pair_id in PAIR_IDS:
        print(f"  {pair_id}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        settings = _collect_settings(args)
        if "problem" not in settings or "pair" not in settings:
            raise ConfigError(f"{args.command} needs --problem and --pair (flags or config file)")
        if args.command == "run":
            return _cmd_run(settings)
        return _cmd_sweep(settings)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
