"""README.md's python blocks run as written, its hand-written filter loop
ends on the same ensemble as `iter_filter`, its `lmmpf` commands parse, and
its lists of built-in catalogues, config keys, modules and standalone
integrator names match the package; each CLI verb takes every config key."""

import dataclasses
import operator
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from lmmpf import (
    PAIR_IDS,
    PROBLEMS,
    EvolutionObservationModel,
    FilterConfig,
    OdeSystem,
    gaussian_decay_problem,
    integrators,
    iter_filter,
    make_pair,
    smooth_problem,
    synthesize_observations,
)
from lmmpf.cli import _build_parser, main
from lmmpf.experiment import CONFIG_FIELDS
from lmmpf.particle_filter import RESAMPLERS

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_blocks_run_and_the_hand_written_loop_matches_iter_filter():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.DOTALL | re.M)
    assert blocks, "README.md has no python blocks"
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    by_hand = namespace["ensemble"]
    *_, streamed = iter_filter(
        namespace["config"],
        namespace["model"],
        namespace["records"],
        namespace["problem"].initial_state,
        t_start=namespace["t_start"],
    )
    for field in dataclasses.fields(streamed):
        a, b = getattr(by_hand, field.name), getattr(streamed, field.name)
        assert (a is None) == (b is None), field.name
        if b is not None:
            assert np.array_equal(a, b), field.name


@pytest.mark.parametrize(
    "problem,atol",
    [(smooth_problem, None), (gaussian_decay_problem, 1e-12)],
    ids=["autonomous-bytes", "time_dependent-1e-12"],
)
@pytest.mark.parametrize("pair_id", ["AB3-AB4", "AM3-AM4"])
def test_readme_hand_written_loop_matches_iter_filter_on_a_non_vectorized_rhs(
    pair_id, problem, atol
):
    # the loop block recomputes f at every history block, where `iter_filter`
    # carries f-values from one step to the next: byte-equal on an autonomous
    # rhs, within rounding on a time-dependent one
    loop = next(
        block
        for block in re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.DOTALL | re.M)
        if "innovation_step(" in block
    )
    problem = problem()
    system = OdeSystem(dimension=1, rhs=problem.system.rhs, vectorized=False)
    model = EvolutionObservationModel(
        system=system, pair=make_pair(pair_id), measurement_var=np.array([0.05])
    )
    config = FilterConfig(n_particles=30, initial_variance=0.05, step=0.1, pair=model.pair,
                          resampler="systematic", seed=13)
    records = synthesize_observations(
        problem, [0.1 * k for k in range(2, 11, 2)], 0.2, np.random.default_rng(1),
        time_indices=range(2, 11, 2),
    )
    namespace = dict(np=np, config=config, model=model, records=records, problem=problem)
    exec(compile(loop, str(README), "exec"), namespace)
    by_hand = namespace["ensemble"]
    *_, streamed = iter_filter(config, model, records, problem.initial_state, t_start=0.0)
    assert (by_hand.time_index, by_hand.time) == (streamed.time_index, streamed.time) == (10, 1.0)
    for name in ("states", "weights"):
        a, b = getattr(by_hand, name), getattr(streamed, name)
        if atol is None:
            assert a.tobytes() == b.tobytes(), name
        else:
            assert np.allclose(a, b, rtol=0.0, atol=atol), name


def test_readme_config_keys_are_the_config_fields_in_order():
    keys = re.search(r"^Config file keys: `([^`]*)`", README.read_text(), flags=re.M).group(1)
    assert [key.strip() for key in keys.split(",")] == list(CONFIG_FIELDS)


def _readme_cli_commands():
    """Each `lmmpf` command of README's bash blocks, continuation lines joined, comments dropped."""
    blocks = re.findall(r"^```bash\n(.*?)^```", README.read_text(), flags=re.DOTALL | re.M)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith("lmmpf ")]


def test_readme_cli_commands_parse():
    commands = _readme_cli_commands()
    assert {words[1] for words in commands} == {"list", "run", "sweep"}
    parser = _build_parser()
    for words in commands:
        try:
            parser.parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(words)}")


@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_cli_verb_offers_config_and_one_flag_per_config_field(verb, capsys):
    with pytest.raises(SystemExit):
        main([verb, "--help"])
    flags = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", capsys.readouterr().out)) - {"--help"}
    assert flags == {"--config"} | {"--" + key.replace("_", "-") for key in CONFIG_FIELDS}


def test_readme_built_ins_are_the_problems_pairs_and_resamplers():
    line = re.search(
        r"^Built-in problems: `([^`]*)`; method pairs: `([^`]*)`; resamplers: `([^`]*)`\.$",
        README.read_text(),
        flags=re.M,
    )
    problems, pairs, resamplers = ([n.strip() for n in g.split(",")] for g in line.groups())
    assert problems == sorted(PROBLEMS)
    assert pairs == list(PAIR_IDS)
    assert resamplers == list(RESAMPLERS)


def test_readme_layout_lists_every_module():
    layout = re.search(r"^## Layout\n\n```\n(.*?)^```", README.read_text(), flags=re.DOTALL | re.M)
    listed = re.findall(r"^  (\w+\.py) ", layout.group(1), flags=re.M)
    modules = sorted(p.name for p in (ROOT / "src" / "lmmpf").glob("*.py"))
    assert sorted(listed) == [name for name in modules if not name.startswith("_")]


def test_readme_standalone_integrator_names_are_integrators_attributes():
    paragraph = re.search(
        r"^Integrators are also usable standalone from `lmmpf\.integrators`(.*?)\n\n",
        README.read_text(),
        flags=re.DOTALL | re.M,
    ).group(1)
    spans = re.findall(r"`([^`]*)`", paragraph)
    names = [span for span in spans if re.fullmatch(r"[A-Za-z_][\w.]*", span)]
    assert "startup_states_batch" in names
    operator.attrgetter(*names)(integrators)  # an AttributeError names a stale one
