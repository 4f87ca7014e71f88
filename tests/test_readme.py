"""README.md's python blocks run as written, its hand-written filter loop
ends on the same ensemble as `iter_filter`, and its lists of built-in
catalogues, config keys, modules and standalone integrator names match the
package."""

import dataclasses
import operator
import re
from pathlib import Path

import numpy as np

from lmmpf import PAIR_IDS, PROBLEMS, integrators, iter_filter
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


def test_readme_config_keys_are_the_config_fields_in_order():
    keys = re.search(r"^Config file keys: `([^`]*)`", README.read_text(), flags=re.M).group(1)
    assert [key.strip() for key in keys.split(",")] == list(CONFIG_FIELDS)


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
