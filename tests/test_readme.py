"""README.md's python blocks run as written, and its hand-written filter loop
ends on the same ensemble as `iter_filter`."""

import dataclasses
import re
from pathlib import Path

import numpy as np

from lmmpf import iter_filter

README = Path(__file__).resolve().parents[1] / "README.md"


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
