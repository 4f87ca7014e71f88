import math
import re

import numpy as np
import pytest

from lmmpf.ode_models import (
    ObservationRecord,
    OdeSystem,
    TestProblem,
    gaussian_decay_problem,
    get_problem,
    smooth_problem,
    synthesize_observations,
)


def test_smooth_problem_values():
    p = smooth_problem()
    assert p.exact_solution(0.0) == pytest.approx(0.0, abs=1e-15)
    assert p.exact_solution(1.0)[0] == pytest.approx(math.pi / 4.0, abs=1e-12)
    assert p.system.rhs_batch(0.0, np.array([[0.0]]))[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_gaussian_decay_values():
    p = gaussian_decay_problem()
    assert p.exact_solution(0.0)[0] == pytest.approx(1.0, abs=1e-15)
    assert p.exact_solution(2.0)[0] == pytest.approx(1.0, abs=1e-12)
    assert p.exact_solution(1.0)[0] == pytest.approx(math.e, abs=1e-12)


@pytest.mark.parametrize("name", ["smooth", "gaussian_decay"])
def test_exact_solution_satisfies_ode(name):
    p = get_problem(name)
    eps = 1e-6
    for t in np.linspace(p.t_span[0] + eps, p.t_span[1] - eps, 100):
        dx = (p.exact_solution(t + eps) - p.exact_solution(t - eps)) / (2.0 * eps)
        f = p.system.rhs_batch(t, p.exact_solution(t)[None])[0]
        assert np.max(np.abs(dx - f)) < 1e-6


@pytest.mark.parametrize("name", ["smooth", "gaussian_decay"])
def test_exact_matches_initial_state(name):
    p = get_problem(name)
    assert np.allclose(p.exact_solution(p.t_span[0]), p.initial_state, atol=1e-12)


def test_problem_rejects_an_exact_solution_that_misses_the_initial_state():
    p = gaussian_decay_problem()
    with pytest.raises(ValueError, match=r"exact_solution\(t_start\) does not match initial_state"):
        TestProblem(p.system, np.array([1.5]), p.t_span, exact_solution=p.exact_solution)
    # within the 1e-12 tolerance, and without an exact solution, it is accepted
    TestProblem(p.system, np.array([1.0 + 1e-13]), p.t_span, exact_solution=p.exact_solution)
    TestProblem(p.system, np.array([1.5]), p.t_span)


def linear_2d(t, u, p):
    # written elementwise: a matmul's rounding can depend on the batch size
    x, y = u[..., 0], u[..., 1]
    return np.stack([-x + 5.0 * y, -5.0 * x - y], axis=-1)


@pytest.mark.parametrize("n", [1, 500])
@pytest.mark.parametrize(
    "vectorized",
    [
        smooth_problem().system,
        gaussian_decay_problem().system,
        OdeSystem(2, linear_2d, vectorized=True),
    ],
    ids=["smooth", "gaussian_decay", "linear_2d"],
)
def test_row_by_row_rhs_batch_equals_the_vectorized_one(vectorized, n):
    rows = OdeSystem(vectorized.dimension, vectorized.rhs, vectorized=False)
    states = np.random.default_rng(n).normal(size=(n, vectorized.dimension))
    for t in (0.0, 0.7, 3.3):
        expected = vectorized.rhs_batch(t, states)
        assert expected.shape == states.shape
        assert np.array_equal(rows.rhs_batch(t, states), expected)


@pytest.mark.parametrize("vectorized", [True, False])
def test_rhs_batch_of_an_empty_batch_is_empty(vectorized):
    system = OdeSystem(dimension=2, rhs=lambda t, u, p: -u, vectorized=vectorized)
    assert system.rhs_batch(0.0, np.empty((0, 2))).shape == (0, 2)


@pytest.mark.parametrize(
    "vectorized, dimension, rhs, returned",
    [
        (False, 1, lambda t, u, p: float(u[0]), "(150,)"),
        (True, 1, lambda t, u, p: u[:, 0], "(150,)"),
        (False, 2, lambda t, u, p: np.array([u[0], u[1], 0.0]), "(150, 3)"),
        (True, 2, lambda t, u, p: np.zeros((len(u), 3)), "(150, 3)"),
        (False, 1, lambda t, u, p: np.ones(1 + int(u[0])), None),
        (False, 2, lambda t, u, p: np.ones(1 + int(u[0])), None),
    ],
    ids=[
        "row-scalar", "vectorized-flat", "row-3-of-2", "vectorized-3-of-2", "ragged-1", "ragged-2"
    ],
)
def test_rhs_batch_names_a_wrong_shaped_result(vectorized, dimension, rhs, returned):
    """``returned`` is the shape named, or None for rows of different lengths."""
    system = OdeSystem(dimension, rhs, vectorized=vectorized, name="bad")
    returned = "rows that do not stack" if returned is None else f"shape {returned}"
    message = (
        f"rhs of system 'bad' (d={dimension}) at t=0.25 returned {returned}, "
        f"expected (150, {dimension})"
    )
    states = np.arange(150.0 * dimension).reshape(150, dimension)  # row i starts at i * d
    with pytest.raises(ValueError, match=re.escape(message)):
        system.rhs_batch(0.25, states)


def test_registry_rejects_unknown():
    with pytest.raises(ValueError, match="smooth"):
        get_problem("lorenz")


def test_synthesize_zero_noise_is_exact():
    p = gaussian_decay_problem()
    rng = np.random.default_rng(0)
    times = [0.0, 1.0, 2.0]
    records = synthesize_observations(p, times, 0.0, rng)
    assert records[0].value[0] == pytest.approx(1.0, abs=1e-12)
    assert records[2].value[0] == pytest.approx(1.0, abs=1e-12)
    for rec, t in zip(records, times):
        assert np.allclose(rec.value, p.exact_solution(t), atol=1e-12)


def test_synthesize_deterministic_under_seed():
    p = gaussian_decay_problem()
    times = np.linspace(0.1, 4.9, 25)
    a = synthesize_observations(p, times, 0.01, np.random.default_rng(42))
    b = synthesize_observations(p, times, 0.01, np.random.default_rng(42))
    assert all(np.array_equal(x.value, y.value) for x, y in zip(a, b))


def test_synthesize_requires_ground_truth():
    p = gaussian_decay_problem()
    bare = type(p)(
        system=p.system, initial_state=p.initial_state, t_span=p.t_span, exact_solution=None
    )
    with pytest.raises(ValueError, match="no ground truth available"):
        synthesize_observations(bare, [0.5], 0.01, np.random.default_rng(0))


def test_synthesize_time_indices_strictly_increasing():
    p = gaussian_decay_problem()
    records = synthesize_observations(
        p, [0.5, 1.0], 0.0, np.random.default_rng(0), time_indices=[5, 10]
    )
    assert [r.time_index for r in records] == [5, 10]
    with pytest.raises(ValueError, match="strictly increasing"):
        synthesize_observations(
            p, [0.5, 1.0], 0.0, np.random.default_rng(0), time_indices=[5, 5]
        )


def test_synthesize_rejects_time_indices_of_another_length():
    # zip would silently drop the 41 times that have no index
    p = gaussian_decay_problem()
    times = 0.1 * np.arange(1, 51)
    with pytest.raises(ValueError, match="9 time_indices for 50 times"):
        synthesize_observations(p, times, 0.0, np.random.default_rng(0), time_indices=range(1, 10))


@pytest.mark.parametrize("indices", [[3], [-1]], ids=["3", "-1"])
def test_synthesize_rejects_an_observed_index_outside_the_state(indices):
    p = gaussian_decay_problem()
    with pytest.raises(ValueError, match=rf"observed index {indices[0]} is outside 0..0 \(d=1\)"):
        synthesize_observations(p, [0.5], 0.0, np.random.default_rng(0), observed_indices=indices)


def test_observation_record_fields():
    rec = ObservationRecord(time_index=3, time=0.3, value=np.array([1.5]))
    assert rec.time_index == 3 and rec.time == 0.3
