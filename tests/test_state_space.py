import math
import re

import numpy as np
import pytest

from conftest import forward_startup
from lmmpf.homec import make_pair, propagate_blocks
from lmmpf.integrators import ColdHistoryError, history_derivatives, startup_states_batch
from lmmpf.ode_models import OdeSystem, gaussian_decay_problem
from lmmpf.particle_filter import Ensemble, innovation_step, propagate_ensemble
from lmmpf.state_space import EvolutionObservationModel


def make_model(pair_id="BDF1-BDF2", system=None, var=0.01, indices=None, **pair_kw):
    if system is None:
        system = gaussian_decay_problem().system
    return EvolutionObservationModel(
        system=system,
        pair=make_pair(pair_id, **pair_kw),
        measurement_var=np.array([var] * (system.dimension if indices is None else len(indices))),
        observed_indices=indices,
    )


def propagate(model, blocks, t, h):
    """One pair step of a single block state (r, d); returns its (d,) predictor and gamma."""
    pred, gamma = propagate_blocks(model.pair, model.system, blocks[None], t, h)
    return pred[0], gamma[0]


def shift(model, blocks, t, h):
    """A single block state (r, d) after one pair step and its innovation."""
    ens = Ensemble(states=blocks[None], weights=np.ones(1), time_index=0, time=t)
    rng = np.random.default_rng(0)
    moved = innovation_step(propagate_ensemble(ens, model, h), rng, time=t + h, system=model.system)
    return moved.states[0]


def log_density(x, mean, var):
    """Diagonal-Gaussian log density at one point x."""
    var = np.asarray(var, dtype=float)
    system = OdeSystem(dimension=len(var), rhs=lambda t, u, p: -u, vectorized=True)
    model = EvolutionObservationModel(
        system=system, pair=make_pair("BDF1-BDF2"), measurement_var=var
    )
    return model.log_likelihood_batch(x, np.asarray(mean, dtype=float)[None])[0]


def test_augment_single_block():
    p = gaussian_decay_problem()
    blocks = startup_states_batch(p.system, np.array([1.2]), 0.5, 0.1, 1)
    assert blocks.shape == (1, 1, 1)
    assert blocks[0, 0, 0] == 1.2


def test_augment_orders_newest_first():
    ramp = OdeSystem(dimension=1, rhs=lambda t, u, p: np.ones_like(u), vectorized=True)
    blocks = forward_startup(ramp, np.array([1.0]), 0.0, 1.0, 2)
    assert blocks[0, 1, 0] == 1.0
    assert blocks[0, 0, 0] == pytest.approx(2.0, abs=1e-15)


def test_augment_rejects_empty():
    model = make_model("AB1-AB2")
    with pytest.raises(ColdHistoryError):
        propagate(model, np.zeros((0, 1)), 0.0, 0.1)


def test_augment_project_round_trip():
    p = gaussian_decay_problem()
    blocks = forward_startup(p.system, p.initial_state, 0.0, 0.1, 3)
    derivs = history_derivatives(p.system, blocks, 0.2, 0.1)
    for i in range(3):
        assert np.array_equal(derivs[0, i], p.system.rhs_batch(0.2 - i * 0.1, blocks[:1, i])[0])


def test_propagate_constant_solution_floor():
    zero = OdeSystem(dimension=1, rhs=lambda t, u, p: np.zeros_like(u), vectorized=True)
    model = make_model(system=zero, eps_floor=1e-18)
    pred, gamma = propagate(model, np.array([[4.0], [4.0]]), 0.0, 0.1)
    assert pred[0] == 4.0
    assert np.all(gamma == 1e-18)


def test_propagate_backward_euler_value():
    model = make_model("BDF1-BDF2")
    pred, _ = propagate(model, np.array([[1.0], [1.0]]), 0.0, 0.1)
    assert pred[0] == pytest.approx(1.0 / 0.82, abs=1e-6)


def test_propagate_shift_structure():
    model = make_model("AB1-AB2")
    a, b = 1.3, 0.9
    shifted = shift(model, np.array([[a], [b]]), 0.2, 0.1)
    assert shifted[1, 0] == a
    assert shifted.shape == (2, 1)


def test_propagate_markov_shift_random_states():
    system = OdeSystem(dimension=2, rhs=lambda t, u, p: -u, vectorized=True)
    model = make_model("AB3-AB4", system=system, var=0.01)
    rng = np.random.default_rng(5)
    blocks = rng.normal(size=(4, 2))
    shifted = shift(model, blocks, 0.0, 0.05)
    assert np.array_equal(shifted[1:], blocks[:-1])


def test_propagate_validates_block_count():
    model = make_model("AB3-AB4")
    with pytest.raises(ValueError, match="blocks"):
        propagate(model, np.array([[1.0]]), 0.0, 0.1)


def test_log_density_at_mode():
    assert log_density([0.7], [0.7], [1.0]) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)


def test_log_density_one_sigma():
    mode = log_density([0.0], [0.0], [4.0])
    assert log_density([2.0], [0.0], [4.0]) == pytest.approx(mode - 0.5, abs=1e-12)


def test_log_density_translation_invariance():
    var = np.array([0.3, 2.0])
    x = np.array([0.4, -1.0])
    mean = np.array([0.1, 0.2])
    shift = np.array([5.0, -3.0])
    a = log_density(x, mean, var)
    b = log_density(x + shift, mean + shift, var)
    assert a == pytest.approx(b, abs=1e-12)


def test_log_density_integrates_to_one():
    sigma = 0.7
    xs = np.linspace(1.0 - 8 * sigma, 1.0 + 8 * sigma, 20001)
    vals = np.array([math.exp(log_density([x], [1.0], [sigma**2])) for x in xs])
    integral = np.trapezoid(vals, xs)
    assert integral == pytest.approx(1.0, abs=1e-6)


def test_observe_identity():
    model = make_model("AB1-AB2")
    blocks = np.array([[1.2], [1.0]])
    assert np.array_equal(model.observe_newest(blocks[0]), [1.2])


def test_observe_component_selection():
    system = OdeSystem(dimension=3, rhs=lambda t, u, p: -u, vectorized=True)
    model = make_model("AM1-AM2", system=system, indices=np.array([0, 2]))
    blocks = np.array([[1.0, 2.0, 3.0]])
    assert np.array_equal(model.observe_newest(blocks[0]), [1.0, 3.0])


def test_observe_matches_history_newest():
    p = gaussian_decay_problem()
    model = make_model("AB1-AB2")
    blocks = startup_states_batch(p.system, p.initial_state, 0.0, 0.1, 2)
    assert np.array_equal(model.observe_newest(blocks[:, 0]), blocks[:, 0])


@pytest.mark.parametrize(
    "dimension, indices, y",
    [(1, None, [1.0, 2.0, 3.0]), (1, None, 1.0), (2, [1], [1.0, 2.0])],
    ids=["(3,)-on-1d", "()-on-1d", "(2,)-on-1-observed"],
)
def test_log_likelihood_rejects_y_of_another_shape(dimension, indices, y):
    system = OdeSystem(dimension=dimension, rhs=lambda t, u, p: -u, vectorized=True)
    model = make_model("AB1-AB2", system=system, indices=indices)
    y = np.array(y)
    message = f"observation has shape {y.shape}; the measurement variance has shape (1,)"
    with pytest.raises(ValueError, match=re.escape(message)):
        model.log_likelihood_batch(y, np.ones((4, dimension)))


def test_model_rejects_nonpositive_measurement_var():
    for var in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive"):
            EvolutionObservationModel(
                system=gaussian_decay_problem().system,
                pair=make_pair("AB1-AB2"),
                measurement_var=np.array([var]),
            )


@pytest.mark.parametrize(
    "dimension, indices, var",
    [(1, None, [0.01, 0.01]), (2, None, [0.01]), (3, [0, 2], [0.01]), (3, [1], [0.01, 0.01])],
    ids=["2-on-1d", "1-on-2d", "1-on-2-observed", "2-on-1-observed"],
)
def test_model_rejects_measurement_var_of_another_length(dimension, indices, var):
    system = OdeSystem(dimension=dimension, rhs=lambda t, u, p: -u, vectorized=True)
    with pytest.raises(ValueError, match="measurement_var has shape"):
        EvolutionObservationModel(
            system=system,
            pair=make_pair("AB1-AB2"),
            measurement_var=np.array(var),
            observed_indices=indices,
        )


@pytest.mark.parametrize(
    "dimension, indices", [(1, [3]), (2, [0, 2]), (2, [-1])], ids=["3-on-1d", "2-on-2d", "-1"]
)
def test_model_rejects_observed_index_outside_the_state(dimension, indices):
    system = OdeSystem(dimension=dimension, rhs=lambda t, u, p: -u, vectorized=True)
    bad = indices[-1]
    with pytest.raises(ValueError, match=rf"observed index {bad} .*\(d={dimension}\)"):
        EvolutionObservationModel(
            system=system,
            pair=make_pair("AB1-AB2"),
            measurement_var=np.full(len(indices), 0.01),
            observed_indices=indices,
        )
