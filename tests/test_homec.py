import numpy as np
import pytest

from lmmpf.homec import (
    PAIR_IDS,
    MethodPair,
    make_pair,
    propagate_blocks,
)
from lmmpf.integrators import (
    ColdHistoryError,
    Family,
    advance_batch,
    history_derivatives,
    make_method,
    startup_states_batch,
)
from lmmpf.ode_models import OdeSystem, gaussian_decay_problem
from lmmpf.particle_filter import Ensemble, innovation_step


def exact_history(problem, t, h, r):
    """Exact solution at t, t - h, ..., t - (r-1)h as one block state (1, r, d)."""
    return np.stack([problem.exact_solution(t - i * h) for i in range(r)])[None]


def shifted_blocks(pair, system, blocks, t, h):
    """Blocks after one pair step and its innovation, where the block vector shifts."""
    pred, gamma = propagate_blocks(pair, system, blocks, t, h)
    n = blocks.shape[0]
    ens = Ensemble(
        states=blocks, weights=np.full(n, 1.0 / n), time_index=0, time=t,
        predictors=pred, innovation_vars=gamma,
    )
    return innovation_step(ens, np.random.default_rng(0), time=t + h, system=system).states


def rk12_gamma(slopes, tau):
    """Innovation diagonal of RK1-RK2 (no floor) for f(t, u) = slopes * t, one step
    of h = 0.1 from t = 0: the members differ by h^2/2 * slopes, so gamma is
    tau^2 * 2.5e-5 * slopes^2."""
    slopes = np.asarray(slopes, dtype=float)
    system = OdeSystem(
        dimension=len(slopes), rhs=lambda t, u, p: t * slopes + 0.0 * u, vectorized=True
    )
    pair = make_pair("RK1-RK2", tau=tau, eps_floor=0.0)
    _, gamma = propagate_blocks(pair, system, np.zeros((1, 1, len(slopes))), 0.0, 0.1)
    return gamma[0]


def test_innovation_hand_value():
    gamma = rk12_gamma([1.0, -2.0], tau=2.0)
    assert gamma[0] == pytest.approx(1e-4, rel=1e-12)
    assert gamma[1] == pytest.approx(4e-4, rel=1e-12)


def test_innovation_quadratic_scaling():
    base = rk12_gamma([1.0], tau=1.5)
    scaled = rk12_gamma([3.0], tau=1.5)
    # difference scaled by 3 -> gamma scaled by 9
    assert scaled[0] == pytest.approx(9.0 * base[0], rel=1e-12)


def test_innovation_monotone_in_tau():
    lo = rk12_gamma([1.0], tau=1.5)
    hi = rk12_gamma([1.0], tau=2.5)
    assert np.all(hi >= lo)


def test_pair_registry_ids():
    assert set(PAIR_IDS) == {
        "AB1-AB2", "AB3-AB4", "AM1-AM2", "AM3-AM4",
        "BDF1-BDF2", "BDF3-BDF4", "RK1-RK2", "RK4-RK5",
    }
    with pytest.raises(ValueError, match="AB1-AB2"):
        make_pair("AB2-AB3")


@pytest.mark.parametrize("pair_id", PAIR_IDS)
def test_every_pair_id_builds_the_pair_it_names(pair_id):
    pair = make_pair(pair_id)
    assert pair.label == pair_id
    assert pair.low.family is pair.high.family


def test_pair_validation():
    with pytest.raises(ValueError, match="tau"):
        make_pair("AB1-AB2", tau=1.0)
    ab1 = make_method(Family.ADAMS_BASHFORTH, 1)
    am2 = make_method(Family.ADAMS_MOULTON, 2)
    with pytest.raises(ValueError, match="family"):
        MethodPair(low=ab1, high=am2)
    with pytest.raises(ValueError, match="order"):
        MethodPair(low=ab1, high=ab1)
    rk = Family.RUNGE_KUTTA_EMBEDDED
    with pytest.raises(ValueError, match="tableau"):
        MethodPair(low=make_method(rk, 1), high=make_method(rk, 5))


def test_rk_pair_labels_follow_the_shared_rule():
    for pair_id, orders in (("RK1-RK2", (1, 2)), ("RK4-RK5", (4, 5))):
        pair = make_pair(pair_id)
        assert pair.label == pair_id
        assert (pair.low.order, pair.high.order) == orders


def test_pair_steps_required():
    assert make_pair("AB1-AB2").steps_required == 2
    assert make_pair("AM1-AM2").steps_required == 1
    assert make_pair("AM3-AM4").steps_required == 3
    assert make_pair("RK4-RK5").steps_required == 1


def test_propagate_pair_constant_solution():
    # with no floor, gamma == 0 means the high-order step equals the low one
    zero = OdeSystem(dimension=1, rhs=lambda t, u, p: np.zeros_like(u), vectorized=True)
    pair = make_pair("BDF1-BDF2", eps_floor=0.0)
    blocks = startup_states_batch(zero, np.array([3.0]), 0.0, 0.1, pair.steps_required)
    pred, gamma = propagate_blocks(pair, zero, blocks, 0.1, 0.1)
    assert pred[0, 0] == 3.0 and gamma[0, 0] == 0.0


def test_propagate_pair_local_difference_bound():
    p = gaussian_decay_problem()
    pair = make_pair("AB1-AB2", eps_floor=0.0)
    _, gamma = propagate_blocks(pair, p.system, exact_history(p, 0.1, 0.1, 2), 0.1, 0.1)
    difference = np.sqrt(gamma[0, 0]) / pair.tau  # |u_low - u_high|
    assert difference != 0.0
    assert difference < 0.02


def test_rk_pair_delegates_to_embedded_step():
    # the shared stages give each member exactly its own step
    p = gaussian_decay_problem()
    pair = make_pair("RK1-RK2", eps_floor=0.0)
    blocks = exact_history(p, 0.0, 0.1, 1)
    pred, gamma = propagate_blocks(pair, p.system, blocks, 0.0, 0.1)
    ref_low, ref_high = (
        advance_batch(m, p.system, 0.0, blocks, None, 0.1) for m in (pair.low, pair.high)
    )
    assert np.array_equal(pred, ref_low)
    diff = ref_low - ref_high
    assert np.array_equal(gamma, pair.tau * pair.tau * diff * diff)


def test_homec_calibration_tracks_local_error():
    # the pair discrepancy should estimate the low method's one-step error
    p = gaussian_decay_problem()
    pair = make_pair("AB1-AB2")
    h = 0.1
    hits = 0
    for t in np.linspace(0.1, 4.85, 20):
        pred, gamma = propagate_blocks(pair, p.system, exact_history(p, t, h, 2), t, h)
        u_low = pred[0, 0]
        estimate = np.sqrt(gamma[0, 0]) / pair.tau  # |u_low - u_high|
        truth = abs(u_low - p.exact_solution(t + h)[0])
        if truth / 3.0 <= estimate <= truth * 3.0:
            hits += 1
    assert hits >= 16


def test_propagate_blocks_floor_and_shift():
    zero = OdeSystem(dimension=1, rhs=lambda t, u, p: np.zeros_like(u), vectorized=True)
    pair = make_pair("BDF1-BDF2", eps_floor=1e-12)
    blocks = np.array([[[5.0], [5.0]], [[7.0], [7.0]]])
    pred, gamma = propagate_blocks(pair, zero, blocks, 0.0, 0.1)
    assert np.array_equal(pred[:, 0], [5.0, 7.0])
    assert np.array_equal(shifted_blocks(pair, zero, blocks, 0.0, 0.1)[:, 1, 0], [5.0, 7.0])
    assert np.all(gamma == 1e-12)


def test_propagate_blocks_shift_structure():
    p = gaussian_decay_problem()
    pair = make_pair("AB1-AB2")
    blocks = np.array([[[1.1], [1.0]], [[0.9], [0.8]]])
    shifted = shifted_blocks(pair, p.system, blocks, 0.1, 0.1)
    assert np.array_equal(shifted[:, 1], blocks[:, 0])


def test_propagate_blocks_rejects_wrong_block_count():
    p = gaussian_decay_problem()
    pair = make_pair("AB1-AB2")
    with pytest.raises(ColdHistoryError, match="blocks"):
        propagate_blocks(pair, p.system, np.zeros((2, 1, 1)), 0.0, 0.1)


def test_uses_derivatives_only_for_adams_pairs():
    uses = {pair_id: make_pair(pair_id).low.reads_derivatives for pair_id in PAIR_IDS}
    assert uses == {
        pair_id: pair_id.startswith(("AB", "AM")) for pair_id in PAIR_IDS
    }


@pytest.mark.parametrize("pair_id", ["AB1-AB2", "AB3-AB4", "AM1-AM2", "AM3-AM4"])
def test_propagate_blocks_with_given_derivatives_matches_recompute(pair_id):
    p = gaussian_decay_problem()
    pair = make_pair(pair_id)
    r, t, h = pair.steps_required, 0.4, 0.1
    rng = np.random.default_rng(3)
    blocks = 1.0 + 0.1 * rng.standard_normal((5, r, 1))
    derivs = history_derivatives(p.system, blocks, t, h)
    given = propagate_blocks(pair, p.system, blocks, t, h, derivs=derivs)
    recomputed = propagate_blocks(pair, p.system, blocks, t, h)
    for a, b in zip(given, recomputed):
        assert np.array_equal(a, b)
