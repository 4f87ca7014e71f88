import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import one_step
from lmmpf.homec import (
    PAIR_IDS,
    MethodPair,
    make_pair,
    propagate_blocks,
)
from lmmpf.integrators import (
    ColdHistoryError,
    Family,
    ImplicitSolveError,
    _solve_stage_batch,
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
    ens = Ensemble(states=blocks, weights=np.full(n, 1.0 / n), time_index=0, time=t)
    return innovation_step(
        ens, pred, gamma, np.random.default_rng(0), time=t + h, system=system
    ).states


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
        one_step(m, p.system, 0.0, blocks, None, 0.1) for m in (pair.low, pair.high)
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


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("pair_id", PAIR_IDS)
def test_propagate_blocks_on_an_empty_batch(pair_id, d):
    # an implicit stage solve over no rows has residual norm 0, not a failed max
    a = np.array([[-1.0, 0.5], [-0.5, -1.0]])[:d, :d]
    system = OdeSystem(dimension=d, rhs=lambda t, u, p: u @ a.T, vectorized=True)
    pair = make_pair(pair_id)
    pred, gamma = propagate_blocks(pair, system, np.empty((0, pair.steps_required, d)), 0.0, 0.1)
    assert pred.shape == gamma.shape == (0, d)


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


MULTISTEP_PAIRS = [pair_id for pair_id in PAIR_IDS if not pair_id.startswith("RK")]


def per_member_step(pair, system, blocks, t, h, derivs):
    """The pair step member by member: one einsum per coefficient vector, and an
    AM solve seeded by its explicit Adams step, then by u_j if that fails."""
    outputs = []
    for m in (pair.low, pair.high):
        states = blocks[:, : m.steps]
        f = None if derivs is None else derivs[:, : m.steps]

        def explicit(spec):
            out = np.einsum("i,nid->nd", spec.alpha, states)
            return out + h * np.einsum("i,nid->nd", spec.beta, f) if spec.beta.any() else out

        const, hb = explicit(m), h * m.beta_new
        if m.family is Family.ADAMS_BASHFORTH:
            outputs.append(const)
            continue
        if m.family is Family.ADAMS_MOULTON:
            seed = explicit(make_method(Family.ADAMS_BASHFORTH, m.steps))
            try:
                outputs.append(_solve_stage_batch(system, t + h, const, hb, seed))
                continue
            except ImplicitSolveError:
                pass
        outputs.append(_solve_stage_batch(system, t + h, const, hb, blocks[:, 0].copy()))
    diff = outputs[0] - outputs[1]
    return outputs[0], np.maximum(pair.tau * pair.tau * diff * diff, pair.eps_floor)


@pytest.mark.parametrize("n", [1, 150, 1000])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("pair_id", MULTISTEP_PAIRS)
@settings(deadline=None, database=None, max_examples=4)
@given(
    seed=st.integers(0, 2**32 - 1),
    zeros=st.floats(0.0, 1.0),
    carried=st.booleans(),
    h=st.sampled_from([0.1, -0.1]),
)
# all +-0.0: a backward step makes h * 0.0 = -0.0, so u_j = -0.0 must be read as +0.0
@example(seed=0, zeros=1.0, carried=True, h=-0.1)
@example(seed=1, zeros=1.0, carried=False, h=0.1)
def test_pair_step_equals_the_per_member_step_bit_for_bit(pair_id, d, n, seed, zeros, carried, h):
    # finite histories (and carried derivatives) with a share of entries +-0.0
    pair = make_pair(pair_id)
    r, t = pair.steps_required, 0.3
    rng = np.random.default_rng(seed)

    def signed_zeros(a):
        mask = rng.random(a.shape) < zeros
        a[mask] = np.where(rng.random(mask.sum()) < 0.5, 0.0, -0.0)
        return a

    system = OdeSystem(dimension=d, rhs=lambda t, u, p: np.sin(u) - 0.5 * u, vectorized=False)
    blocks = signed_zeros(rng.uniform(-2.0, 2.0, (n, r, d)))
    derivs = signed_zeros(rng.uniform(-3.0, 3.0, (n, r, d))) if carried else None
    ref_derivs = derivs
    if ref_derivs is None and pair.low.reads_derivatives:
        ref_derivs = history_derivatives(system, blocks, t, h)
    got = propagate_blocks(pair, system, blocks, t, h, derivs=derivs)
    want = per_member_step(pair, system, blocks, t, h, ref_derivs)
    for a, b in zip(got, want):
        assert a.shape == b.shape == (n, d)
        assert a.tobytes() == b.tobytes()



EXPLICIT_PAIRS = [pair_id for pair_id in PAIR_IDS if pair_id.startswith(("AB", "RK"))]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("pair_id", EXPLICIT_PAIRS)
@settings(deadline=None, database=None, max_examples=10)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    share=st.floats(0.0, 1.0),
    carried=st.booleans(),
)
def test_explicit_pair_step_is_row_independent(pair_id, d, seed, n, share, carried):
    """Stepping any subset of the rows gives, bit for bit, those rows of the
    full-batch step, so rows stacked from several runs step as the runs would
    alone. AM and BDF pairs are left out: their implicit solve stops on the
    max-norm of the whole batch's residual, which couples the rows."""
    pair = make_pair(pair_id)
    r, t, h = pair.steps_required, 0.3, 0.1
    rng = np.random.default_rng(seed)
    # a vectorized rhs of elementwise arithmetic that couples the components
    system = OdeSystem(
        dimension=d, rhs=lambda t, u, p: -2.0 * (t - 1.0) * u + 0.5 * u[:, ::-1], vectorized=True
    )
    blocks = rng.uniform(-2.0, 2.0, (n, r, d))
    derivs = rng.uniform(-3.0, 3.0, (n, r, d)) if carried else None
    rows = np.flatnonzero(rng.random(n) < share)
    full = propagate_blocks(pair, system, blocks, t, h, derivs=derivs)
    part = propagate_blocks(
        pair, system, blocks[rows], t, h, derivs=None if derivs is None else derivs[rows]
    )
    for whole, sub in zip(full, part):
        assert sub.shape == (len(rows), d)
        assert sub.tobytes() == whole[rows].tobytes()


@pytest.mark.parametrize("pair_id", MULTISTEP_PAIRS)
def test_predictor_owns_its_memory(pair_id):
    # a predictor kept in an ensemble must not keep the pair's stack of rows alive
    p = gaussian_decay_problem()
    pair = make_pair(pair_id)
    blocks = exact_history(p, 0.5, 0.1, pair.steps_required).repeat(4, axis=0)
    pred, _ = propagate_blocks(pair, p.system, blocks, 0.5, 0.1)
    assert pred.base is None

def gain(pair, hj):
    """rho(hJ) = tau^2 * sum_i (c_low_i - c_high_i)^2 with c_i = (alpha_i + hJ beta_i) /
    (1 - hJ beta_new), each member's c zero-padded to the pair's r blocks."""
    c = np.zeros((2, pair.steps_required))
    for k, m in enumerate((pair.low, pair.high)):
        c[k, : m.steps] = (m.alpha + hj * m.beta) / (1.0 - hj * m.beta_new)
    return pair.tau**2 * float(np.sum((c[0] - c[1]) ** 2))


def linearized_gain(pair, j, h):
    """Summed gamma of `propagate_blocks` on u' = J u over the r unit histories."""
    system = OdeSystem(dimension=1, rhs=lambda t, u, p: j * u, vectorized=True)
    _, gamma = propagate_blocks(pair, system, np.eye(pair.steps_required)[:, :, None], 0.0, h)
    return float(gamma.sum())


@pytest.mark.parametrize("j", [2.0, -3.0, -8.0])
@pytest.mark.parametrize("pair_id", MULTISTEP_PAIRS)
def test_gamma_gain_matches_the_linearized_pair_step(pair_id, j):
    # independent noise of variance gamma in each block feeds the next gamma by rho
    pair = make_pair(pair_id, tau=5.5, eps_floor=0.0)
    assert linearized_gain(pair, j, 0.1) == pytest.approx(gain(pair, 0.1 * j), rel=1e-9)


@pytest.mark.parametrize(
    "pair_id, rhos", [("AB1-AB2", (0.605, 1.361, 9.68)), ("BDF3-BDF4", (24.47, 16.83, 12.21))]
)
def test_gamma_gain_on_gaussian_decay(pair_id, rhos):
    # J = -2(t - 1) at t = 0 / 2.5 / 5, h = 0.1, tau = 5.5
    pair = make_pair(pair_id, tau=5.5, eps_floor=0.0)
    got = [gain(pair, 0.1 * j) for j in (2.0, -3.0, -8.0)]
    assert got == pytest.approx(rhos, abs=0.005)
