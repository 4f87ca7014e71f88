import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import empirical_order, forward_startup, integrate_trajectory, one_step
from lmmpf import integrators
from lmmpf.homec import PAIR_IDS, make_pair, propagate_blocks
from lmmpf.integrators import (
    SOLVE_TOLERANCE,
    ColdHistoryError,
    Family,
    ImplicitSolveError,
    MethodSpec,
    history_derivatives,
    linear_rows,
    make_method,
    startup_states_batch,
    step_count,
    step_rows,
)
from lmmpf.ode_models import OdeSystem, TestProblem, gaussian_decay_problem, smooth_problem

AB = Family.ADAMS_BASHFORTH
AM = Family.ADAMS_MOULTON
BDF = Family.BDF
RK = Family.RUNGE_KUTTA_EMBEDDED


def warm_history(problem, method, h=0.1):
    """RK startup blocks (1, r, d) newest first, their f-values and the newest time."""
    t0 = problem.t_span[0]
    blocks = forward_startup(problem.system, problem.initial_state, t0, h, method.steps)
    t = t0 + (method.steps - 1) * h
    return blocks, history_derivatives(problem.system, blocks, t, h), t


def single(u, f):
    """One-block history (1, 1, d) of state u with f-value f."""
    return np.array([[u]], dtype=float), np.array([[f]], dtype=float)


# ------------------------------------------------------------- coefficients


def test_ab1_is_forward_euler():
    m = make_method(AB, 1)
    assert m.steps == 1
    assert np.array_equal(m.beta, [1.0])
    assert m.beta_new == 0.0


def test_ab2_coefficients_from_order_conditions():
    # u' = q'(t) must be integrated exactly for q of degree <= 2; with the
    # step [0,1] and history nodes t=0,-1 this pins beta uniquely.
    a = np.array([[1.0, 1.0], [0.0, -1.0]])
    rhs = np.array([1.0, 0.5])
    beta = np.linalg.solve(a, rhs)
    m = make_method(AB, 2)
    assert np.allclose(m.beta, beta, atol=1e-14)
    assert np.allclose(m.beta, [1.5, -0.5], atol=1e-15)


def test_bdf2_coefficients_from_interpolation():
    # collocation of a quadratic through t=0,-1,-2 with u'(0) = f gives BDF2
    a = np.array([[1.0, 1.0, 0.0], [-1.0, -2.0, 1.0], [1.0, 4.0, 0.0]])
    rhs = np.array([1.0, 0.0, 0.0])
    a1, a2, b0 = np.linalg.solve(a, rhs)
    m = make_method(BDF, 2)
    assert np.allclose(m.alpha, [a1, a2], atol=1e-14)
    assert m.beta_new == pytest.approx(b0, abs=1e-14)
    assert np.allclose(m.alpha, [4.0 / 3.0, -1.0 / 3.0], atol=1e-15)
    assert m.beta_new == pytest.approx(2.0 / 3.0, abs=1e-15)


@pytest.mark.parametrize("family,order", list(integrators._COEFFS), ids=str)
def test_order_conditions_of_every_table_entry(family, order):
    m = make_method(family, order)
    if family is RK:
        # quadrature conditions sum_i b_i c_i^k = 1/(k+1), k < p, and row sums c_i
        for k in range(order):
            assert np.dot(m.rk_b, m.rk_c**k) == pytest.approx(1.0 / (k + 1), abs=1e-12), k
        assert np.allclose([sum(row) for row in m.rk_a], m.rk_c, rtol=0.0, atol=1e-12)
        return
    # one step h = 1 from history nodes t = 0, -1, ..., -(r-1) to t = 1 is exact
    # for u = t^k, u' = k t^(k-1), k <= p
    nodes = -np.arange(m.steps, dtype=float)
    assert m.steps == len(m.beta)
    for k in range(order + 1):
        u = nodes**k
        f = k * nodes ** (k - 1) if k else np.zeros_like(nodes)
        u_new = np.dot(m.alpha, u) + np.dot(m.beta, f) + m.beta_new * k
        assert u_new == pytest.approx(1.0, abs=1e-12), k


@pytest.mark.parametrize("order,steps", [(1, 1), (2, 1), (3, 2), (4, 3)])
def test_am_step_counts(order, steps):
    assert make_method(AM, order).steps == steps


# "AB" is the label prefix Family.ADAMS_BASHFORTH.value, not a family
@pytest.mark.parametrize("family,order", [(AB, 5), (AM, 0), (BDF, 7), (RK, 3), ("AB", 1)])
def test_unsupported_methods_listed(family, order):
    with pytest.raises(ValueError, match="supported: AB1, "):
        make_method(family, order)


@pytest.mark.parametrize("family,order", list(integrators._COEFFS), ids=str)
def test_every_table_entry_derives_its_step_count_and_is_listed_as_supported(family, order):
    m = make_method(family, order)
    assert m.steps == (1 if family is RK else len(m.alpha))
    with pytest.raises(ValueError) as info:
        make_method(family, 99)
    assert m.label in str(info.value).split("supported: ")[1].split(", ")


def test_method_spec_steps_is_not_an_argument():
    with pytest.raises(TypeError, match="steps"):
        MethodSpec(AB, 2, steps=3, alpha=np.ones(2), beta=np.ones(2))
    assert MethodSpec(AB, 2, alpha=np.ones(2), beta=np.ones(2)).steps == 2


# ------------------------------------------------------------ explicit steps


def test_ab1_hand_value_gaussian_decay():
    p = gaussian_decay_problem()
    m = make_method(AB, 1)
    blocks, derivs, _ = warm_history(p, m)
    u = linear_rows(step_rows((m,), m.steps), blocks, derivs, 0.1)[0]
    assert u[0, 0] == pytest.approx(1.2, abs=1e-15)


def test_ab1_hand_value_smooth():
    p = smooth_problem()
    m = make_method(AB, 1)
    blocks, derivs, _ = warm_history(p, m)
    u = linear_rows(step_rows((m,), m.steps), blocks, derivs, 0.1)[0]
    assert u[0, 0] == pytest.approx(0.1, abs=1e-15)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_zero_step_returns_state(order):
    p = gaussian_decay_problem()
    m = make_method(AB, order)
    blocks, derivs, _ = warm_history(p, m)
    u = linear_rows(step_rows((m,), m.steps), blocks, derivs, 0.0)[0]
    assert u[0, 0] == blocks[0, 0, 0]


def test_cold_history_rejected():
    p = gaussian_decay_problem()
    pair = make_pair("AB1-AB2")  # AB2 needs two history blocks
    with pytest.raises(ColdHistoryError, match="insufficient startup values"):
        propagate_blocks(pair, p.system, p.initial_state[None, None], 0.0, 0.1)


@pytest.mark.parametrize("pair_id", PAIR_IDS)
def test_pair_step_pure(pair_id):
    # read-only inputs: a step that wrote to its history or f-values would raise
    p = gaussian_decay_problem()
    pair = make_pair(pair_id)
    r = pair.steps_required
    blocks = forward_startup(p.system, p.initial_state, 0.0, 0.1, r)
    blocks = blocks + np.random.default_rng(3).normal(scale=0.05, size=(5, r, 1))
    t = (r - 1) * 0.1
    derivs = history_derivatives(p.system, blocks, t, 0.1)
    before = (blocks.tobytes(), derivs.tobytes())
    blocks.flags.writeable = derivs.flags.writeable = False
    out1 = propagate_blocks(pair, p.system, blocks, t, 0.1, derivs)
    out2 = propagate_blocks(pair, p.system, blocks, t, 0.1, derivs)
    assert [a.tobytes() for a in out1] == [a.tobytes() for a in out2]
    assert (blocks.tobytes(), derivs.tobytes()) == before
    assert not any(np.shares_memory(a, b) for a in out1 for b in (blocks, derivs))


# ------------------------------------------------------------ implicit steps


def test_am1_closed_form_value():
    # backward Euler on x' = -2(t-1)x from x=1: u = 1/(1 - 0.18)
    p = gaussian_decay_problem()
    m = make_method(AM, 1)
    blocks, derivs, t = warm_history(p, m)
    u = one_step(m, p.system, t, blocks, derivs, 0.1)[0]
    assert u[0] == pytest.approx(1.0 / 0.82, abs=1e-9)


def test_bdf1_equals_am1():
    p = gaussian_decay_problem()
    hist_am = warm_history(p, make_method(AM, 1))
    hist_bdf = warm_history(p, make_method(BDF, 1))
    u_am = one_step(make_method(AM, 1), p.system, hist_am[2], *hist_am[:2], 0.1)
    u_bdf = one_step(make_method(BDF, 1), p.system, hist_bdf[2], *hist_bdf[:2], 0.1)
    assert abs(u_am[0, 0] - u_bdf[0, 0]) < 1e-9


@pytest.mark.parametrize("family,order", [(AM, 1), (AM, 3), (BDF, 2)])
def test_implicit_zero_step(family, order):
    p = gaussian_decay_problem()
    m = make_method(family, order)
    blocks, derivs, t = warm_history(p, m)
    assert one_step(m, p.system, t, blocks, derivs, 0.0)[0, 0] == blocks[0, 0, 0]


def test_backward_euler_closed_form_linear_agreement():
    # u = u_j / (1 - h*lambda(t+h)) in closed form for the scalar linear rhs
    p = gaussian_decay_problem()
    for t0, u0 in ((0.3, 0.8), (2.0, 1.0)):
        blocks, derivs = single([u0], p.system.rhs_batch(t0, np.array([[u0]]))[0])
        lam = -2.0 * (t0 + 0.1 - 1.0)
        expected = u0 / (1.0 - 0.1 * lam)
        u_am = one_step(make_method(AM, 1), p.system, t0, blocks, derivs, 0.1)
        u_bdf = one_step(make_method(BDF, 1), p.system, t0, blocks, derivs, 0.1)
        assert u_am[0, 0] == pytest.approx(expected, abs=1e-9)
        assert u_bdf[0, 0] == pytest.approx(expected, abs=1e-9)


@pytest.fixture
def rhs_calls(monkeypatch):
    """Records the time of every OdeSystem.rhs_batch call."""
    calls = []
    inner = OdeSystem.rhs_batch

    def counted(self, t, states):
        calls.append(t)
        return inner(self, t, states)

    monkeypatch.setattr(OdeSystem, "rhs_batch", counted)
    return calls


def stiff_cubic():
    return OdeSystem(dimension=1, rhs=lambda t, u, p: -1e4 * u**3, vectorized=True)


def test_implicit_nonconvergence_reports_residual():
    # u = 3 + 0.1 (1 + u^2) has no real root, so no iteration count converges
    system = OdeSystem(dimension=1, rhs=lambda t, u, p: 1.0 + u**2, vectorized=True)
    blocks, derivs = single([3.0], [10.0])
    for family in (AM, BDF):
        with pytest.raises(ImplicitSolveError) as err:
            one_step(make_method(family, 1), system, 0.0, blocks, derivs, 0.1)
        assert err.value.residual_norm > 0
        assert err.value.time == pytest.approx(0.1)
        assert err.value.rows_above_tolerance == 1
        assert "at t=0.1: 1 of 1 rows above tolerance; last residual max-norm" in str(err.value)


def test_newton_strategy_handles_stiff_step():
    stiff = OdeSystem(dimension=1, rhs=lambda t, u, p: -1e4 * u, vectorized=True)
    blocks, derivs = single([1.0], [-1e4])
    u = one_step(make_method(AM, 1), stiff, 0.0, blocks, derivs, 0.1)[0]
    assert u[0] == pytest.approx(1.0 / (1.0 + 1e3), rel=1e-8)


@pytest.mark.parametrize("family", [AM, BDF])
def test_stiff_cubic_step_converges_to_root(family):
    # u = 1 - 1000 u^3: the AM1 predictor starts at -999, far outside where a
    # fixed-point sweep contracts; Newton with a refreshed Jacobian walks in
    blocks, derivs = single([1.0], [-1e4])
    u = one_step(make_method(family, 1), stiff_cubic(), 0.0, blocks, derivs, 0.1)[0, 0]
    assert abs(u + 1000.0 * u**3 - 1.0) <= 1e-10
    assert u == pytest.approx(0.0966679, abs=1e-7)


@pytest.mark.parametrize("k, root", [(3e4, 0.06773391983622516), (1e5, 0.04569780162982182)])
def test_stiff_am_step_falls_back_to_the_bdf_seed(k, root):
    # the AB1 predictor lands at 1 - 0.1 k, where Newton does not converge;
    # from u_j the AM1 solve is BDF1's, bit for bit
    stiff = OdeSystem(dimension=1, rhs=lambda t, u, p: -k * u**3, vectorized=True)
    blocks, derivs = single([1.0], [-k])
    u_am = one_step(make_method(AM, 1), stiff, 0.0, blocks, derivs, 0.1)
    u_bdf = one_step(make_method(BDF, 1), stiff, 0.0, blocks, derivs, 0.1)
    assert u_am[0, 0] == u_bdf[0, 0] == root
    assert abs(root + 0.1 * k * root**3 - 1.0) <= 1e-10


def test_coupled_linear_step_matches_direct_solve():
    a = np.array([[-1.0, 5.0], [-5.0, -1.0]])
    system = OdeSystem(dimension=2, rhs=lambda t, u, p: u @ a.T, vectorized=True)
    rng = np.random.default_rng(11)
    u_j = rng.normal(size=(7, 2))
    blocks, derivs = u_j[:, None, :], system.rhs_batch(0.0, u_j)[:, None, :]
    h = 0.1
    u = one_step(make_method(AM, 1), system, 0.0, blocks, derivs, h)
    expected = np.linalg.solve(np.eye(2) - h * a, u_j.T).T
    assert np.max(np.abs(u - expected)) <= 1e-12


finite = st.floats(-1e6, 1e6)


@settings(deadline=None, database=None)
@given(
    rows=st.lists(st.tuples(finite, finite, finite), min_size=1, max_size=6),
    hb=st.floats(-10.0, 10.0),
)
@example(rows=[(0.0, 1.0, -0.0)], hb=1.0)  # a -0.0 product, which einsum's sum makes +0.0
def test_scalar_newton_path_matches_the_general_formula_bit_for_bit(rows, hb):
    # d = 1: the inverse and correction equal the (N, 1, 1) matrix route they replace
    system = OdeSystem(dimension=1, rhs=lambda t, u, p: np.sin(3.0 * u) - u**3, vectorized=True)
    u, f_val, res = (np.array(col)[:, None] for col in zip(*rows))
    with np.errstate(all="ignore"):
        m = np.broadcast_to(np.eye(1), (len(u), 1, 1)).copy()
        eps = 1e-8 * np.maximum(1.0, np.abs(u[:, 0]))
        up = u.copy()
        up[:, 0] += eps
        m[:, :, 0] -= hb * (system.rhs_batch(0.5, up) - f_val) / eps[:, None]
        former_inv = 1.0 / m
        former_corr = np.einsum("nij,nj->ni", former_inv, res)
        m_inv = integrators._iteration_inverse(system, 0.5, u, f_val, hb)
        corr = integrators._newton_correction(m_inv, res)
    assert m_inv.shape == corr.shape == (len(u), 1)
    assert m_inv.tobytes() == former_inv.tobytes()
    assert corr.tobytes() == former_corr.tobytes()


def test_smooth_step_needs_few_rhs_calls(rhs_calls):
    p = gaussian_decay_problem()
    t, u_j = 4.9, p.exact_solution(4.9)
    blocks, derivs = single(u_j, p.system.rhs(t, u_j, p.system.params))
    one_step(make_method(AM, 1), p.system, t, blocks, derivs, 0.1)
    assert len(rhs_calls) <= 4


@pytest.mark.parametrize(
    "problem", [gaussian_decay_problem(), smooth_problem()], ids=["gaussian_decay", "smooth"]
)
@pytest.mark.parametrize("family,order", [(f, o) for f in (AM, BDF) for o in (1, 2, 3, 4)])
def test_implicit_step_meets_tolerance(problem, family, order):
    m = make_method(family, order)
    rng = np.random.default_rng(order)
    blocks, derivs, t = warm_history(problem, m)
    blocks = blocks + rng.normal(scale=0.1, size=(50,) + blocks.shape[1:])
    derivs = history_derivatives(problem.system, blocks, t, 0.1)
    u = one_step(m, problem.system, t, blocks, derivs, 0.1)
    const = linear_rows(step_rows((m,), m.steps), blocks, derivs, 0.1)[0]
    res = const + 0.1 * m.beta_new * problem.system.rhs_batch(t + 0.1, u) - u
    assert np.max(np.abs(res)) <= SOLVE_TOLERANCE


# ---------------------------------------------------------------- embedded RK


def test_rk12_hand_values():
    p = gaussian_decay_problem()
    for order, value in ((1, 1.2), (2, 1.208)):
        u = one_step(make_method(RK, order), p.system, 0.0, np.array([[[1.0]]]), None, 0.1)
        assert u[0, 0] == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("order", [1, 2, 4, 5])
def test_rk_zero_step(order):
    p = gaussian_decay_problem()
    u = one_step(make_method(RK, order), p.system, 0.3, np.array([[[0.7]]]), None, 0.0)
    assert u[0, 0] == 0.7


def test_rk45_constant_solution():
    zero = OdeSystem(dimension=1, rhs=lambda t, u, p: np.zeros_like(u), vectorized=True)
    for order in (4, 5):
        u = one_step(make_method(RK, order), zero, 0.0, np.array([[[2.5]]]), None, 0.1)
        assert u[0, 0] == 2.5


@pytest.mark.parametrize("order,partner", [(1, 2), (4, 5)])
def test_rk_pair_members_share_a_tableau(order, partner):
    low, high = make_method(RK, order), make_method(RK, partner)
    assert low.rk_a is high.rk_a and np.array_equal(low.rk_c, high.rk_c)
    assert not np.array_equal(low.rk_b, high.rk_b)


@pytest.mark.parametrize("order", [1, 2, 4, 5])
def test_rk_specs_carry_no_multistep_coefficients(order):
    m = make_method(RK, order)
    assert m.alpha is None and m.beta is None and m.beta_new == 0.0


# -------------------------------------------------------------------- startup


def test_bootstrap_single_step_method():
    p = gaussian_decay_problem()
    blocks = startup_states_batch(p.system, p.initial_state, 0.0, 0.1, 1)[0]
    assert len(blocks) == 1
    assert blocks[0][0] == 1.0


def test_bootstrap_accuracy_ab2():
    p = gaussian_decay_problem()
    blocks = forward_startup(p.system, p.initial_state, 0.0, 0.1, 2)[0]
    exact = p.exact_solution(0.1)[0]
    assert len(blocks) == 2
    assert blocks[1][0] == 1.0
    assert abs(blocks[0][0] - exact) < 1e-3


def test_bootstrap_deterministic():
    p = gaussian_decay_problem()
    m = make_method(AB, 4)
    h1 = warm_history(p, m)
    h2 = warm_history(p, m)
    assert np.array_equal(h1[0], h2[0])
    assert np.array_equal(h1[1], h2[1])


def test_bootstrap_backward_keeps_newest():
    p = gaussian_decay_problem()
    blocks = startup_states_batch(p.system, p.initial_state, 0.0, 0.1, 3)[0]
    assert blocks[0][0] == 1.0
    # older blocks should follow the flow backwards
    assert abs(blocks[1][0] - p.exact_solution(-0.1)[0]) < 1e-6


# --------------------------------------------------------- order / exactness


@pytest.mark.parametrize(
    "t_end,h",
    [(1.0, 0.0), (1.0, -0.1), (1.0, np.inf), (1.0, np.nan), (np.nan, 0.1), (np.inf, 0.1),
     (0.55, 0.1), (1.5e-10, 1e-10)],
)
def test_step_count_rejects_bad_spans(t_end, h):
    assert step_count(0.0, t_end, h) is None


def test_step_count_before_the_start_is_negative():
    assert step_count(0.0, -1.0, 0.1) == -10


@settings(deadline=None, database=None)
@given(
    h=st.floats(1e-12, 1e3),
    start=st.floats(-1e3, 1e3),
    k=st.integers(-10**6, 10**6),
)
def test_step_count_is_the_signed_step_of_a_grid_time(h, start, k):
    # judged in units of a step, so the same at every step size
    t0 = start * h
    assert step_count(t0, t0 + k * h, h) == k
    assert step_count(t0, t0 + (k + 0.5) * h, h) is None


@pytest.mark.parametrize(
    "family,order",
    [(AB, 1), (AB, 2), (AB, 3), (AB, 4), (AM, 1), (AM, 2), (AM, 3), (AM, 4),
     (BDF, 1), (BDF, 2), (BDF, 3), (BDF, 4)],
)
def test_order_of_convergence_multistep(family, order):
    p = gaussian_decay_problem()
    m = make_method(family, order)
    ratio = 2.0 ** empirical_order(m, p)
    assert 2.0**order * 0.7 <= ratio <= 2.0**order * 1.4


@pytest.mark.parametrize("order", [1, 2, 4, 5])
def test_order_of_convergence_rk(order):
    p = gaussian_decay_problem()
    m = make_method(RK, order)
    ratio = 2.0 ** empirical_order(m, p)
    assert 2.0**m.order * 0.7 <= ratio <= 2.0**m.order * 1.4


def assert_integrates_polynomial(m, coeffs, start=0):
    """``m`` reproduces the polynomial q of ``coeffs`` from u' = q'(t), from step
    ``start`` on."""

    def q(t):
        return np.array([np.polyval(coeffs, t)])

    dcoeffs = np.polyder(coeffs)
    system = OdeSystem(
        dimension=1,
        rhs=lambda t, u, p: np.broadcast_to(np.polyval(dcoeffs, t), np.shape(u)).copy(),
        vectorized=True,
    )
    problem = TestProblem(
        system=system, initial_state=q(0.0), t_span=(0.0, 1.0), exact_solution=q
    )
    times, states = integrate_trajectory(m, problem, 0.1, 1.0)
    exact = np.stack([q(t) for t in times])
    assert np.max(np.abs(states[start:] - exact[start:])) < 1e-10 + 1e-10 * np.max(np.abs(exact))


@pytest.mark.parametrize(
    "family,order",
    [(AB, 1), (AB, 3), (AM, 2), (AM, 4), (BDF, 2), (BDF, 4)],
)
def test_polynomial_exactness(family, order):
    # a method of order p integrates u' = q'(t) exactly for deg q <= p
    m = make_method(family, order)
    coeffs = np.random.default_rng(order * 7 + 1).uniform(-1.0, 1.0, order + 1)
    # skip the RK startup values so only the multistep rule is being tested
    assert_integrates_polynomial(m, coeffs, start=m.steps - 1)


@pytest.mark.parametrize("order,member", [(1, "low"), (1, "high"), (4, "low"), (4, "high")])
def test_polynomial_exactness_rk(order, member):
    # ``order`` names the pair 1(2) or 4(5), ``member`` its method
    m = make_method(RK, order if member == "low" else order + 1)
    coeffs = np.random.default_rng(order + 3).uniform(-1.0, 1.0, m.order + 1)
    assert_integrates_polynomial(m, coeffs)
