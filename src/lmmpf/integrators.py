"""Fixed-step ODE propagators: Adams-Bashforth, Adams-Moulton, BDF, and
embedded Runge-Kutta pairs, with multistep history management and startup.

All stepping routines are written against particle batches: states (N, d)
and multistep histories (N, r, d), newest block first; a single trajectory
is the batch N = 1. Steps never mutate their inputs and are bit-reproducible.

Implicit (AM, BDF) steps solve their stage equation by simplified Newton with
a forward-difference Jacobian: about three rhs calls for a smooth step.
"""

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ._kernels import multistep_combine
from .ode_models import OdeSystem, TestProblem


class Family(enum.Enum):
    ADAMS_BASHFORTH = "adams_bashforth"
    ADAMS_MOULTON = "adams_moulton"
    BDF = "bdf"
    RUNGE_KUTTA_EMBEDDED = "runge_kutta_embedded"


class ColdHistoryError(ValueError):
    """Raised when a multistep method is stepped with insufficient startup values."""


class ImplicitSolveError(RuntimeError):
    """The implicit stage equation did not converge at the stage time ``time``."""

    def __init__(self, time: float, rows: int, rows_above_tolerance: int, residual_norm: float):
        super().__init__(
            f"implicit stage equation did not converge at t={time:.6g}: {rows_above_tolerance} "
            f"of {rows} rows above tolerance; last residual max-norm {residual_norm:.3e}"
        )
        self.time = time
        self.rows_above_tolerance = rows_above_tolerance
        self.residual_norm = residual_norm


# Newton iteration cap and residual max-norm of every implicit stage solve
SOLVE_MAX_ITERATIONS = 50
SOLVE_TOLERANCE = 1e-10


@dataclass(frozen=True)
class MethodSpec:
    """One integrator: family, order p, step count r, and coefficients.

    Multistep update (newest history entry first):

        u_{j+1} = sum_i alpha[i] u_{j-i}
                  + h * (beta_new f(t_{j+1}, u_{j+1}) + sum_i beta[i] f(t_{j-i}, u_{j-i}))

    An embedded RK method uses its Butcher tableau (``rk_c``, ``rk_a``), which
    it shares with the partner of its pair, and its own weights ``rk_b``; its
    ``alpha`` and ``beta`` are None.
    """

    family: Family
    order: int
    steps: int
    alpha: Optional[np.ndarray] = None
    beta: Optional[np.ndarray] = None
    beta_new: float = 0.0
    rk_c: Optional[np.ndarray] = None
    rk_a: Optional[Tuple[Tuple[float, ...], ...]] = None
    rk_b: Optional[np.ndarray] = None

    @property
    def reads_derivatives(self) -> bool:
        """Whether a step reads f at the history blocks: AB and AM (AM1 through
        its AB1 predictor), not BDF or RK."""
        return self.family in (Family.ADAMS_BASHFORTH, Family.ADAMS_MOULTON)

    @property
    def label(self) -> str:
        prefix = {
            Family.ADAMS_BASHFORTH: "AB",
            Family.ADAMS_MOULTON: "AM",
            Family.BDF: "BDF",
            Family.RUNGE_KUTTA_EMBEDDED: "RK",
        }[self.family]
        return f"{prefix}{self.order}"


_AB_BETA = {
    1: [1.0],
    2: [3.0 / 2.0, -1.0 / 2.0],
    3: [23.0 / 12.0, -16.0 / 12.0, 5.0 / 12.0],
    4: [55.0 / 24.0, -59.0 / 24.0, 37.0 / 24.0, -9.0 / 24.0],
}

# (beta_new, history betas); order-p Adams-Moulton keeps r = max(p-1, 1) states
_AM_BETA = {
    1: (1.0, [0.0]),
    2: (1.0 / 2.0, [1.0 / 2.0]),
    3: (5.0 / 12.0, [8.0 / 12.0, -1.0 / 12.0]),
    4: (9.0 / 24.0, [19.0 / 24.0, -5.0 / 24.0, 1.0 / 24.0]),
}

# (beta_new, state alphas)
_BDF_COEFFS = {
    1: (1.0, [1.0]),
    2: (2.0 / 3.0, [4.0 / 3.0, -1.0 / 3.0]),
    3: (6.0 / 11.0, [18.0 / 11.0, -9.0 / 11.0, 2.0 / 11.0]),
    4: (12.0 / 25.0, [48.0 / 25.0, -36.0 / 25.0, 16.0 / 25.0, -3.0 / 25.0]),
}

# Heun-Euler 1(2) tableau (c, a)
_RK12 = ([0.0, 1.0], ((), (1.0,)))

# Fehlberg 4(5) tableau (c, a)
_RK45 = (
    [0.0, 1.0 / 4.0, 3.0 / 8.0, 12.0 / 13.0, 1.0, 1.0 / 2.0],
    (
        (),
        (1.0 / 4.0,),
        (3.0 / 32.0, 9.0 / 32.0),
        (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
        (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
        (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
    ),
)

# order -> (tableau, weights): each embedded pair is two orders over one tableau
_RK_WEIGHTS = {
    1: (_RK12, [1.0, 0.0]),
    2: (_RK12, [0.5, 0.5]),
    4: (_RK45, [25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -1.0 / 5.0, 0.0]),
    5: (
        _RK45,
        [16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0],
    ),
}

_SUPPORTED = "AB, AM and BDF orders 1-4; RK orders 1, 2 (Heun-Euler) and 4, 5 (Fehlberg)"


def make_method(family: Family, order: int) -> MethodSpec:
    """Build the standard published coefficients for (family, order)."""
    if family is Family.ADAMS_BASHFORTH and order in _AB_BETA:
        beta = np.array(_AB_BETA[order])
        r = order
        alpha = np.zeros(r)
        alpha[0] = 1.0
        return MethodSpec(family=family, order=order, steps=r, alpha=alpha, beta=beta)
    if family is Family.ADAMS_MOULTON and order in _AM_BETA:
        beta_new, beta = _AM_BETA[order]
        r = max(order - 1, 1)
        alpha = np.zeros(r)
        alpha[0] = 1.0
        return MethodSpec(
            family=family,
            order=order,
            steps=r,
            alpha=alpha,
            beta=np.array(beta),
            beta_new=beta_new,
        )
    if family is Family.BDF and order in _BDF_COEFFS:
        beta_new, alpha = _BDF_COEFFS[order]
        r = order
        return MethodSpec(
            family=family,
            order=order,
            steps=r,
            alpha=np.array(alpha),
            beta=np.zeros(r),
            beta_new=beta_new,
        )
    if family is Family.RUNGE_KUTTA_EMBEDDED and order in _RK_WEIGHTS:
        (c, a), b = _RK_WEIGHTS[order]
        return MethodSpec(
            family=family,
            order=order,
            steps=1,
            rk_c=np.array(c),
            rk_a=a,
            rk_b=np.array(b),
        )
    raise ValueError(f"unsupported method ({family.value}, order {order}); supported: {_SUPPORTED}")


# --------------------------------------------------------------- batch steps


def explicit_step_batch(
    spec: MethodSpec, states: np.ndarray, derivs: Optional[np.ndarray], h: float
) -> np.ndarray:
    """Adams-Bashforth update for a batch, states/derivs of shape (N, r, d)."""
    return multistep_combine(states, derivs, spec.alpha, spec.beta, h)


def _iteration_inverse(
    system: OdeSystem, t_new: float, u: np.ndarray, f_val: np.ndarray, hb: float
) -> np.ndarray:
    """(I - hb*J)^-1 at u, shape (N, d, d); J by forward differences (d rhs calls)."""
    n, d = u.shape
    m = np.broadcast_to(np.eye(d), (n, d, d)).copy()
    for k in range(d):
        eps = 1e-8 * np.maximum(1.0, np.abs(u[:, k]))
        up = u.copy()
        up[:, k] += eps
        m[:, :, k] -= hb * (system.rhs_batch(t_new, up) - f_val) / eps[:, None]
    # batched inv makes one LAPACK call per matrix: ~100x slower for 1x1
    return 1.0 / m if d == 1 else np.linalg.inv(m)


def _solve_stage_batch(
    system: OdeSystem, t_new: float, const: np.ndarray, hb: float, u0: np.ndarray
) -> np.ndarray:
    """Solve u = const + hb*f(t_new, u) by simplified Newton in the batch max-norm.

    M is rebuilt when an iteration fails to halve the residual. The last
    correction costs no rhs call and keeps the result smooth in the inputs.
    """
    u = u0
    f_val = system.rhs_batch(t_new, u)
    res = const + hb * f_val - u
    m_inv = _iteration_inverse(system, t_new, u, f_val, hb)
    norm = float(np.max(np.abs(res)))
    for _ in range(SOLVE_MAX_ITERATIONS):
        if norm <= SOLVE_TOLERANCE:
            break
        u = u + np.einsum("nij,nj->ni", m_inv, res)
        f_val = system.rhs_batch(t_new, u)
        res = const + hb * f_val - u
        norm, prev_norm = float(np.max(np.abs(res))), norm
        if norm > SOLVE_TOLERANCE and norm > 0.5 * prev_norm:
            m_inv = _iteration_inverse(system, t_new, u, f_val, hb)
    if norm <= SOLVE_TOLERANCE:
        return u + np.einsum("nij,nj->ni", m_inv, res)
    above = np.count_nonzero(~(np.max(np.abs(res), axis=1) <= SOLVE_TOLERANCE))
    raise ImplicitSolveError(t_new, len(res), int(above), norm)


def implicit_step_batch(
    spec: MethodSpec,
    system: OdeSystem,
    t: float,
    states: np.ndarray,
    derivs: Optional[np.ndarray],
    h: float,
) -> np.ndarray:
    """Adams-Moulton / BDF update for a batch; t is the current time t_j."""
    if h == 0.0:
        return states[:, 0].copy()
    const = multistep_combine(states, derivs, spec.alpha, spec.beta, h)
    if spec.family is Family.ADAMS_MOULTON:
        # seed the iteration with the explicit Adams step the buffer supports
        ab_beta = np.array(_AB_BETA[spec.steps])
        predictor = multistep_combine(states, derivs, spec.alpha, ab_beta, h)
    else:
        predictor = states[:, 0].copy()
    return _solve_stage_batch(system, t + h, const, h * spec.beta_new, predictor)


def rk_stages_batch(
    spec: MethodSpec, system: OdeSystem, t: float, states: np.ndarray, h: float
) -> List[np.ndarray]:
    """Stage derivatives k_i of the spec's tableau; states of shape (N, d).

    Both members of an embedded pair share them (see `rk_combine_batch`).
    """
    ks = []
    for i in range(len(spec.rk_c)):
        ui = states
        for j, a in enumerate(spec.rk_a[i]):
            if a != 0.0:
                ui = ui + (h * a) * ks[j]
        ks.append(system.rhs_batch(t + spec.rk_c[i] * h, ui))
    return ks


def rk_combine_batch(
    spec: MethodSpec, states: np.ndarray, ks: List[np.ndarray], h: float
) -> np.ndarray:
    """The spec's RK solution: states plus its weights applied to the stages."""
    out = states.copy()
    for b, k in zip(spec.rk_b, ks):
        if b != 0.0:
            out = out + (h * b) * k
    return out


def advance_batch(
    spec: MethodSpec,
    system: OdeSystem,
    t: float,
    states: np.ndarray,
    derivs: Optional[np.ndarray],
    h: float,
) -> np.ndarray:
    """One step of any family (batched).

    ``derivs`` is f of every block (N, r, d), or None for a method whose
    ``reads_derivatives`` is false.
    """
    if spec.family is Family.ADAMS_BASHFORTH:
        return explicit_step_batch(spec, states, derivs, h)
    if spec.family in (Family.ADAMS_MOULTON, Family.BDF):
        return implicit_step_batch(spec, system, t, states, derivs, h)
    u = states[:, 0]
    return rk_combine_batch(spec, u, rk_stages_batch(spec, system, t, u, h), h)


def history_derivatives(
    system: OdeSystem, blocks: np.ndarray, t: float, h: float
) -> np.ndarray:
    """f(t - i*h, blocks[:, i]) for every history block i, shape (N, r, d)."""
    return np.stack(
        [system.rhs_batch(t - i * h, blocks[:, i]) for i in range(blocks.shape[1])], axis=1
    )


_STARTUP_RK = make_method(Family.RUNGE_KUTTA_EMBEDDED, 5)


def startup_states_batch(
    system: OdeSystem, u0: np.ndarray, t0: float, h: float, r: int, backward: bool = False
) -> np.ndarray:
    """History blocks (N, r, d), newest first, generated by order-5 RK steps.

    Forward startup integrates ahead of t0, so the newest block sits at
    t0 + (r-1)h. Backward startup fills blocks behind t0, keeping u0 newest.
    """
    step = -h if backward else h
    seq = [np.atleast_2d(np.asarray(u0, dtype=float))]
    for i in range(r - 1):
        seq.append(advance_batch(_STARTUP_RK, system, t0 + i * step, seq[-1][:, None], None, step))
    if not backward:
        seq.reverse()
    return np.stack(seq, axis=1)


def step_count(t0: float, t_end: float, h: float) -> int:
    """Steps of size h from t0 to t_end, or -1 unless h is positive and finite
    and t_end lies a whole, nonnegative number of steps from t0."""
    n_steps = (t_end - t0) / h if 0.0 < h < np.inf else np.nan
    if not 0.0 <= n_steps < np.inf:
        return -1
    n_steps = int(round(n_steps))
    return n_steps if abs(t0 + n_steps * h - t_end) <= 1e-9 * max(1.0, abs(t_end)) else -1


def integrate_problem(
    method: MethodSpec,
    problem: TestProblem,
    h: float,
    t_end: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fixed-step integration of a test problem; returns (times, states).

    The first r-1 values come from the RK startup.
    """
    t0, tf = problem.t_span[0], float(t_end if t_end is not None else problem.t_span[1])
    n_steps = step_count(t0, tf, h)
    if n_steps < 0:
        raise ValueError("integration span is not an integral number of steps")
    system = problem.system
    r = method.steps
    times = t0 + h * np.arange(n_steps + 1)
    out = np.empty((n_steps + 1, system.dimension))
    blocks = startup_states_batch(system, problem.initial_state, t0, h, r)
    for i in range(min(r, n_steps + 1)):
        out[i] = blocks[0, r - 1 - i]
    derivs = None
    if method.reads_derivatives:
        derivs = history_derivatives(system, blocks, t0 + (r - 1) * h, h)
    for j in range(r - 1, n_steps):
        u_new = advance_batch(method, system, times[j], blocks, derivs, h)
        blocks = np.concatenate([u_new[:, None, :], blocks[:, : r - 1]], axis=1)
        if derivs is not None:
            f_new = system.rhs_batch(times[j + 1], u_new)
            derivs = np.concatenate([f_new[:, None, :], derivs[:, : r - 1]], axis=1)
        out[j + 1] = u_new[0]
    return times, out
