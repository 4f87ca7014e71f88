"""Fixed-step ODE propagators: Adams-Bashforth, Adams-Moulton, BDF, and
embedded Runge-Kutta pairs, with multistep history management and startup.

All stepping routines are written against particle batches: states (N, d)
and multistep histories (N, r, d), newest block first; a single trajectory
is the batch N = 1. Steps never mutate their inputs and are bit-reproducible.

Implicit (AM, BDF) steps solve their stage equation by simplified Newton with
a forward-difference Jacobian: about three rhs calls for a smooth step.
"""

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .ode_models import OdeSystem


class Family(enum.Enum):
    """Integrator family; its value is the prefix of a method's label."""

    ADAMS_BASHFORTH = "AB"
    ADAMS_MOULTON = "AM"
    BDF = "BDF"
    RUNGE_KUTTA_EMBEDDED = "RK"


_AB, _AM, _BDF, _RK = Family


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


@dataclass(frozen=True, eq=False)
class MethodSpec:
    """One integrator: family, order p and coefficients.

    Multistep update (newest history entry first):

        u_{j+1} = sum_i alpha[i] u_{j-i}
                  + h * (beta_new f(t_{j+1}, u_{j+1}) + sum_i beta[i] f(t_{j-i}, u_{j-i}))

    Its step count r, ``steps``, is ``len(alpha)``. An embedded RK method uses
    its Butcher tableau (``rk_c``, ``rk_a``), which it shares with the partner
    of its pair, and its own weights ``rk_b``; its ``alpha`` and ``beta`` are
    None and it has one step.
    """

    family: Family
    order: int
    steps: int = field(init=False)
    alpha: Optional[np.ndarray] = None
    beta: Optional[np.ndarray] = None
    beta_new: float = 0.0
    rk_c: Optional[np.ndarray] = None
    rk_a: Optional[Tuple[Tuple[float, ...], ...]] = None
    rk_b: Optional[np.ndarray] = None

    def __post_init__(self):
        # a field, not a property: the filter reads it several times per step
        object.__setattr__(self, "steps", 1 if self.family is _RK else len(self.alpha))

    @property
    def reads_derivatives(self) -> bool:
        """Whether a step reads f at the history blocks: AB and AM (AM1 through
        its AB1 predictor), not BDF or RK."""
        return self.family in (_AB, _AM)

    @property
    def label(self) -> str:
        return f"{self.family.value}{self.order}"


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

# (family, order) -> multistep (alpha, beta, beta_new), newest first, with
# r = len(alpha) steps; or RK (tableau, weights), an embedded pair being two
# orders over one tableau. Order-p AM keeps r = max(p-1, 1) states.
_COEFFS = {
    (_AB, 1): ([1.0], [1.0], 0.0),
    (_AB, 2): ([1.0, 0.0], [3.0 / 2.0, -1.0 / 2.0], 0.0),
    (_AB, 3): ([1.0, 0.0, 0.0], [23.0 / 12.0, -16.0 / 12.0, 5.0 / 12.0], 0.0),
    (_AB, 4): ([1.0, 0.0, 0.0, 0.0], [55.0 / 24.0, -59.0 / 24.0, 37.0 / 24.0, -9.0 / 24.0], 0.0),
    (_AM, 1): ([1.0], [0.0], 1.0),
    (_AM, 2): ([1.0], [1.0 / 2.0], 1.0 / 2.0),
    (_AM, 3): ([1.0, 0.0], [8.0 / 12.0, -1.0 / 12.0], 5.0 / 12.0),
    (_AM, 4): ([1.0, 0.0, 0.0], [19.0 / 24.0, -5.0 / 24.0, 1.0 / 24.0], 9.0 / 24.0),
    (_BDF, 1): ([1.0], [0.0], 1.0),
    (_BDF, 2): ([4.0 / 3.0, -1.0 / 3.0], [0.0, 0.0], 2.0 / 3.0),
    (_BDF, 3): ([18.0 / 11.0, -9.0 / 11.0, 2.0 / 11.0], [0.0, 0.0, 0.0], 6.0 / 11.0),
    (_BDF, 4): (
        [48.0 / 25.0, -36.0 / 25.0, 16.0 / 25.0, -3.0 / 25.0], [0.0, 0.0, 0.0, 0.0], 12.0 / 25.0
    ),
    (_RK, 1): (_RK12, [1.0, 0.0]),
    (_RK, 2): (_RK12, [0.5, 0.5]),
    (_RK, 4): (_RK45, [25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -1.0 / 5.0, 0.0]),
    (_RK, 5): (
        _RK45,
        [16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0],
    ),
}


def make_method(family: Family, order: int) -> MethodSpec:
    """Build the standard published coefficients for (family, order)."""
    try:
        coeffs = _COEFFS[family, order]
    except KeyError:
        name = family.value if isinstance(family, Family) else repr(family)
        supported = ", ".join(f"{f.value}{p}" for f, p in _COEFFS)
        raise ValueError(
            f"unsupported method ({name}, order {order}); supported: {supported}"
        ) from None
    if family is _RK:
        (c, a), b = coeffs
        return MethodSpec(family, order, rk_c=np.array(c), rk_a=a, rk_b=np.array(b))
    alpha, beta, beta_new = coeffs
    return MethodSpec(family, order, alpha=np.array(alpha), beta=np.array(beta), beta_new=beta_new)


# AB spec of r steps seeding an AM solve of r steps: both have alpha = (1, 0, ...)
_AM_SEED = {r: make_method(_AB, r) for family, r in _COEFFS if family is _AB}


# --------------------------------------------------------------- batch steps


def step_rows(specs, r: int) -> tuple:
    """Coefficient rows of the multistep ``specs``, then of each AM spec's AB seed.

    Returns (alpha, beta), each (k, r) with rows zero-padded to r columns;
    alpha is None when every row's is e_0, and beta when every entry is 0.
    """
    rows = tuple(specs) + tuple(_AM_SEED[m.steps] for m in specs if m.family is _AM)
    alpha, beta = np.zeros((2, len(rows), r))
    for k, m in enumerate(rows):
        alpha[k, : m.steps], beta[k, : m.steps] = m.alpha, m.beta
    return (None if (alpha == np.eye(1, r)).all() else alpha), (beta if beta.any() else None)


def linear_rows(
    rows: tuple, states: np.ndarray, derivs: Optional[np.ndarray], h: float
) -> np.ndarray:
    """sum_i alpha[k, i]*states[:, i] + h * sum_i beta[k, i]*derivs[:, i], shape (k, N, d).

    ``rows`` comes from `step_rows`; states/derivs are (N, r, d). A row is the
    whole AB step or the explicit part of an AM / BDF step. Rows whose alphas
    are all e_0 share u_j + 0.0: einsum's sum starts from +0.0.
    """
    alpha, beta = rows
    out = states[None, :, 0] + 0.0 if alpha is None else np.einsum("ki,nid->knd", alpha, states)
    if beta is None:
        return out
    scaled = np.einsum("ki,nid->knd", beta, derivs)
    scaled *= h
    scaled += out
    return scaled


def _iteration_inverse(
    system: OdeSystem, t_new: float, u: np.ndarray, f_val: np.ndarray, hb: float
) -> np.ndarray:
    """(I - hb*J)^-1 at u, J by forward differences (d rhs calls): (N, d, d), or (N, 1) if d = 1."""
    n, d = u.shape
    if d == 1:
        # batched inv makes one LAPACK call per matrix: ~100x slower for 1x1
        eps = 1e-8 * np.maximum(1.0, np.abs(u))
        return 1.0 / (1.0 - hb * (system.rhs_batch(t_new, u + eps) - f_val) / eps)
    m = np.broadcast_to(np.eye(d), (n, d, d)).copy()
    for k in range(d):
        eps = 1e-8 * np.maximum(1.0, np.abs(u[:, k]))
        up = u.copy()
        up[:, k] += eps
        m[:, :, k] -= hb * (system.rhs_batch(t_new, up) - f_val) / eps[:, None]
    return np.linalg.inv(m)


def _newton_correction(m_inv: np.ndarray, res: np.ndarray) -> np.ndarray:
    """M^-1 res per row; for d = 1, + 0.0 makes a -0.0 product +0.0, as einsum's sum does."""
    return m_inv * res + 0.0 if m_inv.ndim == 2 else np.einsum("nij,nj->ni", m_inv, res)


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
    norm = float(np.abs(res).max(initial=0.0))
    for _ in range(SOLVE_MAX_ITERATIONS):
        if norm <= SOLVE_TOLERANCE:
            break
        u = u + _newton_correction(m_inv, res)
        f_val = system.rhs_batch(t_new, u)
        res = const + hb * f_val - u
        norm, prev_norm = float(np.abs(res).max(initial=0.0)), norm
        if norm > SOLVE_TOLERANCE and norm > 0.5 * prev_norm:
            m_inv = _iteration_inverse(system, t_new, u, f_val, hb)
    if norm <= SOLVE_TOLERANCE:
        return u + _newton_correction(m_inv, res)
    above = np.count_nonzero(~(np.max(np.abs(res), axis=1) <= SOLVE_TOLERANCE))
    raise ImplicitSolveError(t_new, len(res), int(above), norm)


def implicit_step_batch(
    spec: MethodSpec,
    system: OdeSystem,
    t: float,
    u: np.ndarray,
    const: np.ndarray,
    seed: Optional[np.ndarray],
    h: float,
) -> np.ndarray:
    """Adams-Moulton / BDF update of u = u_j (N, d); t is the current time t_j.

    ``const`` is the explicit part of the stage equation and ``seed``, for AM,
    the explicit Adams step (see `step_members`).
    """
    if h == 0.0:
        return u.copy()
    if seed is not None:
        # seed with the explicit Adams step, or with u_j where a stiff step throws it off
        try:
            return _solve_stage_batch(system, t + h, const, h * spec.beta_new, seed)
        except ImplicitSolveError:
            pass
    # u is a strided view of the history that the solve reads several times; a
    # contiguous copy makes a BDF step at N = 10^5 faster than the view
    return _solve_stage_batch(system, t + h, const, h * spec.beta_new, u.copy())


def step_members(
    specs,
    rows: tuple,
    system: OdeSystem,
    t: float,
    states: np.ndarray,
    derivs: Optional[np.ndarray],
    h: float,
) -> List[np.ndarray]:
    """One step (N, d) of each multistep spec, all of one family, from one history.

    ``rows`` is the specs' `step_rows` over the r blocks of ``states`` (N, r, d):
    the linear part of every member (`linear_rows`) is computed at once, then
    each AM / BDF member solves its own stage equation.
    """
    out = linear_rows(rows, states, derivs, h)
    if specs[0].family is _AB:
        # own arrays: a row kept as a predictor would keep the whole stack alive
        return [row.copy() for row in out]
    seeds = out[len(specs) :] if specs[0].family is _AM else [None] * len(specs)
    return [
        implicit_step_batch(m, system, t, states[:, 0], const, seed, h)
        for m, const, seed in zip(specs, out, seeds)
    ]


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
    # the first sum allocates anew anyway, but without this copy perfbench's
    # `large_ensemble` ran about 4% slower on a 2-CPU VM and page-faulted more
    out = states.copy()
    for b, k in zip(spec.rk_b, ks):
        if b != 0.0:
            out = out + (h * b) * k
    return out


def history_derivatives(
    system: OdeSystem, blocks: np.ndarray, t: float, h: float
) -> np.ndarray:
    """f(t - i*h, blocks[:, i]) for every history block i, shape (N, r, d)."""
    out = np.empty(blocks.shape)
    for i in range(blocks.shape[1]):
        out[:, i] = system.rhs_batch(t - i * h, blocks[:, i])
    return out


_STARTUP_RK = make_method(_RK, 5)


def startup_states_batch(
    system: OdeSystem, u0: np.ndarray, t0: float, h: float, r: int
) -> np.ndarray:
    """History blocks (N, r, d), newest first, generated by order-5 RK steps.

    The blocks are filled behind t0 by steps of -h, keeping u0 newest: block
    i sits at t0 - i*h.
    """
    seq = [np.atleast_2d(np.asarray(u0, dtype=float))]
    for i in range(r - 1):
        ks = rk_stages_batch(_STARTUP_RK, system, t0 - i * h, seq[-1], -h)
        seq.append(rk_combine_batch(_STARTUP_RK, seq[-1], ks, -h))
    return np.stack(seq, axis=1)


def step_count(t0: float, t: float, h: float) -> Optional[int]:
    """The signed step count k with t = t0 + k*h, or None unless h is positive and
    finite and t lies on that grid: within 1e-6 of a step, at any step size."""
    k = (t - t0) / h if 0.0 < h < np.inf else np.nan
    if not abs(k) < np.inf:
        return None
    n = round(k)
    return int(n) if abs(k - n) <= 1e-6 else None
