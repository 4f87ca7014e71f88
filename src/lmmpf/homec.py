"""Innovation covariance by higher-order-method error control.

The discrepancy between one step of an order-p method and one step of an
order p+1 (or higher) method from the same family estimates the lower
method's local truncation error; scaled by tau^2 > 1 it becomes the
diagonal innovation covariance of the evolution model. Both methods are
re-seeded from the same accepted state each step, so the discrepancy is a
per-step (local) quantity.
"""

import re
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .integrators import (
    ColdHistoryError,
    Family,
    MethodSpec,
    advance_batch,
    history_derivatives,
    make_method,
    rk_combine_batch,
    rk_stages_batch,
)
from .ode_models import OdeSystem


@dataclass(frozen=True)
class MethodPair:
    """An order-p propagator and an order >= p+1 companion from one family.

    The members of an embedded RK pair share one tableau. ``eps_floor`` keeps
    the innovation covariance away from an exactly degenerate zero (set 0 to
    disable).
    """

    low: MethodSpec
    high: MethodSpec
    tau: float = 1.5
    eps_floor: float = 1e-20

    def __post_init__(self):
        if not 1.0 < self.tau < np.inf:
            raise ValueError("tau must be > 1 and finite")
        if not 0.0 <= self.eps_floor < np.inf:
            raise ValueError("eps_floor must be nonnegative and finite")
        if self.low.family is not self.high.family:
            raise ValueError("pair methods must share a family")
        if self.high.order < self.low.order + 1:
            raise ValueError("high method order must exceed the low order")
        if self.low.rk_a != self.high.rk_a:
            raise ValueError("embedded RK pair methods must share a tableau")

    @property
    def steps_required(self) -> int:
        return max(self.low.steps, self.high.steps)

    @property
    def label(self) -> str:
        return f"{self.low.label}-{self.high.label}"


PAIR_IDS = (
    "AB1-AB2", "AB3-AB4", "AM1-AM2", "AM3-AM4", "BDF1-BDF2", "BDF3-BDF4", "RK1-RK2", "RK4-RK5"
)


def make_pair(
    pair_id: str, tau: float = MethodPair.tau, eps_floor: float = MethodPair.eps_floor
) -> MethodPair:
    """Build a method pair from its identifier, the labels of its members (e.g. 'AB1-AB2')."""
    if pair_id not in PAIR_IDS:
        raise ValueError(f"unknown method pair {pair_id!r}; valid pairs: {', '.join(PAIR_IDS)}")
    low, high = (make_method(Family(f), int(p)) for f, p in re.findall(r"([A-Z]+)(\d+)", pair_id))
    return MethodPair(low=low, high=high, tau=tau, eps_floor=eps_floor)


def innovation_covariance(u_low: np.ndarray, u_high: np.ndarray, tau: float) -> np.ndarray:
    """gamma = tau^2 (u_low - u_high)^2 elementwise, exactly (no floor applied)."""
    u_low = np.asarray(u_low, dtype=float)
    u_high = np.asarray(u_high, dtype=float)
    if u_low.shape != u_high.shape:
        raise ValueError("solution vectors must have matching dimension")
    diff = u_low - u_high
    return tau * tau * diff * diff


def propagate_blocks(
    pair: MethodPair,
    system: OdeSystem,
    blocks: np.ndarray,
    t: float,
    h: float,
    derivs: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched pair step over stacked histories.

    blocks: (N, r, d) newest-first with r = pair.steps_required, aligned at
    time t. ``derivs``, when given, holds f of every block (N, r, d) and
    spares the r rhs evaluations; otherwise a pair that reads them
    (``pair.low.reads_derivatives``) evaluates them at t - i*h.
    Returns the low-order step (N, d), the predictor of the next newest
    block, and the floored innovation diagonal (N, d). An embedded RK pair
    evaluates its shared stages once and applies each member's weights.
    """
    r = pair.steps_required
    if blocks.shape[1] != r:
        raise ColdHistoryError(
            f"insufficient startup values: blocks have {blocks.shape[1]} entries; pair needs {r}"
        )
    if pair.low.family is Family.RUNGE_KUTTA_EMBEDDED:
        ks = rk_stages_batch(pair.low, system, t, blocks[:, 0], h)
        u_low, u_high = (rk_combine_batch(m, blocks[:, 0], ks, h) for m in (pair.low, pair.high))
    else:
        if derivs is None and pair.low.reads_derivatives:
            derivs = history_derivatives(system, blocks, t, h)
        outputs = []
        for m in (pair.low, pair.high):
            m_derivs = None if derivs is None else derivs[:, : m.steps]
            outputs.append(advance_batch(m, system, t, blocks[:, : m.steps], m_derivs, h))
        u_low, u_high = outputs
    gamma = np.maximum(innovation_covariance(u_low, u_high, pair.tau), pair.eps_floor)
    return u_low, gamma
