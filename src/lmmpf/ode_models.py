"""ODE test systems, exact solutions, and synthetic observation generation."""

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class OdeSystem:
    """Right-hand side du/dt = f(t, u, params) of dimension d.

    ``rhs`` must be deterministic and return a vector of length ``dimension``.
    When ``vectorized`` is true, ``rhs`` also accepts states of shape
    (..., d) and maps over the leading axes, which is what the ensemble
    propagation uses; otherwise `rhs_batch` calls it once per row.
    """

    dimension: int
    rhs: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    params: np.ndarray = field(default_factory=lambda: np.zeros(0))
    vectorized: bool = False
    name: str = ""

    def __call__(self, t: float, u: np.ndarray) -> np.ndarray:
        return np.asarray(self.rhs(t, np.asarray(u, dtype=float), self.params), dtype=float)

    def rhs_batch(self, t: float, states: np.ndarray) -> np.ndarray:
        """Evaluate the rhs for a batch of states (N, d); the result has their shape."""
        states = np.asarray(states, dtype=float)
        if self.vectorized:
            out = np.asarray(self.rhs(t, states, self.params), dtype=float)
        else:  # an empty batch builds from ``states``, keeping its shape (0, d)
            rows = [self.rhs(t, row, self.params) for row in states] or states
            try:
                out = np.array(rows, dtype=float)
            except ValueError:  # rows of different lengths do not stack
                out = None
        if out is None or out.shape != states.shape:
            returned = "rows that do not stack" if out is None else f"shape {out.shape}"
            raise ValueError(
                f"rhs of system {self.name!r} (d={self.dimension}) at t={t:.6g} returned "
                f"{returned}, expected {states.shape}"
            )
        return out


@dataclass(frozen=True)
class TestProblem:
    """An initial-value problem, optionally with a known exact solution."""

    __test__ = False  # a library class, not a pytest test class

    system: OdeSystem
    initial_state: np.ndarray
    t_span: tuple
    exact_solution: Optional[Callable[[float], np.ndarray]] = None
    name: str = ""

    def __post_init__(self):
        if self.exact_solution is not None:
            x0 = self.exact_solution(self.t_span[0])
            if not np.allclose(x0, self.initial_state, atol=1e-12, rtol=0.0):
                raise ValueError("exact_solution(t_start) does not match initial_state")


@dataclass(frozen=True)
class ObservationRecord:
    """One noisy measurement b_j at time ``time``.

    The filter keys each record by the grid step of ``time`` and never reads
    ``time_index``, which is a label only. `synthesize_observations` labels
    records 0, 1, ... by default, one below the grid step of observations
    at h, 2h, ....
    """

    time_index: int
    time: float
    value: np.ndarray


def checked_observed_indices(indices, d: int) -> np.ndarray:
    """``indices`` as an int array; each must select a component 0..d-1 of a state."""
    indices = np.asarray(indices, dtype=int)
    outside = indices[(indices < 0) | (indices >= d)]
    if outside.size:
        raise ValueError(f"observed index {outside[0]} is outside 0..{d - 1} (d={d})")
    return indices


def _vectorized_problem(name: str, rhs: Callable, exact: Callable) -> TestProblem:
    """Problem ``name`` with a vectorized rhs on [0, 5], started on its exact solution."""
    x0 = exact(0.0)
    system = OdeSystem(dimension=len(x0), rhs=rhs, vectorized=True, name=name)
    return TestProblem(system, x0, (0.0, 5.0), exact_solution=exact, name=name)


def smooth_problem() -> TestProblem:
    """Scalar problem x' = cos^2(x), x(0) = 0, with exact solution arctan(t)."""
    return _vectorized_problem(
        "smooth", lambda t, u, params: np.cos(u) ** 2, lambda t: np.array([np.arctan(t)])
    )


def gaussian_decay_problem() -> TestProblem:
    """Scalar problem x' = -2(t-1)x, x(0) = 1, with exact solution exp(-t(t-2))."""
    return _vectorized_problem(
        "gaussian_decay",
        lambda t, u, params: -2.0 * (t - 1.0) * u,
        lambda t: np.array([np.exp(-t * (t - 2.0))]),
    )


PROBLEMS = {
    "smooth": smooth_problem,
    "gaussian_decay": gaussian_decay_problem,
}


def get_problem(name: str) -> TestProblem:
    try:
        return PROBLEMS[name]()
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; valid problems: {', '.join(sorted(PROBLEMS))}"
        ) from None


def synthesize_observations(
    problem: TestProblem,
    times: Sequence[float],
    noise_stddev: float,
    rng: np.random.Generator,
    observed_indices: Optional[np.ndarray] = None,
    time_indices: Optional[Sequence[int]] = None,
) -> list:
    """Generate b_j = G(x_exact(t_j)) + e_j with iid Gaussian noise.

    ``observed_indices`` selects state components (None observes all of them);
    ``time_indices`` attaches explicit step indices, defaulting to 0,1,2,...
    The filter never reads them: it keys each record by the grid step of its
    time, so the default labels of observations at h, 2h, ... sit one below
    their grid steps 1, 2, .... A fixed generator state gives bit-identical
    output.
    """
    if problem.exact_solution is None:
        raise ValueError("no ground truth available")
    times = np.asarray(times, dtype=float)
    if time_indices is None:
        time_indices = range(len(times))
    if len(time_indices) != len(times):
        raise ValueError(f"{len(time_indices)} time_indices for {len(times)} times")
    exact = np.stack([problem.exact_solution(t) for t in times])
    if observed_indices is not None:
        exact = exact[:, checked_observed_indices(observed_indices, problem.system.dimension)]
    noise = noise_stddev * rng.standard_normal(exact.shape)
    values = exact + noise
    records = [
        ObservationRecord(time_index=int(j), time=float(t), value=values[i])
        for i, (j, t) in enumerate(zip(time_indices, times))
    ]
    for a, b in zip(records, records[1:]):
        if b.time_index <= a.time_index:
            raise ValueError("observation time indices must be strictly increasing")
    return records
