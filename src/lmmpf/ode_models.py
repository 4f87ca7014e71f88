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
    propagation uses.
    """

    dimension: int
    rhs: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    params: np.ndarray = field(default_factory=lambda: np.zeros(0))
    vectorized: bool = False
    name: str = ""

    def __call__(self, t: float, u: np.ndarray) -> np.ndarray:
        return np.asarray(self.rhs(t, np.asarray(u, dtype=float), self.params), dtype=float)

    def rhs_batch(self, t: float, states: np.ndarray) -> np.ndarray:
        """Evaluate the rhs for a batch of states with shape (N, d)."""
        states = np.asarray(states, dtype=float)
        if self.vectorized:
            return np.asarray(self.rhs(t, states, self.params), dtype=float)
        return np.stack([self(t, row) for row in states])


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
    """One noisy measurement b_j at step index j."""

    time_index: int
    time: float
    value: np.ndarray


def smooth_problem() -> TestProblem:
    """Scalar problem x' = cos^2(x), x(0) = 0, with exact solution arctan(t)."""

    def rhs(t, u, params):
        return np.cos(u) ** 2

    def exact(t):
        return np.array([np.arctan(t)])

    system = OdeSystem(dimension=1, rhs=rhs, vectorized=True, name="smooth")
    return TestProblem(
        system=system,
        initial_state=np.array([0.0]),
        t_span=(0.0, 5.0),
        exact_solution=exact,
        name="smooth",
    )


def gaussian_decay_problem() -> TestProblem:
    """Scalar problem x' = -2(t-1)x, x(0) = 1, with exact solution exp(-t(t-2))."""

    def rhs(t, u, params):
        return -2.0 * (t - 1.0) * u

    def exact(t):
        return np.array([np.exp(-t * (t - 2.0))])

    system = OdeSystem(dimension=1, rhs=rhs, vectorized=True, name="gaussian_decay")
    return TestProblem(
        system=system,
        initial_state=np.array([1.0]),
        t_span=(0.0, 5.0),
        exact_solution=exact,
        name="gaussian_decay",
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
    A fixed generator state gives bit-identical output.
    """
    if problem.exact_solution is None:
        raise ValueError("no ground truth available")
    times = np.asarray(times, dtype=float)
    exact = np.stack([problem.exact_solution(t) for t in times])
    if observed_indices is not None:
        exact = exact[:, np.asarray(observed_indices, dtype=int)]
    noise = noise_stddev * rng.standard_normal(exact.shape)
    values = exact + noise
    if time_indices is None:
        time_indices = range(len(times))
    records = [
        ObservationRecord(time_index=int(j), time=float(t), value=values[i])
        for i, (j, t) in enumerate(zip(time_indices, times))
    ]
    for a, b in zip(records, records[1:]):
        if b.time_index <= a.time_index:
            raise ValueError("observation time indices must be strictly increasing")
    return records
