"""Discrete-time evolution-observation model built on the integrator pair.

The r most recent states of a multistep scheme are stacked into one block
vector, turning the r-step recursion into a first-order Markov transition.
Each step adds one entry, the newest block: the low-order step of the pair
(`homec.propagate_blocks`) plus the innovation. The older blocks shift back
by one and the oldest drops out; the filter's shift lives in one place,
`particle_filter.innovation_step`.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .homec import MethodPair
from .ode_models import OdeSystem


@dataclass(frozen=True)
class EvolutionObservationModel:
    """Propagation by a method pair plus a diagonal-Gaussian observation map.

    The observation selects components of the newest block
    (``observed_indices`` None observes the full state).
    """

    system: OdeSystem
    pair: MethodPair
    measurement_var: np.ndarray
    observed_indices: Optional[np.ndarray] = None

    def __post_init__(self):
        var = np.atleast_1d(np.asarray(self.measurement_var, dtype=float))
        if not np.all((0.0 < var) & (var < np.inf)):
            raise ValueError("measurement covariance diagonal must be positive and finite")
        object.__setattr__(self, "measurement_var", var)
        m = d = self.system.dimension
        if self.observed_indices is not None:
            indices = np.asarray(self.observed_indices, dtype=int)
            outside = indices[(indices < 0) | (indices >= d)]
            if outside.size:
                raise ValueError(f"observed index {outside[0]} is outside 0..{d - 1} (d={d})")
            object.__setattr__(self, "observed_indices", indices)
            m = len(indices)
        if var.shape != (m,):
            raise ValueError(
                f"measurement_var has shape {var.shape}; the observation has {m} components"
            )

    def observe_newest(self, newest: np.ndarray) -> np.ndarray:
        """Apply the observation map to newest blocks of shape (..., d)."""
        if self.observed_indices is None:
            return newest
        return newest[..., self.observed_indices]

    def log_likelihood_batch(self, y: np.ndarray, newest: np.ndarray) -> np.ndarray:
        """log N(y; G(state), diag(measurement_var)) for a batch of newest blocks (N, d).

        Returns (N,).
        """
        var = self.measurement_var
        residual = np.asarray(y, dtype=float)[None, :] - self.observe_newest(newest)
        quad = residual**2 / var[None, :]
        return -0.5 * (np.sum(quad, axis=1) + np.sum(np.log(2.0 * np.pi * var)))
