"""Filter-run diagnostics: per-step absolute error, sample variance, norms."""

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .particle_filter import Ensemble


@dataclass(frozen=True, eq=False)
class RunDiagnostics:
    """Per-step ensemble means, spreads, and errors plus their table norms.

    ``error_inf_norm`` is the max of the absolute errors over all steps and
    components; ``variance_2norm`` is the Euclidean norm of every per-step
    variance component stacked into one vector.
    """

    times: np.ndarray
    ensemble_means: np.ndarray
    sample_variances: np.ndarray
    absolute_errors: np.ndarray
    exact_values: np.ndarray
    error_inf_norm: float
    variance_2norm: float


def _moments(ensemble: Ensemble):
    """Weighted mean and population variance per component of the newest block."""
    if ensemble.n_particles < 2:
        raise ValueError("the weighted ensemble variance needs at least 2 particles")
    # the copy pins the bits of trajectory.csv: for r >= 2 the einsum on the
    # strided newest-block view differs from the contiguous copy in the last bits
    values = np.ascontiguousarray(ensemble.newest)
    mean = np.einsum("n,nd->d", ensemble.weights, values)
    diff = values - mean[None, :]
    return mean, np.einsum("n,nd->d", ensemble.weights, diff * diff)


def diagnostics(
    run: Iterable[Ensemble], exact: Callable[[float], np.ndarray]
) -> RunDiagnostics:
    """Assemble error/variance sequences for a filter run against the truth.

    ``run`` is read once, in order, so it may be a generator such as
    `iter_filter`; no ensemble is kept after its moments are taken.
    """
    times, means, variances = [], [], []
    for ens in run:
        mean, var = _moments(ens)
        times.append(ens.time)
        means.append(mean)
        variances.append(var)
    if not times:
        raise ValueError("the run yielded no ensemble to diagnose")
    times = np.array(times)
    means = np.stack(means)
    variances = np.stack(variances)
    truth = np.stack([np.atleast_1d(np.asarray(exact(t), dtype=float)) for t in times])
    errors = np.abs(means - truth)
    return RunDiagnostics(
        times=times,
        ensemble_means=means,
        sample_variances=variances,
        absolute_errors=errors,
        exact_values=truth,
        error_inf_norm=float(np.max(errors)),
        variance_2norm=float(np.linalg.norm(variances.ravel())),
    )
