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


# Floats of newest blocks `diagnostics` gathers for one batched moment
# reduction. A batch of two or more steps then holds at most 2^13 floats per
# step, which numpy's einsum sums in the order of a one-step einsum (past its
# 8192-element buffer a d = 1 batch sums in another order, and the means
# change in the last bits).
MOMENT_BUDGET = 2**14


def _batch_moments(buffer: np.ndarray, weights: list):
    """Weighted means and population variances (T, d) of a batch of T steps.

    ``weights`` holds the steps' (N,) weight arrays and the first T rows of
    ``buffer`` (., N, d) contiguous copies of their newest blocks (on the
    strided newest-block view of an r >= 2 history, einsum differs in the
    last bits). The variances are taken in place, so those rows are
    overwritten.
    """
    values = buffer[: len(weights)]
    # a one-step batch (N*d above the budget) reads its weights in place
    w = weights[0][None] if len(weights) == 1 else np.array(weights)
    mean = np.einsum("tn,tnd->td", w, values)
    values -= mean[:, None, :]
    values *= values
    return mean, np.einsum("tn,tnd->td", w, values)


def diagnostics(
    run: Iterable[Ensemble], exact: Callable[[float], np.ndarray]
) -> RunDiagnostics:
    """Assemble error/variance sequences for a filter run against the truth.

    ``run`` is read once, in order, so it may be a generator such as
    `iter_filter`; of each ensemble only its weights and a copy of its
    newest block are kept. The copies fill one buffer of `MOMENT_BUDGET`
    floats (one step when N*d exceeds it), allocated once per run, and each
    full buffer, and the last, is reduced in one batch; the means and
    variances are bit for bit those of one weighted einsum per step.
    """
    times, batches, weights = [], [], []
    values = None
    for ens in run:
        newest = ens.newest
        fits = values is not None and newest.shape == values.shape[1:]
        if not fits or len(weights) == len(values):
            if weights:
                batches.append(_batch_moments(values, weights))
            if not fits:
                n, d = newest.shape
                if n < 2:
                    raise ValueError("the weighted ensemble variance needs at least 2 particles")
                values = np.empty((max(1, MOMENT_BUDGET // (n * d)), n, d))
            weights = []
        values[len(weights)] = newest
        weights.append(ens.weights)
        times.append(ens.time)
    if not times:
        raise ValueError("the run yielded no ensemble to diagnose")
    batches.append(_batch_moments(values, weights))
    times = np.array(times)
    means = np.concatenate([mean for mean, _ in batches])
    variances = np.concatenate([var for _, var in batches])
    truth = np.array([exact(t) for t in times], dtype=float).reshape(len(times), -1)
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
