"""Array kernels on the filter's hot path.

Each kernel has a vectorized numpy implementation (``*_numpy``) and a
loop-style numba twin (``*_jit``). The public name dispatches on the
``LMMPF_NUMBA`` environment flag, resolved once at import in `_accel`.
Both variants are kept parity-tested.
"""

import numpy as np

from ._accel import NUMBA_ACTIVE, njit

# ---------------------------------------------------------------- numpy path


def gaussian_logpdf_diag_numpy(y, means, var):
    """log N(y; means[n], diag(var)) for every row n.

    y: (m,), means: (N, m), var: (m,) positive. Returns (N,).
    """
    quad = (y[None, :] - means) ** 2 / var[None, :]
    const = np.sum(np.log(2.0 * np.pi * var))
    return -0.5 * (np.sum(quad, axis=1) + const)


def normalize_log_weights_numpy(logw):
    """Stable softmax of log weights. Caller guards against all -inf."""
    m = np.max(logw)
    w = np.exp(logw - m)
    return w / np.sum(w)


def inverse_cdf_indices_numpy(cumw, us):
    """Ancestor indices: smallest k with cumw[k] > u, for each u in us.

    The uniforms are looked up in sorted order, so successive binary
    searches walk the CDF forwards and stay in cache, then scattered back
    to their own positions; each lookup is elementwise, so the result is
    the same as searching ``us`` as given.
    """
    order = np.argsort(us)
    idx = np.empty(us.shape[0], dtype=np.int64)
    idx[order] = np.searchsorted(cumw, us[order], side="right")
    return np.minimum(idx, cumw.shape[0] - 1, out=idx)


def weighted_mean_var_numpy(values, weights):
    """Weighted mean and population variance per component.

    values: (N, d), weights: (N,) summing to 1. Returns ((d,), (d,)).
    """
    mean = np.einsum("n,nd->d", weights, values)
    diff = values - mean[None, :]
    var = np.einsum("n,nd->d", weights, diff * diff)
    return mean, var


def multistep_combine_numpy(states, derivs, alpha, beta, h):
    """Explicit part of a multistep update, batched over particles.

    out[n] = sum_i alpha[i]*states[n, i] + h * sum_i beta[i]*derivs[n, i]
    states/derivs: (N, r, d); alpha/beta: (r,). Returns (N, d).
    """
    out = np.einsum("i,nid->nd", alpha, states)
    if np.any(beta):
        out = out + h * np.einsum("i,nid->nd", beta, derivs)
    return out


# ----------------------------------------------------------------- jit twins


@njit(cache=True)
def gaussian_logpdf_diag_jit(y, means, var):
    n, m = means.shape
    const = 0.0
    for j in range(m):
        const += np.log(2.0 * np.pi * var[j])
    out = np.empty(n)
    for i in range(n):
        quad = 0.0
        for j in range(m):
            diff = y[j] - means[i, j]
            quad += diff * diff / var[j]
        out[i] = -0.5 * (quad + const)
    return out


@njit(cache=True)
def normalize_log_weights_jit(logw):
    n = logw.shape[0]
    m = logw[0]
    for i in range(1, n):
        if logw[i] > m:
            m = logw[i]
    w = np.empty(n)
    total = 0.0
    for i in range(n):
        w[i] = np.exp(logw[i] - m)
        total += w[i]
    for i in range(n):
        w[i] /= total
    return w


@njit(cache=True)
def inverse_cdf_indices_jit(cumw, us):
    n = cumw.shape[0]
    out = np.empty(us.shape[0], dtype=np.int64)
    for i in range(us.shape[0]):
        lo, hi = 0, n
        u = us[i]
        while lo < hi:
            mid = (lo + hi) // 2
            if cumw[mid] <= u:
                lo = mid + 1
            else:
                hi = mid
        out[i] = min(lo, n - 1)
    return out


@njit(cache=True)
def weighted_mean_var_jit(values, weights):
    n, d = values.shape
    mean = np.zeros(d)
    for i in range(n):
        for k in range(d):
            mean[k] += weights[i] * values[i, k]
    var = np.zeros(d)
    for i in range(n):
        for k in range(d):
            diff = values[i, k] - mean[k]
            var[k] += weights[i] * diff * diff
    return mean, var


@njit(cache=True)
def multistep_combine_jit(states, derivs, alpha, beta, h):
    n, r, d = states.shape
    out = np.zeros((n, d))
    for i in range(n):
        for j in range(r):
            a = alpha[j]
            b = beta[j]
            for k in range(d):
                out[i, k] += a * states[i, j, k] + h * b * derivs[i, j, k]
    return out


# ------------------------------------------------------------------ dispatch

if NUMBA_ACTIVE:
    gaussian_logpdf_diag = gaussian_logpdf_diag_jit
    normalize_log_weights = normalize_log_weights_jit
    inverse_cdf_indices = inverse_cdf_indices_jit
    weighted_mean_var = weighted_mean_var_jit
    multistep_combine = multistep_combine_jit
else:
    gaussian_logpdf_diag = gaussian_logpdf_diag_numpy
    normalize_log_weights = normalize_log_weights_numpy
    inverse_cdf_indices = inverse_cdf_indices_numpy
    weighted_mean_var = weighted_mean_var_numpy
    multistep_combine = multistep_combine_numpy


def warmup():
    """Trigger JIT compilation on tiny inputs (no-op on the numpy path)."""
    y = np.zeros(1)
    means = np.zeros((2, 1))
    var = np.ones(1)
    gaussian_logpdf_diag(y, means, var)
    normalize_log_weights(np.zeros(2))
    inverse_cdf_indices(np.array([0.5, 1.0]), np.array([0.2, 0.7]))
    weighted_mean_var(np.zeros((2, 1)), np.full(2, 0.5))
    multistep_combine(np.zeros((2, 1, 1)), np.zeros((2, 1, 1)), np.ones(1), np.ones(1), 0.1)
