"""Array kernels on the filter's hot path, vectorized in numpy."""

import numpy as np


def gaussian_logpdf_diag(y, means, var):
    """log N(y; means[n], diag(var)) for every row n.

    y: (m,), means: (N, m), var: (m,) positive. Returns (N,).
    """
    quad = (y[None, :] - means) ** 2 / var[None, :]
    const = np.sum(np.log(2.0 * np.pi * var))
    return -0.5 * (np.sum(quad, axis=1) + const)


def normalize_log_weights(logw):
    """Stable softmax of log weights. Caller guards against all -inf."""
    m = np.max(logw)
    w = np.exp(logw - m)
    return w / np.sum(w)


def inverse_cdf_indices(cumw, us):
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


def weighted_mean_var(values, weights):
    """Weighted mean and population variance per component.

    values: (N, d), weights: (N,) summing to 1. Returns ((d,), (d,)).
    """
    mean = np.einsum("n,nd->d", weights, values)
    diff = values - mean[None, :]
    var = np.einsum("n,nd->d", weights, diff * diff)
    return mean, var


def multistep_combine(states, derivs, alpha, beta, h):
    """Explicit part of a multistep update, batched over particles.

    out[n] = sum_i alpha[i]*states[n, i] + h * sum_i beta[i]*derivs[n, i]
    states/derivs: (N, r, d); alpha/beta: (r,). Returns (N, d).
    """
    out = np.einsum("i,nid->nd", alpha, states)
    if np.any(beta):
        out = out + h * np.einsum("i,nid->nd", beta, derivs)
    return out
