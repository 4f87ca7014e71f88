"""The hot-path array kernels, through the functions that run them, against
plain-loop and exact-sum references."""

import bisect
import math

import numpy as np
import pytest

from conftest import moments
from lmmpf.homec import make_pair
from lmmpf.integrators import Family, MethodSpec, explicit_step_batch
from lmmpf.ode_models import OdeSystem
from lmmpf.particle_filter import Ensemble, _normalized_weights, inverse_cdf_indices
from lmmpf.state_space import EvolutionObservationModel


@pytest.fixture
def rng():
    return np.random.default_rng(2718)


def observation_model(var):
    """A model observing all len(var) components with measurement variance var."""
    system = OdeSystem(dimension=len(var), rhs=lambda t, u, p: -u, vectorized=True)
    return EvolutionObservationModel(
        system=system, pair=make_pair("AB1-AB2"), measurement_var=var
    )


def newest_ensemble(values, weights):
    """One-block ensemble whose newest states are ``values`` (N, d)."""
    return Ensemble(states=values[:, None, :], weights=weights, time_index=0, time=0.0)


def test_gaussian_logpdf_parity(rng):
    y = rng.normal(size=3)
    means = rng.normal(size=(50, 3))
    var = rng.uniform(0.1, 2.0, size=3)
    a = observation_model(var).log_likelihood_batch(y, means)
    const = sum(math.log(2.0 * math.pi * v) for v in var)
    b = [-0.5 * (sum((yj - mj) ** 2 / v for yj, mj, v in zip(y, row, var)) + const) for row in means]
    assert np.allclose(a, b, rtol=1e-13, atol=1e-13)


def test_gaussian_logpdf_reference(rng):
    y = np.array([0.3])
    means = np.array([[0.3], [1.3]])
    var = np.array([1.0])
    out = observation_model(var).log_likelihood_batch(y, means)
    assert out[0] == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)
    assert out[1] == pytest.approx(-0.5 * np.log(2 * np.pi) - 0.5, abs=1e-12)


def test_normalize_log_weights_parity(rng):
    logw = rng.normal(size=200) * 50.0
    a = _normalized_weights(logw, 0, 0.0, np.zeros((logw.size, 1)), "states")
    m = max(logw)
    b = [math.exp(x - m) for x in logw]
    total = math.fsum(b)
    assert np.allclose(a, [x / total for x in b], rtol=1e-12)
    assert abs(a.sum() - 1.0) < 1e-12


def test_normalize_log_weights_extreme():
    logw = np.array([-1e308, 0.0, -1e308])
    out = _normalized_weights(logw, 0, 0.0, np.zeros((3, 1)), "states")
    assert out[1] == pytest.approx(1.0)


def test_inverse_cdf_parity(rng):
    w = rng.uniform(0.0, 1.0, size=64)
    w /= w.sum()
    cum = np.cumsum(w)
    us = rng.random(500)
    a = inverse_cdf_indices(cum, us)
    b = [min(bisect.bisect_right(cum.tolist(), u), cum.shape[0] - 1) for u in us]
    assert np.array_equal(a, b)


def test_inverse_cdf_boundaries():
    cum = np.array([0.25, 0.5, 1.0])
    us = np.array([0.0, 0.25, 0.49999, 0.5, 0.99999])
    idx = inverse_cdf_indices(cum, us)
    assert list(idx) == [0, 1, 1, 2, 2]


def _inverse_cdf_reference(cum, us):
    return np.minimum(np.searchsorted(cum, us, side="right"), cum.shape[0] - 1)


@pytest.mark.parametrize("order", ["unsorted", "sorted", "tied"])
def test_inverse_cdf_matches_plain_search(rng, order):
    w = rng.uniform(0.0, 1.0, size=97)
    w[[3, 40, 41]] = 0.0  # zero-weight particles are never drawn
    cum = np.cumsum(w / w.sum())
    us = rng.random(1000)
    if order == "sorted":
        us.sort()
    elif order == "tied":
        us = np.repeat(us[:50], 20)
        us[::7] = cum[10]  # exactly on a CDF step
        rng.shuffle(us)
    idx = inverse_cdf_indices(cum, us)
    assert idx.dtype == np.int64
    assert np.array_equal(idx, _inverse_cdf_reference(cum, us))


def test_inverse_cdf_clamps_at_and_beyond_last_step():
    cum = np.cumsum(np.full(10, 0.1))  # cum[-1] rounds just below 1.0
    us = np.array([cum[-1], 1.0, 0.5, np.nextafter(cum[-1], 2.0), 0.0])
    idx = inverse_cdf_indices(cum, us)
    assert np.array_equal(idx, _inverse_cdf_reference(cum, us))
    assert list(idx[[0, 1, 3]]) == [9, 9, 9]


def test_inverse_cdf_single_particle(rng):
    cum = np.array([1.0])
    us = np.concatenate([rng.random(5), [1.0]])
    idx = inverse_cdf_indices(cum, us)
    assert np.array_equal(idx, np.zeros(6, dtype=np.int64))


def test_weighted_mean_var_matches_exact_sums(rng):
    values = 3.0 + rng.normal(size=(2000, 3))
    w = rng.uniform(0.0, 1.0, size=2000)
    w /= w.sum()
    ens = newest_ensemble(values, w)
    mean, var = moments(ens)
    for k in range(3):
        col = values[:, k].tolist()
        ref_mean = math.fsum(wi * x for wi, x in zip(w.tolist(), col))
        ref_var = math.fsum(wi * (x - ref_mean) ** 2 for wi, x in zip(w.tolist(), col))
        assert mean[k] == pytest.approx(ref_mean, rel=1e-14, abs=0.0)
        assert var[k] == pytest.approx(ref_var, rel=1e-14, abs=0.0)


def test_weighted_mean_var_parity(rng):
    values = rng.normal(size=(80, 3))
    w = rng.uniform(0.1, 1.0, size=80)
    w /= w.sum()
    ens = newest_ensemble(values, w)
    m1, v1 = moments(ens)
    # reference via einsum
    ref_mean = np.einsum("n,nd->d", w, values)
    diff = values - ref_mean
    ref_var = np.einsum("n,nd->d", w, diff * diff)
    assert np.allclose(m1, ref_mean, rtol=1e-12)
    assert np.allclose(v1, ref_var, rtol=1e-12)


def test_multistep_combine_parity(rng):
    states = rng.normal(size=(40, 3, 2))
    derivs = rng.normal(size=(40, 3, 2))
    alpha = rng.normal(size=3)
    beta = rng.normal(size=3)
    spec = MethodSpec(Family.ADAMS_BASHFORTH, order=3, alpha=alpha, beta=beta)
    a = explicit_step_batch(spec, states, derivs, 0.1)
    ref = np.einsum("i,nid->nd", alpha, states) + 0.1 * np.einsum("i,nid->nd", beta, derivs)
    assert np.allclose(a, ref, rtol=1e-12, atol=1e-14)

