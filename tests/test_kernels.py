"""The hot-path array kernels, through the functions that run them, against
plain-loop and exact-sum references."""

import bisect
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import moments
from lmmpf.homec import make_pair
from lmmpf.integrators import Family, MethodSpec, linear_rows, step_rows
from lmmpf.ode_models import OdeSystem
from lmmpf.particle_filter import (
    _BUCKETED_MIN, Ensemble, _normalized_weights, inverse_cdf_indices,
)
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


def test_log_likelihood_constant_is_computed_once_and_follows_replace(rng):
    # bit for bit the per-call formula, also for a model whose variance replace() changed
    y = rng.normal(size=3)
    means = rng.normal(size=(50, 3))
    model = observation_model(rng.uniform(0.1, 2.0, size=3))
    scaled = dataclasses.replace(model, measurement_var=7.0 * model.measurement_var)
    for m in (model, scaled):
        var = m.measurement_var
        quad = (y[None, :] - means) ** 2 / var[None, :]
        expected = -0.5 * (np.sum(quad, axis=1) + np.sum(np.log(2 * np.pi * var)))
        assert m.log_likelihood_batch(y, means).tobytes() == expected.tobytes()
    assert not np.array_equal(
        model.log_likelihood_batch(y, means), scaled.log_likelihood_batch(y, means)
    )


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


def _weights(kind, rng, n):
    if kind == "flat":
        return np.ones(n)
    if kind == "log-normal":
        return np.exp(3.0 * rng.standard_normal(n))
    if kind == "plateaus":  # runs of zero-weight particles, ties in cumw
        w = rng.random(n) * (rng.random(n) < 0.05)
    elif kind == "one-hot":
        w = np.zeros(n)
    else:  # three spikes over a near-degenerate floor
        w = np.full(n, 1e-300)
        w[rng.integers(n, size=3)] = 1.0
    w[rng.integers(n)] = 1.0
    return w


@st.composite
def cdf_lookups(draw):
    """(cumw, us): a CDF of n particles on either side of the bucketed lookup's
    threshold and m != n uniforms, ties and edges among them."""
    n = draw(st.sampled_from([1, 2, 7, _BUCKETED_MIN - 1, _BUCKETED_MIN, _BUCKETED_MIN + 1])
             | st.integers(1, _BUCKETED_MIN) | st.integers(_BUCKETED_MIN, 4 * _BUCKETED_MIN))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = _weights(draw(st.sampled_from(["flat", "log-normal", "plateaus", "one-hot", "spikes"])),
                 rng, n)
    cumw = np.cumsum(w / w.sum())
    # every end is a positive scaling or a shift of a sorted cumw, so it stays sorted
    end = draw(st.sampled_from(["summed", "one", "just-below-1", "just-above-1", "scaled",
                                "shifted-below-0"]))
    if end == "one":
        cumw /= cumw[-1]
    elif end == "just-below-1":
        cumw *= np.nextafter(1.0, 0.0) / cumw[-1]
    elif end == "just-above-1":
        cumw *= 1.0 + 4 * np.finfo(float).eps
    elif end == "scaled":
        cumw *= 10.0 ** draw(st.sampled_from([-320, -310, 300]) | st.integers(-320, 300))
    elif end == "shifted-below-0":
        cumw -= 0.5
    m = draw(st.integers(0, 3 * _BUCKETED_MIN))
    draws = draw(st.sampled_from(["multinomial", "systematic", "on-steps"]))
    if draws == "multinomial":
        us = rng.random(m)
    elif draws == "systematic":
        us = (rng.random() + np.arange(m)) / max(m, 1)
    else:
        us = cumw[rng.integers(n, size=m)]
    if draw(st.booleans()):
        edges = [0.0, 1.0, np.nextafter(1.0, 0.0), cumw[0], cumw[-1], np.nextafter(cumw[-1], 0.0),
                 np.nextafter(cumw[-1], 2.0)]
        us = rng.permutation(np.concatenate([us, edges]))
    return cumw, us


@settings(deadline=None, database=None, max_examples=300)
@given(cdf_lookups())
def test_inverse_cdf_is_the_clamped_right_search_and_writes_nothing(lookup):
    cumw, us = lookup
    cumw_before, us_before = cumw.copy(), us.copy()
    cumw.flags.writeable = us.flags.writeable = False
    idx = inverse_cdf_indices(cumw, us)
    assert idx.dtype == np.int64 and idx.shape == us.shape
    assert np.array_equal(idx, _inverse_cdf_reference(cumw, us))
    assert cumw.tobytes() == cumw_before.tobytes() and us.tobytes() == us_before.tobytes()


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
    a = linear_rows(step_rows((spec,), spec.steps), states, derivs, 0.1)[0]
    ref = np.einsum("i,nid->nd", alpha, states) + 0.1 * np.einsum("i,nid->nd", beta, derivs)
    assert np.allclose(a, ref, rtol=1e-12, atol=1e-14)

