import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import moments
from lmmpf import metrics
from lmmpf.experiment import ExperimentConfig, run_replicate
from lmmpf.metrics import diagnostics
from lmmpf.particle_filter import Ensemble


def ens_from(values, weights=None, time=0.0):
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=float)
    return Ensemble(states=values[:, None, None], weights=w, time_index=0, time=time)


def test_mean_constant_ensemble():
    assert moments(ens_from([3.0, 3.0, 3.0]))[0][0] == 3.0


def test_mean_midpoint():
    assert moments(ens_from([0.0, 1.0]))[0][0] == pytest.approx(0.5)


def test_mean_weighted():
    assert moments(ens_from([0.0, 1.0], weights=[0.25, 0.75]))[0][0] == pytest.approx(0.75)


def test_variance_constant_zero():
    assert moments(ens_from([2.0, 2.0, 2.0]))[1][0] == 0.0


def test_variance_unit():
    assert moments(ens_from([-1.0, 1.0]))[1][0] == pytest.approx(1.0)


def test_variance_translation_invariant():
    rng = np.random.default_rng(0)
    vals = rng.normal(size=30)
    a = moments(ens_from(vals))[1][0]
    b = moments(ens_from(vals + 17.5))[1][0]
    assert a == pytest.approx(b, rel=1e-9)


def test_variance_needs_two_particles():
    single = Ensemble(
        states=np.zeros((1, 1, 1)), weights=np.ones(1), time_index=0, time=0.0
    )
    with pytest.raises(ValueError, match="2 particles"):
        moments(single)


def test_diagnostics_of_an_empty_run_names_it():
    with pytest.raises(ValueError, match="the run yielded no ensemble"):
        diagnostics([], lambda t: np.array([0.0]))


def test_diagnostics_perfect_estimate():
    run = [ens_from([1.0, 1.0], time=0.0)]
    d = diagnostics(run, lambda t: np.array([1.0]))
    assert d.error_inf_norm == 0.0
    assert np.all(d.absolute_errors == 0.0)


def test_diagnostics_inf_norm_is_max():
    runs = [
        ens_from([0.1, 0.1], time=0.0),
        ens_from([0.4, 0.4], time=1.0),
        ens_from([0.2, 0.2], time=2.0),
    ]
    d = diagnostics(runs, lambda t: np.array([0.0]))
    assert d.error_inf_norm == pytest.approx(0.4)


def test_diagnostics_variance_2norm():
    # variance sequence (0.3, 0.4) -> norm 0.5; spread/mean chosen to realize it
    a = ens_from([np.sqrt(0.3), -np.sqrt(0.3)], time=0.0)
    b = ens_from([np.sqrt(0.4), -np.sqrt(0.4)], time=1.0)
    d = diagnostics([a, b], lambda t: np.array([0.0]))
    assert d.variance_2norm == pytest.approx(0.5, rel=1e-12)


def test_norms_zero_iff_zero_sequences():
    run = [ens_from([0.5, 0.5], time=0.0)]
    d = diagnostics(run, lambda t: np.array([0.5]))
    assert d.error_inf_norm == 0.0 and d.variance_2norm == 0.0
    d2 = diagnostics(run, lambda t: np.array([0.4]))
    assert d2.error_inf_norm > 0.0


def test_norms_invariant_under_time_reordering():
    seq = [
        ens_from([0.1, 0.3], time=0.0),
        ens_from([0.7, 0.2], time=1.0),
        ens_from([0.4, 0.9], time=2.0),
    ]
    d_fwd = diagnostics(seq, lambda t: np.array([t * 0.1]))
    # reorder both the ensembles and the matching truth values
    rev = list(reversed(seq))
    d_rev = diagnostics(rev, lambda t: np.array([t * 0.1]))
    assert d_fwd.error_inf_norm == pytest.approx(d_rev.error_inf_norm, rel=1e-12)
    assert d_fwd.variance_2norm == pytest.approx(d_rev.variance_2norm, rel=1e-12)


def test_diagnostics_records_exact_values():
    run = [ens_from([1.5, 1.5], time=2.0)]
    d = diagnostics(run, lambda t: np.array([t]))
    assert d.exact_values[0, 0] == 2.0
    assert d.absolute_errors[0, 0] == pytest.approx(0.5)


@pytest.mark.parametrize(
    "exact",
    [lambda t: 0.1 * t, lambda t: np.float64(0.1 * t), lambda t: np.array(0.1 * t),
     lambda t: np.array([0.1 * t]), lambda t: [0.1 * t]],
    ids=["float", "numpy-scalar", "0-d", "(1,)", "list"],
)
def test_a_truth_of_any_scalar_shape_is_one_column_per_step(exact):
    run = [ens_from([0.7, 0.2], time=1.0), ens_from([0.4, 0.9], time=3.0)]
    d = diagnostics(run, exact)
    assert d.exact_values.shape == (2, 1) and d.exact_values.dtype == float
    assert d.exact_values.tobytes() == np.array([[0.1], [0.1 * 3.0]]).tobytes()


def test_a_two_component_truth_is_one_row_per_step():
    def ens2(values, time):
        return Ensemble(states=np.asarray(values, dtype=float)[:, None, :],
                        weights=np.full(2, 0.5), time_index=0, time=time)

    run = [ens2([[1.0, 2.0], [3.0, 4.0]], 0.0), ens2([[0.0, 1.0], [2.0, 5.0]], 1.0)]
    d = diagnostics(run, lambda t: np.array([t, -t]))
    assert d.exact_values.tolist() == [[0.0, -0.0], [1.0, -1.0]]
    assert d.absolute_errors.tolist() == [[2.0, 3.0], [0.0, 4.0]]


# ------------------------------------------------------ batched moments


def former_moments(ensemble):
    """The per-step formula: one weighted einsum pair on a contiguous copy."""
    values = np.ascontiguousarray(ensemble.newest)
    mean = np.einsum("n,nd->d", ensemble.weights, values)
    diff = values - mean[None, :]
    return mean, np.einsum("n,nd->d", ensemble.weights, diff * diff)


def weights_of(kind, rng, t, n):
    w = rng.uniform(size=(t, n))
    if kind == "uniform":
        return np.full((t, n), 1.0 / n)
    if kind == "all_subnormal":  # unnormalized multiples of the smallest subnormal
        return rng.integers(1, 2**20, size=(t, n)) * 5e-324
    w /= w.sum(axis=1, keepdims=True)
    if kind == "zeros_and_subnormals":
        w[rng.random((t, n)) < 0.3] = 0.0
        w[rng.random((t, n)) < 0.2] = 2.5e-310
    return w


@st.composite
def batched_runs(draw):
    """(T, N, d, r, budget, weight kind, seed): the budget, or None for the module's
    own, puts batch ends anywhere."""
    t, n = draw(st.integers(1, 12)), draw(st.integers(2, 300))
    d, r = draw(st.sampled_from([1, 2, 3])), draw(st.sampled_from([1, 2, 3]))
    budget = draw(st.sampled_from([1, n * d, n * d + 1, 2 * n * d, 3 * n * d - 1, None]))
    kind = draw(st.sampled_from(["uniform", "random", "zeros_and_subnormals", "all_subnormal"]))
    return t, n, d, r, budget, kind, draw(st.integers(0, 2**32 - 1))


@settings(deadline=None, database=None, max_examples=60)
@given(batched_runs())
@example((3, 8192, 1, 2, None, "random", 0))  # the widest d = 1 batch of two steps
@example((3, 8193, 1, 2, None, "random", 0))  # one step per batch
@example((2, 2730, 3, 3, None, "zeros_and_subnormals", 1))
def test_batched_diagnostics_equal_the_per_step_formula_bit_for_bit(drawn):
    t, n, d, r, budget, kind, seed = drawn
    rng = np.random.default_rng(seed)
    # newest blocks of r >= 2 histories are strided views; scales differ by step and component
    states = rng.normal(size=(t, n, r, d)) * 10.0 ** rng.integers(-8, 9, size=(t, 1, 1, d))
    weights = weights_of(kind, rng, t, n)
    run = [Ensemble(states=states[k], weights=weights[k], time_index=k, time=0.1 * k)
           for k in range(t)]
    with mock.patch.object(metrics, "MOMENT_BUDGET", budget or metrics.MOMENT_BUDGET):
        d_run = diagnostics(iter(run), lambda t: np.zeros(d))
    former = [former_moments(ens) for ens in run]
    assert d_run.ensemble_means.tobytes() == np.stack([m for m, _ in former]).tobytes()
    assert d_run.sample_variances.tobytes() == np.stack([v for _, v in former]).tobytes()
    assert d_run.times.tolist() == [0.1 * k for k in range(t)]


def test_a_run_whose_ensemble_shape_changes_keeps_the_per_step_bits():
    rng = np.random.default_rng(4)
    run = [ens_from(rng.normal(size=n), time=float(k)) for k, n in enumerate([5, 5, 7, 7, 5])]
    d = diagnostics(run, lambda t: np.array([0.0]))
    former = [former_moments(ens) for ens in run]
    assert d.ensemble_means.tobytes() == np.stack([m for m, _ in former]).tobytes()
    assert d.sample_variances.tobytes() == np.stack([v for _, v in former]).tobytes()


def test_a_paper_sized_run_takes_its_moments_in_two_einsum_calls(monkeypatch):
    callers = []
    einsum = np.einsum

    def counted(*args, **kwargs):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    cfg = ExperimentConfig(problem="gaussian_decay", pair="AB3-AB4", replicates=1)
    d = run_replicate(cfg, 0)
    assert d.times.shape == (51,) and cfg.n_particles == 150
    assert callers.count("lmmpf.metrics") == 2
