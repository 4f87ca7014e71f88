import numpy as np
import pytest

from conftest import moments
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
