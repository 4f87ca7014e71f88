"""End-to-end coverage for vector-valued systems (d > 1)."""

import numpy as np
import pytest

from conftest import integrate_trajectory, moments
from lmmpf.experiment import ResultsTable, emit_outputs
from lmmpf.homec import make_pair
from lmmpf.integrators import Family, make_method
from lmmpf.metrics import diagnostics
from lmmpf.ode_models import ObservationRecord, OdeSystem, TestProblem, synthesize_observations
from lmmpf.particle_filter import FilterConfig, run_filter
from lmmpf.state_space import EvolutionObservationModel


def two_state_problem():
    # independent linear decay per component: exact solution known
    rates = np.array([0.5, 2.0])

    def rhs(t, u, params):
        return -rates * u

    def exact(t):
        return np.exp(-rates * t)

    system = OdeSystem(dimension=2, rhs=rhs, vectorized=True, name="two_state")
    return TestProblem(
        system=system,
        initial_state=np.array([1.0, 1.0]),
        t_span=(0.0, 2.0),
        exact_solution=exact,
        name="two_state",
    )


@pytest.mark.parametrize(
    "family,order",
    [(Family.ADAMS_BASHFORTH, 3), (Family.ADAMS_MOULTON, 2), (Family.BDF, 2)],
)
def test_integration_two_components(family, order):
    p = two_state_problem()
    m = make_method(family, order)
    times, states = integrate_trajectory(m, p, 0.05, 2.0)
    exact = np.stack([p.exact_solution(t) for t in times])
    assert np.max(np.abs(states - exact)) < 2e-3


def test_filter_two_components_partial_observation():
    p = two_state_problem()
    model = EvolutionObservationModel(
        system=p.system,
        pair=make_pair("AB1-AB2"),
        measurement_var=np.array([1e-4]),
        observed_indices=np.array([1]),  # observe only the fast component
    )
    cfg = FilterConfig(n_particles=80, initial_variance=1e-4, step=0.1, pair=model.pair, seed=3)
    records = [
        ObservationRecord(time_index=k, time=0.1 * k, value=p.exact_solution(0.1 * k)[[1]])
        for k in range(1, 21)
    ]
    run = run_filter(cfg, model, records, p.initial_state, t_start=0.0)
    assert run[-1].states.shape == (80, 2, 2)
    d = diagnostics(run, p.exact_solution)
    assert d.ensemble_means.shape == (21, 2)
    # both components stay near the truth; the unobserved one leans on the prior
    assert d.error_inf_norm < 0.2


def test_synthesized_partial_observations_feed_a_partial_observation_model():
    p = two_state_problem()
    times = [0.1 * k for k in range(1, 11)]
    records = synthesize_observations(p, times, 0.0, np.random.default_rng(0), observed_indices=[0])
    assert [r.value.shape for r in records] == [(1,)] * len(times)
    for rec, t in zip(records, times):
        assert np.array_equal(rec.value, p.exact_solution(t)[[0]])
    # the noise is drawn for the selected component only
    noisy = synthesize_observations(p, times, 0.1, np.random.default_rng(1), observed_indices=[0])
    draws = 0.1 * np.random.default_rng(1).standard_normal((len(times), 1))
    assert np.allclose([r.value for r in noisy], [r.value + e for r, e in zip(records, draws)])
    model = EvolutionObservationModel(
        system=p.system,
        pair=make_pair("AB1-AB2"),
        measurement_var=np.array([1e-2]),
        observed_indices=[0],
    )
    cfg = FilterConfig(n_particles=40, initial_variance=1e-4, step=0.1, pair=model.pair, seed=2)
    run = run_filter(cfg, model, noisy, p.initial_state, t_start=0.0)
    assert len(run) == 11 and run[-1].states.shape == (40, 2, 2)


def test_trajectory_csv_multidim_columns(tmp_path):
    p = two_state_problem()
    model = EvolutionObservationModel(
        system=p.system, pair=make_pair("BDF1-BDF2"), measurement_var=np.array([1e-4, 1e-4])
    )
    cfg = FilterConfig(n_particles=30, initial_variance=1e-4, step=0.1, pair=model.pair, seed=4)
    records = [
        ObservationRecord(time_index=k, time=0.1 * k, value=p.exact_solution(0.1 * k))
        for k in range(1, 6)
    ]
    run = run_filter(cfg, model, records, p.initial_state, t_start=0.0)
    d = diagnostics(run, p.exact_solution)
    manifest = emit_outputs(ResultsTable(rows=[]), [d], str(tmp_path))
    header = open(manifest[1]).readline().strip()
    assert header == (
        "t,mean_0,mean_1,exact_0,exact_1,abs_error_0,abs_error_1,variance_0,variance_1"
    )


def test_weighted_mean_two_components():
    p = two_state_problem()
    model = EvolutionObservationModel(
        system=p.system, pair=make_pair("AM1-AM2"), measurement_var=np.array([1e-4, 1e-4])
    )
    cfg = FilterConfig(n_particles=50, initial_variance=1e-6, step=0.1, pair=model.pair, seed=9)
    records = [
        ObservationRecord(time_index=1, time=0.1, value=p.exact_solution(0.1))
    ]
    run = run_filter(cfg, model, records, p.initial_state, t_start=0.0)
    mean = moments(run[-1])[0]
    assert mean.shape == (2,)
    assert np.allclose(mean, p.exact_solution(0.1), atol=0.05)
