import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import moments
from lmmpf import homec, particle_filter
from lmmpf.homec import make_pair
from lmmpf.integrators import step_count
from lmmpf.metrics import diagnostics
from lmmpf.ode_models import ObservationRecord, gaussian_decay_problem, smooth_problem
from lmmpf.particle_filter import (
    RESAMPLERS,
    Ensemble,
    FilterConfig,
    LikelihoodUnderflowError,
    initialize,
    innovation_step,
    iter_filter,
    propagate_ensemble,
    run_filter,
    survival_of_the_fittest,
    weight_update,
    _uniform_weights,
)
from lmmpf.state_space import EvolutionObservationModel
from lmmpf.ode_models import OdeSystem


def constant_system():
    return OdeSystem(dimension=1, rhs=lambda t, u, p: np.zeros_like(u), vectorized=True)


def make_model(pair_id="AB1-AB2", system=None, var=0.01, **pair_kw):
    if system is None:
        system = gaussian_decay_problem().system
    return EvolutionObservationModel(
        system=system,
        pair=make_pair(pair_id, **pair_kw),
        measurement_var=np.array([var]),
    )


def flat_ensemble(values, weights=None, time=0.0, r=1):
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    states = np.repeat(values[:, None, None], r, axis=1)
    w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=float)
    return Ensemble(states=states, weights=w, time_index=0, time=time)


# -------------------------------------------------------------- initialize


def test_initialize_uniform_weights():
    model = make_model()
    cfg = FilterConfig(n_particles=64, initial_variance=0.1, step=0.1, pair=model.pair)
    ens = initialize(cfg, np.array([1.0]), np.random.default_rng(0), model=model, t_start=0.0)
    assert np.all(ens.weights == 1.0 / 64)
    assert ens.states.shape == (64, 2, 1)


def test_initialize_degenerate_prior():
    model = make_model()
    cfg = FilterConfig(n_particles=150, initial_variance=1e-12, step=0.1, pair=model.pair)
    ens = initialize(cfg, np.array([1.0]), np.random.default_rng(1), model=model, t_start=0.0)
    assert moments(ens)[1][0] < 1e-10


def test_initialize_variance_in_chi_square_band():
    model = make_model()
    cfg = FilterConfig(n_particles=150, initial_variance=0.1, step=0.1, pair=model.pair)
    ens = initialize(cfg, np.array([1.0]), np.random.default_rng(7), model=model, t_start=0.0)
    assert 0.06 <= moments(ens)[1][0] <= 0.14


def test_initialize_histories_follow_each_particle():
    # older blocks must sit on each particle's own backward flow:
    # for the linear dynamics, u(-0.1) = u(0) * exp(-0.21)
    p = gaussian_decay_problem()
    model = make_model("AB1-AB2", system=p.system)
    cfg = FilterConfig(n_particles=20, initial_variance=0.01, step=0.1, pair=model.pair)
    ens = initialize(cfg, np.array([1.0]), np.random.default_rng(3), model=model, t_start=0.0)
    expected = ens.states[:, 0, 0] * np.exp(-0.21)
    assert np.allclose(ens.states[:, 1, 0], expected, rtol=1e-6)


def test_initialize_validation():
    model = make_model()
    with pytest.raises(ValueError, match="n_particles"):
        FilterConfig(n_particles=1, initial_variance=0.1, step=0.1, pair=model.pair)
    for bad in (0.0, np.nan, np.inf, [0.1], "0.1"):
        with pytest.raises(ValueError, match="initial_variance"):
            FilterConfig(n_particles=10, initial_variance=bad, step=0.1, pair=model.pair)
        with pytest.raises(ValueError, match="step"):
            FilterConfig(n_particles=10, initial_variance=0.1, step=bad, pair=model.pair)
    with pytest.raises(ValueError, match="resampler"):
        FilterConfig(
            n_particles=10, initial_variance=0.1, step=0.1, pair=model.pair, resampler="bogus"
        )


@pytest.mark.parametrize(
    "field, value", [("n_particles", 2.5), ("seed", -1), ("seed", 1.5)],
    ids=["n_particles-2.5", "seed--1", "seed-1.5"],
)
def test_filter_config_names_the_field_that_is_not_a_valid_integer(field, value):
    model = make_model()
    settings = dict(n_particles=10, initial_variance=0.1, step=0.1, pair=model.pair)
    with pytest.raises(ValueError, match=rf"{field} must be an integer >= \d, got {value}"):
        FilterConfig(**{**settings, field: value})


def test_filter_config_takes_numpy_integers():
    model = make_model()
    cfg = FilterConfig(
        n_particles=np.int64(10), initial_variance=0.1, step=0.1, pair=model.pair,
        seed=np.uint32(7),
    )
    records = [ObservationRecord(time_index=1, time=0.1, value=np.array([1.0]))]
    assert run_filter(cfg, model, records, np.array([1.0]), t_start=0.0)[-1].states.shape[0] == 10


# ------------------------------------------------------- survival (resample)


def test_survival_degenerate_fitness_copies_winner():
    model = make_model(system=constant_system(), var=1e-6)
    ens = flat_ensemble([0.0, 50.0, -50.0])
    obs = ObservationRecord(time_index=1, time=0.1, value=np.array([0.0]))
    rng = np.random.default_rng(0)
    ancestors, predictors, gammas, _ = survival_of_the_fittest(
        ens, ens.newest.copy(), np.zeros((3, 1)), obs, model, rng
    )
    assert np.all(ancestors == 0)
    out = innovation_step(
        ens, predictors, gammas, rng, time=0.1, system=model.system, ancestors=ancestors
    )
    assert np.all(out.states[:, 0, 0] == 0.0)
    assert np.all(out.weights == 1.0 / 3.0)


def test_survival_multinomial_frequencies_uniform_fitness():
    n = 10000
    model = make_model(system=constant_system(), var=1.0)
    # give each particle a unique marker, small enough for equal likelihoods
    ens = Ensemble(
        states=np.arange(n, dtype=float)[:, None, None] * 1e-12,
        weights=np.full(n, 1.0 / n),
        time_index=0,
        time=0.0,
    )
    obs = ObservationRecord(time_index=1, time=0.1, value=np.array([0.0]))
    ancestors, *_ = survival_of_the_fittest(
        ens, np.zeros((n, 1)), np.zeros((n, 1)), obs, model, np.random.default_rng(123)
    )
    markers = np.round(ens.states[ancestors, 0, 0] / 1e-12).astype(int)
    p = 1.0 / n
    band = 4.0 * math.sqrt(p * (1.0 - p) / n)
    for idx in (0, n // 2, n - 1):
        freq = np.count_nonzero(markers == idx) / n
        assert abs(freq - p) <= band


def test_systematic_resampling_exact_counts():
    # fitness (0.75, 0.25) stratified into 4 draws lands exactly (3, 1)
    from lmmpf.particle_filter import inverse_cdf_indices

    cum = np.cumsum(np.array([0.75, 0.25]))
    for seed in range(5):
        u0 = np.random.default_rng(seed).random()
        us = (u0 + np.arange(4)) / 4.0
        idx = inverse_cdf_indices(cum, us)
        assert np.count_nonzero(idx == 0) == 3
        assert np.count_nonzero(idx == 1) == 1


def test_survival_reshuffles_predictors_and_gammas_together():
    model = make_model(system=constant_system(), var=1e-8)
    ens = flat_ensemble([0.0, 7.0])
    predictors = np.array([[0.0], [7.0]])
    gammas = np.array([[1e-4], [9e-4]])
    obs = ObservationRecord(time_index=1, time=0.1, value=np.array([7.0]))
    ancestors, out_predictors, out_gammas, _ = survival_of_the_fittest(
        ens, predictors, gammas, obs, model, np.random.default_rng(0)
    )
    assert np.all(ancestors == 1)
    assert np.all(out_predictors[:, 0] == 7.0)
    assert np.all(out_gammas == 9e-4)


def test_survival_underflow_raises():
    model = make_model(system=constant_system(), var=1e-300)
    ens = flat_ensemble([0.0, 1.0])
    obs = ObservationRecord(time_index=1, time=0.1, value=np.array([1e200]))
    with np.errstate(over="ignore"), pytest.raises(LikelihoodUnderflowError, match="underflow"):
        survival_of_the_fittest(
            ens, ens.newest.copy(), np.zeros((2, 1)), obs, model, np.random.default_rng(0)
        )


def test_survival_underflow_names_step_time_and_log_fitness():
    model = make_model(system=constant_system(), var=1e-300)
    ens = flat_ensemble([0.0, 1.0])
    obs = ObservationRecord(time_index=1, time=0.1, value=np.array([1e200]))
    with np.errstate(over="ignore"), pytest.raises(LikelihoodUnderflowError) as info:
        survival_of_the_fittest(
            ens, ens.newest.copy(), np.zeros((2, 1)), obs, model, np.random.default_rng(0)
        )
    err = info.value
    assert (err.time_index, err.time) == (1, 0.1)
    assert not np.isfinite(err.max_log_value)
    assert "step 1" in str(err) and "t=0.1" in str(err)
    assert str(err.max_log_value) in str(err)
    assert "observation inconsistent with ensemble" in str(err)


def test_weight_update_underflow_names_step_time_and_log_ratio():
    model = make_model(system=constant_system(), var=1e-300)
    ens = replace(flat_ensemble([0.0, 1.0]), time_index=3, time=0.3)
    predictors = np.ones((2, 1))
    obs = ObservationRecord(time_index=3, time=0.3, value=np.array([1e200]))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        LikelihoodUnderflowError
    ) as info:
        loglik = model.log_likelihood_batch(obs.value, predictors)
        weight_update(ens, loglik, obs, model)
    err = info.value
    assert (err.time_index, err.time) == (3, 0.3)
    assert not np.isfinite(err.max_log_value)
    assert "step 3" in str(err) and "t=0.3" in str(err)
    # -inf - (-inf) is nan, but no state is: the observation is to blame
    assert "observation inconsistent with ensemble" in str(err)


def test_non_finite_predictors_are_named_instead_of_the_observation():
    # gaussian_decay whose rhs breaks down above u = 1.45: the prior draws
    # beyond it get nan histories and so nan predictors at the first step
    p = gaussian_decay_problem()
    system = OdeSystem(
        dimension=1,
        rhs=lambda t, u, params: np.where(u > 1.45, np.nan, -2.0 * (t - 1.0) * u),
        vectorized=True,
    )
    model = make_model("AB1-AB2", system=system, var=0.27**2)
    cfg = FilterConfig(n_particles=150, initial_variance=0.1, step=0.1, pair=model.pair, seed=0)
    records = [
        ObservationRecord(time_index=k, time=0.1 * k, value=p.exact_solution(0.1 * k))
        for k in range(1, 11)
    ]
    rng = np.random.default_rng(cfg.seed)
    start = initialize(cfg, p.initial_state, rng, model=model, t_start=0.0)
    predictors, _ = propagate_ensemble(start, model, 0.1)
    bad = int(np.count_nonzero(~np.isfinite(predictors[:, 0])))
    assert 0 < bad < 150
    with pytest.raises(LikelihoodUnderflowError) as info:
        run_filter(cfg, model, records, p.initial_state, t_start=0.0)
    err = info.value
    assert (err.time_index, err.time) == (1, 0.1)
    assert np.isnan(err.max_log_value)
    assert str(err) == (
        f"likelihood underflow at step 1 (t=0.1): largest log value nan; "
        f"{bad} of 150 predictors hold nan or inf"
    )


def test_non_finite_states_are_named_at_reweighting():
    model = make_model(system=constant_system(), var=0.04)
    ens = replace(flat_ensemble([0.0, np.nan, 1.0]), time_index=2, time=0.2)
    obs = ObservationRecord(time_index=2, time=0.2, value=np.array([0.5]))
    with pytest.raises(LikelihoodUnderflowError) as info:
        weight_update(ens, np.zeros(3), obs, model)
    err = info.value
    assert (err.time_index, err.time) == (2, 0.2)
    assert str(err).endswith("step 2 (t=0.2): largest log value nan; 1 of 3 states hold nan or inf")


def test_survival_rejects_an_unknown_resampler_as_filter_config_does():
    model = make_model(system=constant_system(), var=0.04)
    ens = flat_ensemble([0.0, 1.0])
    obs = ObservationRecord(time_index=1, time=0.1, value=np.array([0.5]))
    message = "unknown resampler 'bogus'; valid resamplers: multinomial, systematic"
    with pytest.raises(ValueError) as direct:
        survival_of_the_fittest(
            ens, ens.newest.copy(), np.zeros((2, 1)), obs, model, np.random.default_rng(0),
            resampler="bogus",
        )
    with pytest.raises(ValueError) as configured:
        FilterConfig(
            n_particles=10, initial_variance=0.1, step=0.1, pair=model.pair, resampler="bogus"
        )
    assert str(direct.value) == str(configured.value) == message


def test_resampling_unbiasedness_multinomial():
    # offspring counts of grouped particles track N * fitness within 3 SE
    n = 100_000
    model = make_model(system=constant_system(), var=1.0)
    group_w = np.array([0.1, 0.3, 0.05, 0.35, 0.2])
    sizes = (n * np.array([0.2, 0.2, 0.2, 0.2, 0.2])).astype(int)
    values, weights = [], []
    for k, (gw, sz) in enumerate(zip(group_w, sizes)):
        values.extend([float(k)] * sz)
        weights.extend([gw / sz] * sz)
    ens = flat_ensemble(values, weights=np.array(weights))
    obs = ObservationRecord(time_index=1, time=0.1, value=np.array([0.0]))
    ancestors, *_ = survival_of_the_fittest(
        ens, np.zeros((n, 1)), np.zeros((n, 1)), obs, model, np.random.default_rng(2024)
    )
    for k, gw in enumerate(group_w):
        count = np.count_nonzero(ens.states[ancestors, 0, 0] == float(k))
        se = math.sqrt(n * gw * (1.0 - gw))
        assert abs(count - n * gw) <= 3.0 * se


# ------------------------------------------------------------- innovation


def test_innovation_zero_gamma_copies_predictor():
    predictors = np.array([[1.5], [2.5]])
    ens = flat_ensemble([1.0, 2.0], r=2)
    out = innovation_step(
        ens, predictors, np.zeros((2, 1)), np.random.default_rng(0), time=0.1,
        system=constant_system(),
    )
    assert np.array_equal(out.states[:, 0], predictors)
    assert out.time_index == 1
    assert out.time == pytest.approx(0.1)


def test_innovation_stddev_matches_gamma():
    n = 10_000
    predictors = np.zeros((n, 1))
    ens = flat_ensemble(np.zeros(n))
    out = innovation_step(
        ens, predictors, np.full((n, 1), 0.01), np.random.default_rng(99), time=0.1,
        system=constant_system(),
    )
    sd = np.std(out.states[:, 0, 0] - predictors[:, 0])
    assert 0.097 <= sd <= 0.103


def test_innovation_leaves_older_blocks_untouched():
    rng = np.random.default_rng(4)
    predictors = rng.normal(size=(6, 2))
    ens = Ensemble(
        states=rng.normal(size=(6, 3, 2)),
        weights=np.full(6, 1.0 / 6.0),
        time_index=0,
        time=0.0,
    )
    gammas = np.abs(rng.normal(size=(6, 2)))
    system = OdeSystem(dimension=2, rhs=lambda t, u, p: -u, vectorized=True)
    out = innovation_step(ens, predictors, gammas, rng, time=0.1, system=system)
    assert np.array_equal(out.states[:, 1:], ens.states[:, :-1])
    assert not np.array_equal(out.states[:, 0], predictors)


@st.composite
def resampled_steps(draw):
    """(model, ensemble, predictors, variances, ancestors or None, seed): an
    ensemble of r in 1..4 blocks of dimension 1 or 2, with or without carried
    derivatives, and an identity, constant or random ancestor vector with repeats."""
    n, r, d = draw(st.integers(2, 9)), draw(st.integers(1, 4)), draw(st.integers(1, 2))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    system = OdeSystem(dimension=d, rhs=lambda t, u, p: np.sin(u) + t, vectorized=True)
    model = EvolutionObservationModel(
        system=system, pair=make_pair("AB1-AB2"), measurement_var=np.full(d, 0.5)
    )
    weights = rng.random(n) + 0.1
    ens = Ensemble(
        states=rng.normal(size=(n, r, d)), weights=weights / weights.sum(), time_index=2,
        time=0.2, derivatives=rng.normal(size=(n, r, d)) if draw(st.booleans()) else None,
    )
    ancestors = draw(st.sampled_from([
        None, np.arange(n), np.full(n, draw(st.integers(0, n - 1))),
        np.concatenate([[0], rng.integers(0, n, n - 2), [0]]),
    ]))
    return model, ens, rng.normal(size=(n, d)), rng.random((n, d)), ancestors, seed


def _read_only_copies(*arrays):
    copies = [None if a is None else a.copy() for a in arrays]
    for a in arrays:
        if a is not None:
            a.flags.writeable = False
    return copies


@settings(deadline=None, database=None, max_examples=200)
@given(resampled_steps())
def test_innovation_with_ancestors_is_gathering_every_field_then_shifting(step):
    model, ens, predictors, gammas, ancestors, seed = step
    inputs = (ens.states, ens.derivatives, ens.weights, predictors, gammas, ancestors)
    before = _read_only_copies(*inputs)
    out = innovation_step(ens, predictors, gammas, np.random.default_rng(seed), time=0.3,
                          system=model.system, ancestors=ancestors)
    # the composition it replaces: take every field by the ancestors, then shift in
    take = (lambda a: a) if ancestors is None else (lambda a: a.take(ancestors, axis=0))
    newest = predictors + np.sqrt(gammas) * np.random.default_rng(seed).standard_normal(
        predictors.shape
    )
    want = {"states": (newest, ens.states)}
    if ens.derivatives is not None:
        want["derivatives"] = (model.system.rhs_batch(0.3, newest), ens.derivatives)
    for name, (first, history) in want.items():
        expected = np.concatenate([first[:, None, :], take(history)[:, :-1]], axis=1)
        got = getattr(out, name)
        assert (got.shape, got.dtype) == (expected.shape, expected.dtype), name
        assert got.tobytes() == expected.tobytes(), name
        assert not any(a is not None and np.shares_memory(got, a) for a in inputs), name
    assert (out.derivatives is None) == (ens.derivatives is None)
    n = len(predictors)
    assert out.weights is (ens.weights if ancestors is None else _uniform_weights(n))
    assert (out.time_index, out.time) == (3, 0.3)
    for a, b in zip(inputs, before):
        assert a is None or a.tobytes() == b.tobytes()


@settings(deadline=None, database=None, max_examples=100)
@given(resampled_steps())
def test_survival_gathers_its_three_arrays_by_the_ancestors_it_returns(step):
    model, ens, predictors, gammas, _, seed = step
    obs = ObservationRecord(time_index=3, time=0.3, value=np.zeros(predictors.shape[1]))
    inputs = (ens.states, ens.weights, predictors, gammas)
    before = _read_only_copies(*inputs)
    ancestors, *outs = survival_of_the_fittest(
        ens, predictors, gammas, obs, model, np.random.default_rng(seed)
    )
    loglik = model.log_likelihood_batch(obs.value, predictors)
    assert ancestors.shape == (len(predictors),) and ancestors.dtype == np.int64
    for got, source in zip(outs, (predictors, gammas, loglik)):
        assert got.tobytes() == source.take(ancestors, axis=0).tobytes()
        assert not any(np.shares_memory(got, a) for a in inputs)
    for a, b in zip(inputs, before):
        assert a.tobytes() == b.tobytes()


# ------------------------------------------------------------ weight update


def test_weight_update_unit_ratios():
    model = make_model(system=constant_system(), var=0.04)
    ens = flat_ensemble([0.3, -0.2, 1.0])
    obs = ObservationRecord(time_index=1, time=0.1, value=np.array([0.5]))
    out = weight_update(ens, model.log_likelihood_batch(obs.value, ens.newest), obs, model)
    assert np.allclose(out.weights, 1.0 / 3.0, atol=1e-15)


def test_weight_update_log_gap():
    # equal predictor likelihoods, state log-likelihood gap ln 3 -> (0.75, 0.25)
    model = make_model(system=constant_system(), var=1.0)
    x2 = math.sqrt(2.0 * math.log(3.0))
    ens = flat_ensemble([0.0, x2])
    predictors = np.zeros((2, 1))
    obs = ObservationRecord(time_index=1, time=0.1, value=np.array([0.0]))
    out = weight_update(ens, model.log_likelihood_batch(obs.value, predictors), obs, model)
    assert out.weights[0] == pytest.approx(0.75, abs=1e-12)
    assert out.weights[1] == pytest.approx(0.25, abs=1e-12)


def test_weight_update_normalized():
    model = make_model(var=0.01)
    rng = np.random.default_rng(11)
    ens = flat_ensemble(rng.normal(size=40), r=2)
    predictors = rng.normal(size=(40, 1))
    obs = ObservationRecord(time_index=1, time=0.1, value=np.array([0.2]))
    out = weight_update(ens, model.log_likelihood_batch(obs.value, predictors), obs, model)
    assert abs(np.sum(out.weights) - 1.0) < 1e-12


def test_weight_update_reuses_resampled_predictor_loglik():
    # the log-likelihoods resampling gathers equal a recompute bit for bit
    model = make_model(var=0.05)
    rng = np.random.default_rng(5)
    ens = flat_ensemble(rng.normal(size=30), r=2)
    predictors = rng.normal(size=(30, 1))
    obs = ObservationRecord(time_index=1, time=0.1, value=np.array([0.2]))
    ancestors, res_predictors, res_gammas, loglik = survival_of_the_fittest(
        ens, predictors, np.full((30, 1), 0.01), obs, model, rng
    )
    assert np.array_equal(loglik, model.log_likelihood_batch(obs.value, res_predictors))
    moved = innovation_step(ens, res_predictors, res_gammas, rng, time=0.1, system=model.system,
                            ancestors=ancestors)
    reused = weight_update(moved, loglik, obs, model)
    recomputed = weight_update(
        moved, model.log_likelihood_batch(obs.value, res_predictors), obs, model
    )
    assert np.array_equal(reused.weights, recomputed.weights)


@pytest.mark.parametrize("pair_id", ["AB3-AB4", "AM3-AM4"])
def test_each_stage_sets_its_fields_and_carries_the_others_as_the_same_objects(pair_id):
    # a non-vectorized system, so every ensemble carries its history derivatives
    cfg, model, records, prior = streamed_inputs(pair_id, "multinomial", vectorized=False)
    rng = np.random.default_rng(3)
    obs = records[0]
    n, r, d = cfg.n_particles, model.pair.steps_required, 1
    rows, blocks = (n, d), (n, r, d)

    def assert_sets(new, old, sets):
        for name in (f.name for f in fields(Ensemble)):
            value, before = getattr(new, name), getattr(old, name)
            if name not in sets:
                assert value is before, name
            elif isinstance(sets[name], tuple):
                assert value.shape == sets[name] and value is not before, name
            elif isinstance(sets[name], np.ndarray):  # the shared uniform weights
                assert value is sets[name], name
            else:
                assert value == sets[name], name

    ens = initialize(cfg, prior, rng, model=model, t_start=0.0)
    assert ens.derivatives.shape == blocks
    predictors, gammas = propagate_ensemble(ens, model, cfg.step)
    assert predictors.shape == gammas.shape == rows
    ancestors, res_predictors, res_gammas, loglik = survival_of_the_fittest(
        ens, predictors, gammas, obs, model, rng
    )
    assert ancestors.shape == (n,) and ancestors.dtype == np.int64
    assert (res_predictors.shape, res_gammas.shape, loglik.shape) == (rows, rows, (n,))
    assert res_predictors is not predictors and res_gammas is not gammas
    moved = innovation_step(ens, res_predictors, res_gammas, rng, time=0.1,
                            system=model.system, ancestors=ancestors)
    assert_sets(moved, ens, dict(states=blocks, weights=_uniform_weights(n), time_index=1,
                                 time=0.1, derivatives=blocks))
    assert_sets(weight_update(moved, loglik, obs, model), moved, dict(weights=(n,)))


def test_uniform_weights_are_one_shared_read_only_array():
    cfg, model, records, prior = streamed_inputs("AB3-AB4", "multinomial")
    rng = np.random.default_rng(0)
    ens = initialize(cfg, prior, rng, model=model, t_start=0.0)
    ancestors, predictors, gammas, _ = survival_of_the_fittest(
        ens, *propagate_ensemble(ens, model, cfg.step), records[0], model, rng
    )
    resampled = innovation_step(ens, predictors, gammas, rng, time=0.1, system=model.system,
                                ancestors=ancestors)
    assert ens.weights is resampled.weights is _uniform_weights(cfg.n_particles)
    assert np.array_equal(ens.weights, np.full(cfg.n_particles, 1.0 / cfg.n_particles))
    with pytest.raises(ValueError, match="read-only"):
        ens.weights[0] = 1.0


def test_filter_evaluates_likelihood_twice_per_observed_step(monkeypatch):
    calls = []
    original = EvolutionObservationModel.log_likelihood_batch

    def counted(self, y, newest):
        calls.append(newest.shape[0])
        return original(self, y, newest)

    monkeypatch.setattr(EvolutionObservationModel, "log_likelihood_batch", counted)
    cfg, model, records, prior = streamed_inputs("AB3-AB4", "multinomial")
    run_filter(cfg, model, records, prior, t_start=0.0)
    assert calls == [cfg.n_particles] * (2 * len(records))


# ------------------------------------------------------------- equivariance


def test_propagation_and_weighting_permutation_equivariant():
    p = gaussian_decay_problem()
    model = make_model("AB1-AB2", system=p.system, var=0.01)
    rng = np.random.default_rng(8)
    base = Ensemble(
        states=rng.normal(loc=1.0, scale=0.1, size=(10, 2, 1)),
        weights=np.full(10, 0.1),
        time_index=0,
        time=0.0,
    )
    perm = rng.permutation(10)
    permuted = Ensemble(
        states=base.states[perm].copy(),
        weights=base.weights[perm].copy(),
        time_index=0,
        time=0.0,
    )
    pred_a, gamma_a = propagate_ensemble(base, model, 0.1)
    pred_b, gamma_b = propagate_ensemble(permuted, model, 0.1)
    assert np.array_equal(pred_a[perm], pred_b)
    assert np.array_equal(gamma_a[perm], gamma_b)
    obs = ObservationRecord(time_index=1, time=0.1, value=np.array([1.0]))

    def reweighted(ens, predictors):
        loglik = model.log_likelihood_batch(obs.value, predictors)
        return weight_update(ens, loglik, obs, model).weights

    wa = reweighted(base, pred_a)
    wb = reweighted(permuted, pred_b)
    assert np.allclose(wa[perm], wb, atol=1e-15)


# --------------------------------------------------------------- run_filter


def run_simple(seed=7, n=40, v0=0.01, pair_id="AB1-AB2", n_obs=5, var=0.01):
    p = gaussian_decay_problem()
    model = make_model(pair_id, system=p.system, var=var)
    cfg = FilterConfig(n_particles=n, initial_variance=v0, step=0.1, pair=model.pair, seed=seed)
    records = [
        ObservationRecord(time_index=k, time=0.1 * k, value=p.exact_solution(0.1 * k))
        for k in range(1, n_obs + 1)
    ]
    return run_filter(cfg, model, records, p.initial_state, t_start=0.0)


def test_run_filter_single_observation_yields_one_filtered_ensemble():
    out = run_simple(n_obs=1)
    assert len(out) == 2
    assert out[0].time_index == 0
    assert out[1].time_index == 1


def test_run_filter_replay_determinism():
    a = run_simple(seed=7)
    b = run_simple(seed=7)
    for ea, eb in zip(a, b):
        assert np.array_equal(ea.weights, eb.weights)
        assert np.array_equal(ea.states, eb.states)


def test_run_filter_seed_changes_output():
    a = run_simple(seed=7)
    b = run_simple(seed=8)
    assert not np.array_equal(a[-1].states, b[-1].states)


def test_run_filter_rejects_observations_out_of_order():
    p = gaussian_decay_problem()
    model = make_model("AB1-AB2", system=p.system)
    cfg = FilterConfig(n_particles=10, initial_variance=0.01, step=0.1, pair=model.pair)
    for times in ([0.2, 0.1], [0.1, 0.1]):
        records = [
            ObservationRecord(time_index=k, time=t, value=np.array([1.0]))
            for k, t in enumerate(times)
        ]
        with pytest.raises(ValueError, match="observation times must be strictly increasing"):
            run_filter(cfg, model, records, p.initial_state, t_start=0.0)


def test_run_filter_stride_mismatch_rejected():
    p = gaussian_decay_problem()
    model = make_model("AB1-AB2", system=p.system)
    cfg = FilterConfig(n_particles=10, initial_variance=0.01, step=0.1, pair=model.pair)
    records = [ObservationRecord(time_index=1, time=0.137, value=np.array([1.0]))]
    with pytest.raises(ValueError, match="grid"):
        run_filter(cfg, model, records, p.initial_state, t_start=0.0)
    with pytest.raises(ValueError, match="nonempty"):
        run_filter(cfg, model, [], p.initial_state, t_start=0.0)


@pytest.mark.parametrize(
    "time, t_start",
    [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (0.1, math.nan)],
    ids=["nan", "inf", "-inf", "nan-t_start"],
)
def test_run_filter_rejects_non_finite_observation_times(time, t_start):
    p = gaussian_decay_problem()
    model = make_model("AB1-AB2", system=p.system)
    cfg = FilterConfig(n_particles=10, initial_variance=0.01, step=0.1, pair=model.pair)
    records = [ObservationRecord(time_index=1, time=time, value=np.array([1.0]))]
    with pytest.raises(ValueError, match="does not sit on the step grid"):
        run_filter(cfg, model, records, p.initial_state, t_start=t_start)


def test_run_filter_judges_the_grid_in_units_of_a_step():
    # half a step off the grid, however small the step
    p = gaussian_decay_problem()
    model = make_model("AB1-AB2", system=p.system)
    cfg = FilterConfig(n_particles=10, initial_variance=0.01, step=1e-10, pair=model.pair)
    records = [ObservationRecord(time_index=1, time=1.5e-10, value=np.array([1.0]))]
    with pytest.raises(ValueError, match="t=1.5e-10 does not sit on the step grid"):
        run_filter(cfg, model, records, p.initial_state, t_start=0.0)


@pytest.mark.parametrize("time", [0.0, -0.1], ids=["at-t_start", "before-t_start"])
def test_run_filter_names_an_observation_at_or_before_t_start(time):
    p = gaussian_decay_problem()
    model = make_model("AB1-AB2", system=p.system)
    cfg = FilterConfig(n_particles=10, initial_variance=0.01, step=0.1, pair=model.pair)
    records = [ObservationRecord(time_index=1, time=time, value=np.array([1.0]))]
    message = f"observation at t={time} is at or before t_start=0.0; each must lie at least one"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_filter(cfg, model, records, p.initial_state, t_start=0.0)


@pytest.mark.parametrize("value", [[1.0, 5.0], 1.0, [[1.0]]], ids=["2", "scalar", "1x1"])
def test_run_filter_rejects_observation_of_another_shape(value):
    p = gaussian_decay_problem()
    model = make_model("AB1-AB2", system=p.system)
    cfg = FilterConfig(n_particles=10, initial_variance=0.01, step=0.1, pair=model.pair)
    records = [ObservationRecord(time_index=1, time=0.1, value=np.array(value))]
    with pytest.raises(ValueError, match=r"t=0.1 has shape .* measurement variance has shape \(1,\)"):
        run_filter(cfg, model, records, p.initial_state, t_start=0.0)


@pytest.mark.parametrize("stage", ["survival_of_the_fittest", "weight_update"])
def test_stages_called_directly_reject_observation_of_another_shape(stage):
    model = make_model("AB1-AB2")
    rng = np.random.default_rng(0)
    ens = flat_ensemble([0.9, 1.0, 1.1], r=2)
    predictors, gammas = propagate_ensemble(ens, model, 0.1)
    bad = ObservationRecord(time_index=1, time=0.1, value=np.array([1.0, 5.0]))
    good = replace(bad, value=np.array([1.0]))
    ancestors, res_predictors, res_gammas, loglik = survival_of_the_fittest(
        ens, predictors, gammas, good, model, rng
    )
    innovated = innovation_step(
        ens, res_predictors, res_gammas, rng, time=0.1, system=model.system, ancestors=ancestors
    )
    run = {
        "survival_of_the_fittest": lambda: survival_of_the_fittest(
            ens, predictors, gammas, bad, model, rng
        ),
        "weight_update": lambda: weight_update(innovated, loglik, bad, model),
    }[stage]
    with pytest.raises(ValueError, match=r"t=0.1 has shape \(2,\); .* variance has shape \(1,\)"):
        run()


@pytest.mark.parametrize("prior_mean", [[1.0, 1.0], [[1.0]], []], ids=["2", "1x1", "empty"])
def test_initialize_rejects_prior_of_another_dimension(prior_mean):
    model = make_model()
    cfg = FilterConfig(n_particles=8, initial_variance=0.1, step=0.1, pair=model.pair)
    with pytest.raises(ValueError, match="prior_mean has shape .* dimension 1"):
        initialize(cfg, np.array(prior_mean), np.random.default_rng(0), model=model, t_start=0.0)


@pytest.mark.parametrize(
    "other",
    [("RK1-RK2", {}), ("AB3-AB4", {"tau": 2.0}), ("AB3-AB4", {"eps_floor": 1e-8})],
    ids=["label", "tau", "eps_floor"],
)
def test_run_filter_rejects_config_pair_other_than_model_pair(other):
    cfg, model, records, prior = streamed_inputs("AB3-AB4", "multinomial")
    cfg = replace(cfg, pair=make_pair(other[0], **other[1]))
    with pytest.raises(ValueError, match=f"pair .*{other[0]}.* model's pair .*AB3-AB4"):
        run_filter(cfg, model, records, prior, t_start=0.0)


@pytest.mark.parametrize("name", list(RESAMPLERS))
def test_every_resampler_draws_n_uniforms_in_the_unit_interval(name):
    us = RESAMPLERS[name](np.random.default_rng(3), 50)
    assert us.shape == (50,)
    assert np.all((0.0 <= us) & (us < 1.0))


def test_systematic_resampler_draws_once_for_one_uniform_per_stratum():
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    us = RESAMPLERS["systematic"](rng, 8)
    assert np.array_equal(np.floor(us * 8), np.arange(8))
    twin.random()
    assert rng.random() == twin.random()


def test_default_resampler_is_multinomial():
    assert FilterConfig.resampler == "multinomial"


def test_run_filter_systematic_resampler():
    p = gaussian_decay_problem()
    model = make_model("AB1-AB2", system=p.system, var=0.01)
    records = [
        ObservationRecord(time_index=k, time=0.1 * k, value=p.exact_solution(0.1 * k))
        for k in range(1, 11)
    ]
    cfg = FilterConfig(
        n_particles=40, initial_variance=0.01, step=0.1, pair=model.pair,
        resampler="systematic", seed=21,
    )
    a = run_filter(cfg, model, records, p.initial_state, t_start=0.0)
    b = run_filter(cfg, model, records, p.initial_state, t_start=0.0)
    for ea, eb in zip(a, b):
        assert np.array_equal(ea.states, eb.states)
    assert all(abs(float(np.sum(e.weights)) - 1.0) < 1e-12 for e in a)
    err = abs(moments(a[-1])[0][0] - p.exact_solution(1.0)[0])
    assert err < 0.5


def test_run_filter_skips_updates_between_observations():
    # with a single final observation, weights stay uniform until the end
    p = gaussian_decay_problem()
    model = make_model("AB1-AB2", system=p.system)
    cfg = FilterConfig(n_particles=25, initial_variance=0.01, step=0.1, pair=model.pair, seed=1)
    records = [ObservationRecord(time_index=5, time=0.5, value=p.exact_solution(0.5))]
    out = run_filter(cfg, model, records, p.initial_state, t_start=0.0)
    assert len(out) == 6
    for ens in out[:5]:
        assert np.all(ens.weights == 1.0 / 25)
    assert not np.all(out[5].weights == 1.0 / 25)


def test_run_filter_tracks_gaussian_decay():
    # V0=0.001, BDF1-BDF2, noise 0.01 stays within 0.15 everywhere
    p = gaussian_decay_problem()
    model = make_model("BDF1-BDF2", system=p.system, var=0.01**2)
    cfg = FilterConfig(
        n_particles=150, initial_variance=0.001, step=0.1, pair=model.pair, seed=42
    )
    rng = np.random.default_rng(123)
    records = [
        ObservationRecord(
            time_index=k,
            time=0.1 * k,
            value=p.exact_solution(0.1 * k) + 0.01 * rng.standard_normal(1),
        )
        for k in range(1, 51)
    ]
    out = run_filter(cfg, model, records, p.initial_state, t_start=0.0)
    errors = diagnostics(out, p.exact_solution).absolute_errors[:, 0]
    assert max(errors) < 0.15


ENSEMBLE_ARRAYS = ("states", "weights")
SNAPSHOT_ARRAYS = ENSEMBLE_ARRAYS + ("derivatives",)


def streamed_inputs(pair_id, resampler, problem=gaussian_decay_problem, vectorized=True):
    # observed at every other step, so both the observed and the
    # propagate-only branches of the loop run
    p = problem()
    system = p.system
    if not vectorized:
        system = OdeSystem(dimension=1, rhs=system.rhs, vectorized=False)
    model = make_model(pair_id, system=system, var=0.05)
    cfg = FilterConfig(
        n_particles=30, initial_variance=0.05, step=0.1, pair=model.pair,
        resampler=resampler, seed=13,
    )
    records = [
        ObservationRecord(time_index=k, time=0.1 * k, value=p.exact_solution(0.1 * k))
        for k in range(2, 11, 2)
    ]
    return cfg, model, records, p.initial_state


STREAM_CASES = [
    (pair_id, resampler)
    for pair_id in ("AB3-AB4", "AM3-AM4", "BDF3-BDF4", "RK4-RK5")
    for resampler in ("multinomial", "systematic")
]


@pytest.mark.parametrize("pair_id,resampler", STREAM_CASES)
def test_iter_filter_yields_what_run_filter_returns(pair_id, resampler):
    cfg, model, records, prior = streamed_inputs(pair_id, resampler)
    streamed = list(iter_filter(cfg, model, records, prior, t_start=0.0))
    stored = run_filter(cfg, model, records, prior, t_start=0.0)
    assert len(streamed) == len(stored) == 11
    for a, b in zip(streamed, stored):
        assert (a.time_index, a.time) == (b.time_index, b.time)
        for name in ENSEMBLE_ARRAYS:
            x, y = getattr(a, name), getattr(b, name)
            assert (x is None) == (y is None), name
            assert x is None or np.array_equal(x, y), name


def by_hand(config, model, records, prior):
    """S_0, S_1, ... as README's hand-written loop steps them: the loop's own
    ensembles, which carry the f-cache that `iter_filter` drops from its yields."""
    h = config.step
    observed = {step_count(0.0, rec.time, h): rec for rec in records}
    rng = np.random.default_rng(config.seed)
    ensemble = initialize(config, prior, rng, model=model, t_start=0.0)
    yield ensemble
    for j in range(1, max(observed) + 1):
        record = observed.get(j)
        predictors, innovation_vars = propagate_ensemble(ensemble, model, h)
        ancestors = None
        if record is not None:
            ancestors, predictors, innovation_vars, predictor_loglik = survival_of_the_fittest(
                ensemble, predictors, innovation_vars, record, model, rng,
                resampler=config.resampler,
            )
        ensemble = innovation_step(
            ensemble, predictors, innovation_vars, rng, time=j * h, system=model.system,
            ancestors=ancestors,
        )
        if record is not None:
            ensemble = weight_update(ensemble, predictor_loglik, record, model)
        yield ensemble


def assert_later_steps_leave_ensembles_unchanged(ensembles):
    run, snapshots = [], []
    for ens in ensembles:
        run.append(ens)
        arrays = {name: getattr(ens, name) for name in SNAPSHOT_ARRAYS}
        snapshots.append({k: None if v is None else v.copy() for k, v in arrays.items()})
    for ens, snap in zip(run, snapshots):
        for name, before in snap.items():
            after = getattr(ens, name)
            assert before is None or np.array_equal(after, before), (ens.time_index, name)


@pytest.mark.parametrize("pair_id,resampler", STREAM_CASES)
def test_later_steps_leave_yielded_ensembles_unchanged(pair_id, resampler):
    # ensembles share arrays instead of copying them; no later step may
    # write through one of those shared arrays
    cfg, model, records, prior = streamed_inputs(pair_id, resampler)
    assert_later_steps_leave_ensembles_unchanged(
        iter_filter(cfg, model, records, prior, t_start=0.0)
    )


@pytest.mark.parametrize("pair_id", ["AB1-AB2", "AB3-AB4", "AM3-AM4", "BDF3-BDF4"])
def test_unobserved_steps_shift_the_block_vector(pair_id):
    # stride 2: between observations a step is propagation and innovation
    # only, so every older block of S_{j+1} is the block of S_j one newer
    cfg, model, records, prior = streamed_inputs(pair_id, "multinomial")
    assert model.pair.steps_required >= 2
    observed = {rec.time_index for rec in records}
    run = list(iter_filter(cfg, model, records, prior, t_start=0.0))
    unobserved = [j for j in range(len(run) - 1) if j + 1 not in observed]
    assert unobserved == [0, 2, 4, 6, 8]
    # replay the draws, the prior block and then per step the resampler's
    # uniforms (observed steps only) and one innovation block, so that the
    # newest block of an unobserved S_{j+1} is rebuilt from S_j's predictors
    rng, shape = np.random.default_rng(cfg.seed), run[0].newest.shape
    rng.standard_normal(shape)
    for j in range(len(run) - 1):
        if j + 1 in observed:
            RESAMPLERS[cfg.resampler](rng, cfg.n_particles)
        z = rng.standard_normal(shape)
        if j in unobserved:
            assert np.array_equal(run[j + 1].states[:, 1:], run[j].states[:, :-1]), j
            predictors, gammas = propagate_ensemble(run[j], model, 0.1)
            assert np.array_equal(run[j + 1].newest, predictors + np.sqrt(gammas) * z), j


def test_by_hand_step_matches_iter_filter():
    # the hand-written loop of the README's "Library use" section gives S_1
    # (unobserved at stride 2), S_2 (observed) and every later step bit for bit
    inputs = streamed_inputs("AB3-AB4", "systematic", smooth_problem, vectorized=False)
    assert [j in {rec.time_index for rec in inputs[2]} for j in (1, 2)] == [False, True]
    hand = list(by_hand(*inputs))
    streamed = list(iter_filter(*inputs, t_start=0.0))
    assert len(hand) == len(streamed) == 11
    for a, b in zip(hand, streamed):
        assert (a.time_index, a.time) == (b.time_index, b.time)
        for name in ENSEMBLE_ARRAYS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), (a.time_index, name)


@pytest.mark.parametrize("pair_id", ["AB3-AB4", "AM3-AM4"])
def test_yielded_ensembles_carry_no_derivatives(pair_id):
    # the loop steps from ensembles with an f-cache; the ones it yields drop it
    inputs = streamed_inputs(pair_id, "systematic", smooth_problem, vectorized=False)
    assert all(e.derivatives is not None for e in by_hand(*inputs))
    assert all(e.derivatives is None for e in iter_filter(*inputs, t_start=0.0))


@pytest.mark.parametrize("pair_id", ["AB3-AB4", "AM3-AM4"])
def test_run_filter_retains_only_its_states_and_weights(pair_id):
    # counted by array id, as a kept run holds them: no step-local array and
    # no f-cache stays behind, and every sample array owns its data
    inputs = streamed_inputs(pair_id, "multinomial", smooth_problem, vectorized=False)
    run = run_filter(*inputs, t_start=0.0)
    held = {id(a): a for e in run for a in vars(e).values() if isinstance(a, np.ndarray)}
    samples = {id(a): a for e in run for a in (e.states, e.weights)}
    assert held.keys() == samples.keys()
    assert all(a.base is None for a in held.values())


# ------------------------------------------------- carried f-evaluations

CARRIED_CASES = [
    (pair_id, resampler)
    for pair_id in ("AB1-AB2", "AB3-AB4", "AM1-AM2", "AM3-AM4")
    for resampler in ("multinomial", "systematic")
]


@pytest.mark.parametrize("pair_id,resampler", CARRIED_CASES)
def test_later_steps_leave_carried_derivatives_unchanged(pair_id, resampler):
    assert_later_steps_leave_ensembles_unchanged(
        by_hand(*streamed_inputs(pair_id, resampler, smooth_problem, vectorized=False))
    )


@pytest.mark.parametrize(
    "problem,atol",
    [(smooth_problem, 0.0), (gaussian_decay_problem, 1e-12)],
    ids=["autonomous-exact", "time_dependent-1e-12"],
)
@pytest.mark.parametrize("pair_id,resampler", CARRIED_CASES)
def test_carried_derivatives_match_recomputed(pair_id, resampler, problem, atol):
    # non-vectorized systems carry f-values, vectorized ones recompute them
    # at t - i*h; a carried value is taken at the filter clock of the step
    # that made its block, which for a time-dependent rhs may differ from
    # t - i*h in the last ulp
    recomputed = list(by_hand(*streamed_inputs(pair_id, resampler, problem)))
    carried = list(by_hand(*streamed_inputs(pair_id, resampler, problem, vectorized=False)))
    assert all(e.derivatives is None for e in recomputed)
    assert all(e.derivatives is not None for e in carried)
    for a, b in zip(carried, recomputed):
        assert (a.time_index, a.time) == (b.time_index, b.time)
        for name in ENSEMBLE_ARRAYS:
            x, y = getattr(a, name), getattr(b, name)
            assert (x is None) == (y is None), name
            assert x is None or np.allclose(x, y, rtol=0.0, atol=atol), (a.time_index, name)


def test_carried_derivatives_are_rhs_of_each_block():
    cfg, model, records, prior = streamed_inputs(
        "AB3-AB4", "multinomial", smooth_problem, vectorized=False
    )
    h, system = cfg.step, model.system
    for ens in by_hand(cfg, model, records, prior):
        assert ens.derivatives.shape == ens.states.shape
        for i in range(ens.states.shape[1]):
            want = system.rhs_batch(ens.time - i * h, ens.states[:, i])
            assert np.array_equal(ens.derivatives[:, i], want), (ens.time_index, i)


@pytest.mark.parametrize(
    "pair_id,vectorized",
    [("AB3-AB4", True), ("AM3-AM4", True), ("BDF3-BDF4", False), ("RK4-RK5", False),
     ("BDF3-BDF4", True), ("RK4-RK5", True)],
)
def test_only_non_vectorized_adams_runs_carry_derivatives(pair_id, vectorized):
    cfg, model, records, prior = streamed_inputs(
        pair_id, "multinomial", smooth_problem, vectorized=vectorized
    )
    assert all(e.derivatives is None for e in by_hand(cfg, model, records, prior))


def rhs_rows_per_ensemble(pair_id):
    """Particles and the rows a non-vectorized smooth rhs evaluates for each
    ensemble a run yields."""
    rows = []
    smooth_rhs = smooth_problem().system.rhs

    def counted(t, u, params):
        rows.append(t)
        return smooth_rhs(t, u, params)

    system = OdeSystem(dimension=1, rhs=counted, vectorized=False)
    cfg, model, records, prior = streamed_inputs(pair_id, "systematic")
    model = make_model(pair_id, system=system, var=0.05)
    per_ensemble = []
    for _ in iter_filter(cfg, model, records, prior, t_start=0.0):
        per_ensemble.append(len(rows) - sum(per_ensemble))
    return cfg.n_particles, per_ensemble


def test_carried_derivatives_evaluate_one_row_per_particle_per_step():
    n, per_ensemble = rhs_rows_per_ensemble("AB3-AB4")
    per_step = per_ensemble[1:]  # after initialization
    assert per_step == [n] * 10


@pytest.mark.parametrize("pair_id", ["AB1-AB2", "AB3-AB4"])
def test_adams_bashforth_runs_evaluate_each_block_once(pair_id):
    # r - 1 six-stage RK startup steps and f at the r startup blocks, then
    # f once per step, at the new block
    r = make_pair(pair_id).steps_required
    n, per_ensemble = rhs_rows_per_ensemble(pair_id)
    assert per_ensemble == [n * (6 * (r - 1) + r)] + [n] * 10


@pytest.mark.parametrize("vectorized", [True, False])
@pytest.mark.parametrize("pair_id", ["BDF1-BDF2", "BDF3-BDF4", "RK1-RK2", "RK4-RK5"])
def test_bdf_and_rk_runs_never_evaluate_history_derivatives(monkeypatch, pair_id, vectorized):
    # BDF and embedded RK read no f at the history blocks
    def refuse(*args, **kwargs):
        raise AssertionError("the filter evaluated history derivatives")

    monkeypatch.setattr(homec, "history_derivatives", refuse)
    monkeypatch.setattr(particle_filter, "history_derivatives", refuse)
    inputs = streamed_inputs(pair_id, "multinomial", vectorized=vectorized)
    assert len(run_filter(*inputs, t_start=0.0)) == 11  # initialization and 10 steps


@pytest.mark.xfail(
    strict=False,
    reason="the late-time pair-feedback variance floor is independent of V0, "
    "so the final decade of the sweep is a seed-level coin flip at the "
    "calibrated error-control factor",
)
def test_monotone_precision_trend():
    from lmmpf.experiment import ExperimentConfig, run_experiment

    norms = []
    for v in (0.1, 0.01, 0.001, 0.0001):
        cfg = ExperimentConfig(
            problem="gaussian_decay", pair="AB1-AB2", initial_variance=v,
            replicates=10, seed=20260810,
        )
        _, row = run_experiment(cfg)
        norms.append(row.variance_2norm)
    assert all(a > b for a, b in zip(norms, norms[1:])), norms


def test_full_step_matches_scratch_reference():
    """One assimilation step vs an independent pure-Python reimplementation."""
    h, t, tau, floor, sigma2, y = 0.1, 0.3, 2.0, 1e-20, 0.04, 1.15
    u0 = [1.20, 1.05, 0.92]
    um1 = [1.10, 1.00, 0.85]
    w = [0.5, 0.2, 0.3]
    seed = 424242

    p = gaussian_decay_problem()
    model = EvolutionObservationModel(
        system=p.system,
        pair=make_pair("AB1-AB2", tau=tau, eps_floor=floor),
        measurement_var=np.array([sigma2]),
    )
    ens = Ensemble(
        states=np.array([[[a], [b]] for a, b in zip(u0, um1)]),
        weights=np.array(w),
        time_index=3,
        time=t,
    )
    obs = ObservationRecord(time_index=4, time=t + h, value=np.array([y]))
    rng = np.random.default_rng(seed)
    predictors, gammas = propagate_ensemble(ens, model, h)
    ancestors, res_predictors, res_gammas, loglik = survival_of_the_fittest(
        ens, predictors, gammas, obs, model, rng
    )
    moved = innovation_step(ens, res_predictors, res_gammas, rng, time=t + h, system=p.system,
                            ancestors=ancestors)
    final = weight_update(moved, loglik, obs, model)

    # scratch reference with plain floats
    def f(tt, uu):
        return -2.0 * (tt - 1.0) * uu

    replay = np.random.default_rng(seed)
    us = list(replay.random(3))
    zs = [float(z) for z in replay.standard_normal((3, 1))[:, 0]]
    ab1 = [u0[n] + h * f(t, u0[n]) for n in range(3)]
    ab2 = [u0[n] + h * (1.5 * f(t, u0[n]) - 0.5 * f(t - h, um1[n])) for n in range(3)]
    gam = [max(tau**2 * (a - b) ** 2, floor) for a, b in zip(ab1, ab2)]
    lik = [
        math.exp(-0.5 * (y - ab1[n]) ** 2 / sigma2) / math.sqrt(2 * math.pi * sigma2)
        for n in range(3)
    ]
    g = [w[n] * lik[n] for n in range(3)]
    gsum = sum(g)
    g = [x / gsum for x in g]
    cums = [g[0], g[0] + g[1], 1.0]
    anc = [next(i for i, c in enumerate(cums) if c > u) for u in us]
    x_new = [ab1[anc[n]] + math.sqrt(gam[anc[n]]) * zs[n] for n in range(3)]
    ratio = [
        math.exp(-0.5 * ((y - x_new[n]) ** 2 - (y - ab1[anc[n]]) ** 2) / sigma2)
        for n in range(3)
    ]
    rsum = sum(ratio)
    expected_w = [x / rsum for x in ratio]

    assert np.allclose(predictors[:, 0], ab1, rtol=1e-14)
    assert ancestors.tolist() == anc
    assert np.allclose(gammas[:, 0], gam, rtol=1e-13)
    assert np.allclose(final.states[:, 0, 0], x_new, rtol=1e-12)
    assert np.allclose(final.states[:, 1, 0], [u0[k] for k in anc], rtol=1e-14)
    assert np.allclose(final.weights, expected_w, rtol=1e-11)
    assert final.time_index == 4
    assert final.time == pytest.approx(t + h)


# -------------------------------------------------- one-step Bayes oracle


def test_one_step_bayes_oracle_two_particles():
    """Closed-form check of the full update restricted to the sampled points.

    On u' = 0 with BDF1-BDF2 the pair coincides, so the innovation variance
    is exactly the floor; with widely separated particles the mixture
    transition density collapses onto the chosen ancestor and the hand
    computation is exact.
    """
    sep = 10.0
    gamma0 = 1e-4  # innovation variance via the floor
    sigma2 = 0.01  # observation variance
    y = 0.05
    w = np.array([0.7, 0.3])
    xs = np.array([0.0, sep])

    system = constant_system()
    model = EvolutionObservationModel(
        system=system,
        pair=make_pair("BDF1-BDF2", eps_floor=gamma0),
        measurement_var=np.array([sigma2]),
    )
    ens = Ensemble(
        states=np.repeat(xs[:, None, None], 2, axis=1),
        weights=w.copy(),
        time_index=0,
        time=0.0,
    )
    obs = ObservationRecord(time_index=1, time=0.1, value=np.array([y]))

    rng = np.random.default_rng(314)
    predictors, gammas = propagate_ensemble(ens, model, 0.1)
    assert np.all(gammas == gamma0)
    drawn, res_predictors, res_gammas, loglik = survival_of_the_fittest(
        ens, predictors, gammas, obs, model, rng
    )
    moved = innovation_step(ens, res_predictors, res_gammas, rng, time=0.1, system=system,
                            ancestors=drawn)
    final = weight_update(moved, loglik, obs, model)

    # replay the same draws by hand
    replay = np.random.default_rng(314)
    us = replay.random(2)
    zs = replay.standard_normal((2, 1))

    def norm_pdf(x, mean, var):
        return math.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)

    fitness = np.array([w[k] * norm_pdf(y, xs[k], sigma2) for k in range(2)])
    fitness = fitness / fitness.sum()
    cum = np.cumsum(fitness)
    ancestors = [int(np.searchsorted(cum, u, side="right")) for u in us]
    x_new = [xs[l] + math.sqrt(gamma0) * zs[i, 0] for i, l in enumerate(ancestors)]

    # conditional (per-ancestor) weight: pi(y|x) / pi(y|x_bar)
    hand = np.array(
        [
            norm_pdf(y, x_new[i], sigma2) / norm_pdf(y, xs[ancestors[i]], sigma2)
            for i in range(2)
        ]
    )
    hand_cond = hand / hand.sum()

    # mixture form: pi(y|x) * sum_m w_m N(x; x_bar_m, Gamma) / sum_m g_m N(x; x_bar_m, Gamma)
    def mixture(x, coef):
        return sum(c * norm_pdf(x, xs[m], gamma0) for m, c in enumerate(coef))

    hand_mix = np.array(
        [
            norm_pdf(y, x_new[i], sigma2) * mixture(x_new[i], w) / mixture(x_new[i], fitness)
            for i in range(2)
        ]
    )
    hand_mix = hand_mix / hand_mix.sum()

    assert np.allclose(final.states[:, 0, 0], x_new, atol=1e-14)
    assert np.allclose(final.weights, hand_cond, atol=1e-10)
    assert np.allclose(final.weights, hand_mix, atol=1e-10)
