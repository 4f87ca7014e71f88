"""End-to-end acceptance gate.

One test per criterion; each prints a single pass/fail line (visible with
``pytest -s`` or in the captured output). Stochastic reproduction criteria
run 10 replicates per cell at the pinned base seed.
"""

import math
import time

import numpy as np
import pytest

from conftest import empirical_order
from lmmpf.experiment import ExperimentConfig, run_experiment
from lmmpf.homec import make_pair, propagate_blocks
from lmmpf.integrators import Family, make_method
from lmmpf.ode_models import ObservationRecord, OdeSystem, gaussian_decay_problem
from lmmpf.particle_filter import (
    Ensemble,
    FilterConfig,
    initialize,
    innovation_step,
    propagate_ensemble,
    run_filter,
    survival_of_the_fittest,
    weight_update,
)
from lmmpf.state_space import EvolutionObservationModel

SEED = 20260810
LMM_PAIRS = ("AB1-AB2", "AB3-AB4", "AM1-AM2", "AM3-AM4")
V_SWEEP = (0.1, 0.01, 0.001, 0.0001)

REF_ERR_V01 = {"AB1-AB2": 0.4292, "AB3-AB4": 0.6795, "AM1-AM2": 0.2265, "AM3-AM4": 0.5728}
REF_VAR_V01 = {"AB1-AB2": 0.1015, "AB3-AB4": 0.1011, "AM1-AM2": 0.1011, "AM3-AM4": 0.1005}
RK_ERR_V4 = {"RK1-RK2": 0.1418, "RK4-RK5": 0.0267}


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} — {detail}")


@pytest.fixture(scope="module")
def lmm_grid():
    """All sweep cells (pair x V, 10 replicates each) plus timings."""
    cells = {}
    for pair in LMM_PAIRS:
        for v in V_SWEEP:
            cfg = ExperimentConfig(
                problem="gaussian_decay",
                pair=pair,
                initial_variance=v,
                replicates=10,
                seed=SEED,
            )
            t0 = time.perf_counter()
            _, row = run_experiment(cfg)
            cells[(pair, v)] = (row, time.perf_counter() - t0)
    return cells


def test_criterion_1_integrator_orders():
    t0 = time.perf_counter()
    problem = gaussian_decay_problem()
    families = (Family.ADAMS_BASHFORTH, Family.ADAMS_MOULTON, Family.BDF)
    methods = [make_method(family, order) for family in families for order in (1, 2, 3, 4)]
    # the propagators of both embedded RK pairs; their partners RK2 and RK5
    # are covered by the looser ratio-band invariant in the unit tests
    methods += [make_method(Family.RUNGE_KUTTA_EMBEDDED, order) for order in (1, 4)]
    worst = 0.0
    failures = []
    for method in methods:
        measured = empirical_order(method, problem, h=0.05)
        gap = abs(measured - method.order)
        worst = max(worst, gap)
        if gap > 0.4:
            failures.append(f"{method.label}: {measured:.2f} vs {method.order}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    report(1, "integrator orders", ok, f"max |order gap| {worst:.3f}, {elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"


def test_criterion_2_homec_calibration():
    t0 = time.perf_counter()
    problem = gaussian_decay_problem()
    pair = make_pair("AB1-AB2")
    h = 0.1
    hits = 0
    for t in np.linspace(0.1, 4.85, 20):
        blocks = np.stack([problem.exact_solution(t - i * h) for i in range(2)])[None]
        pred, gamma = propagate_blocks(pair, problem.system, blocks, t, h)
        u_low = pred[0]
        estimate = np.sqrt(gamma[0, 0]) / pair.tau  # = |u_low - u_high|
        truth = abs(u_low[0] - problem.exact_solution(t + h)[0])
        if truth / 3.0 <= estimate <= 3.0 * truth:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 16 and elapsed < 1.0
    report(2, "error-control calibration", ok, f"{hits}/20 steps in factor-3 band, {elapsed:.2f}s")
    assert hits >= 16
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"


def test_criterion_3_reference_sweep(lmm_grid):
    failures = []
    details = []
    elapsed = sum(lmm_grid[(pair, 0.1)][1] for pair in LMM_PAIRS)
    for pair in LMM_PAIRS:
        row, _ = lmm_grid[(pair, 0.1)]
        e_ref, v_ref = REF_ERR_V01[pair], REF_VAR_V01[pair]
        details.append(f"{pair}: err {row.error_inf_norm:.3f}/{e_ref} var {row.variance_2norm:.3f}/{v_ref}")
        if not e_ref / 2.0 <= row.error_inf_norm <= e_ref * 2.0:
            failures.append(f"{pair} error {row.error_inf_norm:.4f} outside factor-2 of {e_ref}")
        if not v_ref / 2.0 <= row.variance_2norm <= v_ref * 2.0:
            failures.append(f"{pair} variance {row.variance_2norm:.4f} outside factor-2 of {v_ref}")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    report(3, "reference sweep at V=0.1", not failures, "; ".join(details) + f"; {elapsed:.1f}s")
    assert not failures, failures


def test_criterion_4_ordering_trends(lmm_grid):
    elapsed = sum(t for _, t in lmm_grid.values())
    failures = []
    for pair in LMM_PAIRS:
        variances = [lmm_grid[(pair, v)][0].variance_2norm for v in V_SWEEP]
        if not all(a > b for a, b in zip(variances, variances[1:])):
            failures.append(
                f"(a) {pair} variance not strictly decreasing: "
                + " ".join(f"{v:.4f}" for v in variances)
            )
    am = [lmm_grid[("AM1-AM2", v)][0].error_inf_norm for v in V_SWEEP]
    ab = [lmm_grid[("AB1-AB2", v)][0].error_inf_norm for v in V_SWEEP]
    ab3 = [lmm_grid[("AB3-AB4", v)][0].error_inf_norm for v in V_SWEEP]
    for v, a, b in zip(V_SWEEP, am, ab):
        if not a < b:
            failures.append(f"(b) AM1-AM2 {a:.4f} not below AB1-AB2 {b:.4f} at V={v}")
    for v, a, b in zip(V_SWEEP, ab3, ab):
        if not a > b:
            failures.append(f"(c) AB3-AB4 {a:.4f} not above AB1-AB2 {b:.4f} at V={v}")
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5min")
    report(
        4,
        "variance-sweep ordering trends",
        not failures,
        f"AM {['%.3f' % x for x in am]} vs AB {['%.3f' % x for x in ab]} vs AB34 "
        f"{['%.3f' % x for x in ab3]}; {elapsed:.1f}s",
    )
    assert not failures, failures


def test_criterion_5_rk_trend():
    t0 = time.perf_counter()
    rows = {}
    for pair in ("RK1-RK2", "RK4-RK5"):
        cfg = ExperimentConfig(
            problem="gaussian_decay",
            pair=pair,
            initial_variance=0.0001,
            replicates=10,
            t_end=10.0,
            seed=SEED,
        )
        _, rows[pair] = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    e12 = rows["RK1-RK2"].error_inf_norm
    e45 = rows["RK4-RK5"].error_inf_norm
    failures = []
    if not e45 < e12:
        failures.append(f"RK4-RK5 {e45:.4f} not below RK1-RK2 {e12:.4f}")
    for pair, err in (("RK1-RK2", e12), ("RK4-RK5", e45)):
        ref = RK_ERR_V4[pair]
        if not ref / 3.0 <= err <= ref * 3.0:
            failures.append(f"{pair} error {err:.4f} outside factor-3 of {ref}")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    report(
        5, "RK trend over [0,10]", not failures,
        f"RK1-RK2 {e12:.4f} (ref {RK_ERR_V4['RK1-RK2']}), RK4-RK5 {e45:.4f} "
        f"(ref {RK_ERR_V4['RK4-RK5']}); {elapsed:.1f}s",
    )
    assert not failures, failures


def test_criterion_6_one_step_bayes_oracle():
    # two widely separated particles, constant dynamics, floor-controlled
    # innovation: every density is evaluable in closed form
    sep, gamma0, sigma2, y = 10.0, 1e-4, 0.01, 0.05
    w = np.array([0.7, 0.3])
    xs = np.array([0.0, sep])
    system = OdeSystem(dimension=1, rhs=lambda t, u, p: np.zeros_like(u), vectorized=True)
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
    rng = np.random.default_rng(SEED)
    drawn, predictors, gammas, loglik = survival_of_the_fittest(
        ens, *propagate_ensemble(ens, model, 0.1), obs, model, rng
    )
    moved = innovation_step(ens, predictors, gammas, rng, time=0.1, ancestors=drawn)
    final = weight_update(moved, loglik, obs, model)

    replay = np.random.default_rng(SEED)
    us = replay.random(2)
    zs = replay.standard_normal((2, 1))

    def pdf(x, mean, var):
        return math.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)

    fitness = np.array([w[k] * pdf(y, xs[k], sigma2) for k in range(2)])
    fitness /= fitness.sum()
    ancestors = [int(np.searchsorted(np.cumsum(fitness), u, side="right")) for u in us]
    x_new = [xs[l] + math.sqrt(gamma0) * zs[i, 0] for i, l in enumerate(ancestors)]
    hand = np.array(
        [pdf(y, x_new[i], sigma2) / pdf(y, xs[ancestors[i]], sigma2) for i in range(2)]
    )
    hand /= hand.sum()
    gap = float(np.max(np.abs(final.weights - hand)))
    ok = gap < 1e-10
    report(6, "one-step Bayes oracle", ok, f"max weight deviation {gap:.2e}")
    assert ok


def test_criterion_7_property_suite():
    checks = {}

    # weight normalization through a real run
    problem = gaussian_decay_problem()
    model = EvolutionObservationModel(
        system=problem.system,
        pair=make_pair("AB1-AB2"),
        measurement_var=np.array([0.01]),
    )
    cfg = FilterConfig(n_particles=50, initial_variance=0.01, step=0.1, pair=model.pair, seed=SEED)
    records = [
        ObservationRecord(time_index=k, time=0.1 * k, value=problem.exact_solution(0.1 * k))
        for k in range(1, 21)
    ]
    run_a = run_filter(cfg, model, records, problem.initial_state, t_start=0.0)
    checks["weight normalization"] = all(
        abs(float(np.sum(e.weights)) - 1.0) < 1e-12 for e in run_a
    )

    # innovation support: older blocks pass through bit-identically
    rng = np.random.default_rng(SEED)
    predictors = rng.normal(size=(30, 1))
    ens = Ensemble(
        states=rng.normal(size=(30, 3, 1)),
        weights=np.full(30, 1.0 / 30.0),
        time_index=0,
        time=0.0,
    )
    out = innovation_step(ens, predictors, np.full((30, 1), 0.05), rng, time=0.1)
    checks["innovation support"] = np.array_equal(out.states[:, 1:], ens.states[:, :-1])

    # Markov shift structure: pair step, then the innovation that shifts
    base_states = rng.normal(loc=1.0, scale=0.05, size=(20, 2, 1))
    base = Ensemble(states=base_states, weights=np.full(20, 0.05), time_index=0, time=0.0)
    propagated = propagate_ensemble(base, model, 0.1)
    shifted = innovation_step(base, *propagated, rng, time=0.1).states
    checks["Markov shift"] = np.array_equal(shifted[:, 1:], base_states[:, :-1])

    # multinomial resampling unbiasedness at N=1e5, 3 standard errors
    n = 100_000
    group_w = np.array([0.1, 0.3, 0.05, 0.35, 0.2])
    sizes = np.full(5, n // 5)
    values = np.repeat(np.arange(5.0), sizes)
    weights = np.repeat(group_w / sizes, sizes)
    const = OdeSystem(dimension=1, rhs=lambda t, u, p: np.zeros_like(u), vectorized=True)
    flat_model = EvolutionObservationModel(
        system=const, pair=make_pair("AB1-AB2"), measurement_var=np.array([1.0])
    )
    zeros = np.zeros((n, 1))
    big = Ensemble(
        states=values[:, None, None].copy(),
        weights=weights,
        time_index=0,
        time=0.0,
    )
    obs = ObservationRecord(time_index=1, time=0.1, value=np.array([0.0]))
    drawn, *_ = survival_of_the_fittest(
        big, zeros, zeros, obs, flat_model, np.random.default_rng(SEED)
    )
    unbiased = True
    for k, gw in enumerate(group_w):
        count = int(np.count_nonzero(big.states[drawn, 0, 0] == float(k)))
        se = math.sqrt(n * gw * (1.0 - gw))
        if abs(count - n * gw) > 3.0 * se:
            unbiased = False
    checks["resampling unbiasedness"] = unbiased

    # Gaussian log-density quadrature
    sigma = 1.3
    mean, var = np.array([0.5]), np.array([sigma**2])
    xs = np.linspace(0.5 - 8 * sigma, 0.5 + 8 * sigma, 20001)
    density = EvolutionObservationModel(system=const, pair=model.pair, measurement_var=var)
    vals = np.exp([density.log_likelihood_batch(np.array([x]), mean[None])[0] for x in xs])
    checks["log-density quadrature"] = abs(np.trapezoid(vals, xs) - 1.0) < 1e-6

    # byte-identical replay under the fixed seed
    run_b = run_filter(cfg, model, records, problem.initial_state, t_start=0.0)
    checks["byte-identical replay"] = all(
        np.array_equal(a.states, b.states) and np.array_equal(a.weights, b.weights)
        for a, b in zip(run_a, run_b)
    )

    detail = ", ".join(f"{name}: {'ok' if ok else 'FAIL'}" for name, ok in checks.items())
    report(7, "property suite", all(checks.values()), detail)
    assert all(checks.values()), detail
