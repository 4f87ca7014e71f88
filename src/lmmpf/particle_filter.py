"""Auxiliary particle filter driven by a multistep-integrator pair.

A filter step runs four stages, each a function from `Ensemble` to
`Ensemble`: `propagate_ensemble` steps every particle with the pair (the
predictor) and sets a per-particle innovation covariance from the pair
discrepancy; at observation times `survival_of_the_fittest` resamples by
predictor fitness; `innovation_step` perturbs the predictor and shifts it in
as the newest block; at observation times `weight_update` reweights by the
observation-likelihood ratio. The per-particle arrays one stage hands to the
next travel in the ensemble only.

Random draws are consumed in a fixed order so replay under one seed is
byte-identical: the prior draw at initialization (one (N, d) normal block),
then per step the resampler's uniforms (see `RESAMPLERS`; none between
observations) followed by one (N, d) innovation normal block.
All operations return new ensembles and never write to their inputs. To
avoid copies, an ensemble may hold the very arrays it was built from (the
predictors of one step are shared by its resampled and its innovated
ensemble), so every ensemble array must be treated as read-only.

For a system whose rhs is not vectorized (``rhs_batch`` loops over the
particles in Python) and a pair that reads history derivatives (AB, AM), each
ensemble carries the f-values of its history blocks, so a step evaluates the
rhs once, for the block innovation creates, instead of once per block. The
cache adds N*r*d floats to every ensemble, including each one `run_filter`
keeps. For a time-dependent rhs a carried value is f at the filter clock of
the step that made the block, which can differ from t - i*h in the last ulp;
see `Ensemble`. Vectorized systems evaluate all r blocks as before.
"""

from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Sequence

import numpy as np

from .homec import MethodPair, propagate_blocks
from .integrators import history_derivatives, startup_states_batch, step_count
from .ode_models import ObservationRecord, OdeSystem
from .state_space import EvolutionObservationModel

# Resampler name -> its n ancestor uniforms in [0, 1): n independent draws,
# or one draw shifting a regular grid. The first entry is the default.
RESAMPLERS = {
    "multinomial": lambda rng, n: rng.random(n),
    "systematic": lambda rng, n: (rng.random() + np.arange(n)) / n,
}


def _check_resampler(name: str):
    if name not in RESAMPLERS:
        raise ValueError(f"unknown resampler {name!r}; valid resamplers: {', '.join(RESAMPLERS)}")


class LikelihoodUnderflowError(RuntimeError):
    """No particle gives the observation a positive weight.

    ``time_index`` is the filter step that assimilates the observation,
    ``time`` the observation time and ``max_log_value`` the largest log
    fitness (resampling) or log likelihood ratio (reweighting), which is
    -inf or nan. The message blames ``non_finite`` rows, if given, not the observation.
    """

    def __init__(self, time_index: int, time: float, max_log_value: float, non_finite=""):
        super().__init__(
            f"likelihood underflow at step {time_index} (t={time:g}): largest log value "
            f"{max_log_value}; {non_finite or 'observation inconsistent with ensemble'}"
        )
        self.time_index = time_index
        self.time = time
        self.max_log_value = max_log_value


@dataclass(frozen=True)
class Ensemble:
    """Weighted particle sample at one time index, stored as stacked arrays.

    ``states`` holds each particle's history blocks (N, r, d) newest first.
    ``predictors`` (N, d) and ``innovation_vars`` (N, d), when present, are
    the pair propagation outputs aligned row-by-row with the particles. A
    predictor is the low-order step: the newest block before innovation
    perturbs it. It holds no older blocks; `innovation_step` takes those from
    the states it shifts.

    ``derivatives`` (N, r, d) is set only for a non-vectorized system and a
    pair that uses history derivatives: ``derivatives[n, i]`` is f of
    ``states[n, i]`` at the filter time at which that block was newest
    (``t_start - i*h`` for the initial ensemble). For an autonomous rhs, and
    for every vectorized system (which recompute f at ``time - i*h``), runs
    are bit-identical to evaluating all blocks each step. For a
    time-dependent non-vectorized rhs the grid time ``t_start + (j - i)*h``
    of block i at step j can differ from ``time - i*h`` in the last ulp, so
    states can drift from the recompute path at rounding level; replay
    under one seed stays byte-identical.

    ``predictor_loglik`` (N,) is log pi(y | predictor) of each particle.
    Resampling sets it, innovation and reweighting carry it, and propagation
    clears it, because new predictors make it stale. `weight_update` reads it.
    """

    states: np.ndarray
    weights: np.ndarray
    time_index: int
    time: float
    predictors: Optional[np.ndarray] = None
    innovation_vars: Optional[np.ndarray] = None
    derivatives: Optional[np.ndarray] = None
    predictor_loglik: Optional[np.ndarray] = None

    @property
    def n_particles(self) -> int:
        return self.states.shape[0]

    @property
    def newest(self) -> np.ndarray:
        """Newest state block per particle, shape (N, d)."""
        return self.states[:, 0]


@dataclass(frozen=True)
class FilterConfig:
    n_particles: int
    initial_variance: float
    step: float
    pair: MethodPair
    resampler: str = next(iter(RESAMPLERS))
    seed: int = 0

    def __post_init__(self):
        if self.n_particles < 2:
            raise ValueError("n_particles must be >= 2")
        if not 0.0 < self.initial_variance < np.inf:
            raise ValueError("initial_variance must be positive and finite")
        if not 0.0 < self.step < np.inf:
            raise ValueError("step must be positive and finite")
        _check_resampler(self.resampler)


def initialize(
    config: FilterConfig,
    prior_mean: np.ndarray,
    rng: np.random.Generator,
    *,
    model: EvolutionObservationModel,
    t_start: float,
) -> Ensemble:
    """Draw N particles from N(prior_mean, V0 I) and warm their histories.

    The sampled value is each particle's newest block; older blocks are
    filled by reverse-time RK startup steps along the particle's own flow.
    A non-vectorized system with an AB or AM pair also gets the blocks'
    f-values (see `Ensemble`).
    """
    prior_mean = np.atleast_1d(np.asarray(prior_mean, dtype=float))
    n, d = config.n_particles, model.system.dimension
    if prior_mean.shape != (d,):
        raise ValueError(f"prior_mean has shape {prior_mean.shape}; the system has dimension {d}")
    draws = prior_mean[None, :] + np.sqrt(config.initial_variance) * rng.standard_normal((n, d))
    blocks = startup_states_batch(
        model.system, draws, t_start, config.step, model.pair.steps_required
    )
    t_start = float(t_start)
    derivatives = None
    if model.pair.low.reads_derivatives and not model.system.vectorized:
        derivatives = history_derivatives(model.system, blocks, t_start, config.step)
    weights = np.full(n, 1.0 / n)
    return Ensemble(
        states=blocks, weights=weights, time_index=0, time=t_start, derivatives=derivatives
    )


def propagate_ensemble(
    ensemble: Ensemble, model: EvolutionObservationModel, h: float
) -> Ensemble:
    """Pair-propagate every particle; sets ``predictors`` and ``innovation_vars``.

    ``predictor_loglik`` is cleared, since it belonged to the old predictors.
    """
    predictors, gammas = propagate_blocks(
        model.pair, model.system, ensemble.states, ensemble.time, h, derivs=ensemble.derivatives
    )
    return replace(ensemble, predictors=predictors, innovation_vars=gammas, predictor_loglik=None)


def _require_propagated(ensemble: Ensemble, stage: str):
    if ensemble.predictors is None or ensemble.innovation_vars is None:
        raise ValueError(
            "ensemble has no predictors or innovation_vars: propagate it with "
            f"propagate_ensemble before {stage}"
        )


def _normalized_weights(
    log_values: np.ndarray, time_index: int, time: float, rows: np.ndarray, name: str
) -> np.ndarray:
    """Normalized exp(log_values), or `LikelihoodUnderflowError` counting non-finite ``rows``."""
    m = np.max(log_values)
    if not np.isfinite(m):
        bad = np.count_nonzero(~np.isfinite(rows).all(axis=1))
        non_finite = f"{bad} of {len(rows)} {name} hold nan or inf" if bad else ""
        raise LikelihoodUnderflowError(time_index, time, float(m), non_finite)
    w = np.exp(log_values - m)
    return w / np.sum(w)


def inverse_cdf_indices(cumw: np.ndarray, us: np.ndarray) -> np.ndarray:
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


def _resample_indices(
    fitness: np.ndarray, rng: np.random.Generator, resampler: str
) -> np.ndarray:
    _check_resampler(resampler)
    return inverse_cdf_indices(np.cumsum(fitness), RESAMPLERS[resampler](rng, fitness.shape[0]))


def _log_likelihood(
    model: EvolutionObservationModel, observation: ObservationRecord, newest: np.ndarray
) -> np.ndarray:
    """log pi(y | newest) per row; the observation value must have measurement_var's shape."""
    shape = model.measurement_var.shape
    if np.shape(observation.value) != shape:
        raise ValueError(
            f"observation at t={observation.time} has shape {np.shape(observation.value)}; "
            f"the measurement variance has shape {shape}"
        )
    return model.log_likelihood_batch(observation.value, newest)


def survival_of_the_fittest(
    ensemble: Ensemble,
    observation: ObservationRecord,
    model: EvolutionObservationModel,
    rng: np.random.Generator,
    *,
    resampler: str = FilterConfig.resampler,
) -> Ensemble:
    """Resample particles with replacement by normalized predictor fitness.

    Fitness of particle n is w_n * pi(y | predictor_n). One ancestor index
    gathers every row-aligned array: states, predictors, innovation
    covariances, carried derivatives and the new predictor log-likelihoods.
    The returned ensemble has uniform weights.
    """
    _require_propagated(ensemble, "survival_of_the_fittest")
    loglik = _log_likelihood(model, observation, ensemble.predictors)
    with np.errstate(divide="ignore"):
        log_fitness = np.log(ensemble.weights) + loglik
    fitness = _normalized_weights(
        log_fitness, ensemble.time_index + 1, observation.time, ensemble.predictors, "predictors"
    )
    idx = _resample_indices(fitness, rng, resampler)

    def gather(rows: Optional[np.ndarray]) -> Optional[np.ndarray]:
        return None if rows is None else np.take(rows, idx, axis=0)

    n = ensemble.n_particles
    return replace(
        ensemble,
        states=gather(ensemble.states),
        weights=np.full(n, 1.0 / n),
        predictors=gather(ensemble.predictors),
        innovation_vars=gather(ensemble.innovation_vars),
        derivatives=gather(ensemble.derivatives),
        predictor_loglik=gather(loglik),
    )


def innovation_step(
    ensemble: Ensemble, rng: np.random.Generator, *, time: float, system: OdeSystem
) -> Ensemble:
    """Proliferate: perturb each predictor by N(0, Gamma_n) and shift it in.

    The perturbed predictor becomes the newest block and the ensemble's
    blocks shift back by one, the oldest dropping out; this is the one place
    the block vector shifts. Weights, predictors, innovation covariances and
    predictor log-likelihoods are carried over as they are (the same
    arrays, not copies). ``time`` is the time of the new newest block, the
    step's point on the filter grid t_start + j*h. When ``ensemble`` carries
    derivatives, f of the new newest block is evaluated there with ``system``
    and the older ones shift along.
    """
    _require_propagated(ensemble, "innovation_step")
    noise = np.sqrt(ensemble.innovation_vars) * rng.standard_normal(ensemble.predictors.shape)
    newest = ensemble.predictors + noise
    states = np.concatenate([newest[:, None, :], ensemble.states[:, :-1]], axis=1)
    derivatives = None
    if ensemble.derivatives is not None:
        f_new = system.rhs_batch(time, newest)
        derivatives = np.concatenate([f_new[:, None, :], ensemble.derivatives[:, :-1]], axis=1)
    return replace(
        ensemble,
        states=states,
        time_index=ensemble.time_index + 1,
        time=time,
        derivatives=derivatives,
    )


def weight_update(
    ensemble: Ensemble, observation: ObservationRecord, model: EvolutionObservationModel
) -> Ensemble:
    """Set weights to the likelihood ratio pi(y|x) / pi(y|predictor), normalized.

    log pi(y | predictor) is ``ensemble.predictor_loglik``, which only
    resampling sets, so an ensemble must be resampled before it is reweighted.
    """
    if ensemble.predictor_loglik is None:
        raise ValueError(
            "ensemble has no predictor_loglik: resample it with "
            "survival_of_the_fittest before weight_update"
        )
    ll_state = _log_likelihood(model, observation, ensemble.newest)
    log_ratio = ll_state - ensemble.predictor_loglik
    weights = _normalized_weights(
        log_ratio, ensemble.time_index, observation.time, ensemble.newest, "states"
    )
    return replace(ensemble, weights=weights)


def _observation_schedule(
    observations: Sequence[ObservationRecord], h: float, t_start: float
) -> dict:
    """Records keyed by the grid step of their time."""
    if not observations:
        raise ValueError("observations must be nonempty")
    schedule = {}
    prev_k = 0
    for rec in observations:
        k = step_count(t_start, rec.time, h)
        if k == 0 or -np.inf < rec.time < t_start:
            raise ValueError(
                f"observation at t={rec.time} is at or before t_start={t_start}; "
                f"each must lie at least one step of h={h} after it"
            )
        if k < 1:
            raise ValueError(
                f"observation at t={rec.time} does not sit on the step grid "
                f"(t_start={t_start}, h={h}); stride and step are inconsistent"
            )
        if k <= prev_k:
            raise ValueError("observation times must be strictly increasing")
        schedule[k] = rec
        prev_k = k
    return schedule


def iter_filter(
    config: FilterConfig,
    model: EvolutionObservationModel,
    observations: Sequence[ObservationRecord],
    prior_mean: np.ndarray,
    *,
    t_start: float,
) -> Iterator[Ensemble]:
    """Run the filter over all observations, yielding S_0, S_1, ..., S_T.

    The first ensemble is the initial one. Each record is assimilated at the
    grid step of its ``time`` (its ``time_index`` is not read); steps without
    an observation execute propagation and innovation only. Identical seeds
    give identical output. Each step is computed when the next ensemble is
    requested, so a consumer that drops S_j before asking for S_{j+1} keeps
    about one ensemble alive. Observation times off the step grid or out of
    order, or a ``config.pair`` that differs from ``model.pair`` (which the
    filter runs), raise on the first request; an observation value whose
    shape is not ``measurement_var``'s raises at the step that assimilates it.
    """
    config_pair, model_pair = ((p.label, p.tau, p.eps_floor) for p in (config.pair, model.pair))
    if config_pair != model_pair:
        raise ValueError(
            f"FilterConfig.pair {config_pair} differs from the model's pair {model_pair}"
        )
    h = config.step
    t_start = float(t_start)
    schedule = _observation_schedule(observations, h, t_start)
    last_step = max(schedule)
    rng = np.random.default_rng(config.seed)
    ensemble = initialize(config, prior_mean, rng, model=model, t_start=t_start)
    yield ensemble
    for j in range(1, last_step + 1):
        ensemble = propagate_ensemble(ensemble, model, h)
        record = schedule.get(j)
        if record is not None:
            ensemble = survival_of_the_fittest(
                ensemble, record, model, rng, resampler=config.resampler
            )
        ensemble = innovation_step(ensemble, rng, time=t_start + j * h, system=model.system)
        if record is not None:
            ensemble = weight_update(ensemble, record, model)
        yield ensemble


def run_filter(
    config: FilterConfig,
    model: EvolutionObservationModel,
    observations: Sequence[ObservationRecord],
    prior_mean: np.ndarray,
    *,
    t_start: float,
) -> List[Ensemble]:
    """Run the filter over all observations; returns [S_0, S_1, ..., S_T].

    The whole run held in memory: `iter_filter` as a list.
    """
    return list(iter_filter(config, model, observations, prior_mean, t_start=t_start))
