"""Auxiliary particle filter driven by a multistep-integrator pair.

A filter step runs four stages: `propagate_ensemble` returns each particle's
pair step (the predictor) and an innovation covariance from the pair
discrepancy; at observation times `survival_of_the_fittest` draws ancestors
by predictor fitness and gathers those arrays by them; `innovation_step`
perturbs the predictors and shifts them in ahead of the (ancestors') history;
at observation times `weight_update` reweights by the observation-likelihood
ratio. Only the `Ensemble` crosses from one step to the next; the step's
other per-particle arrays pass between its stages as arguments and results.

Random draws are consumed in a fixed order so replay under one seed is
byte-identical: the prior draw at initialization (one (N, d) normal block),
then per step the resampler's uniforms (see `RESAMPLERS`; none between
observations) followed by one (N, d) innovation normal block.
All operations return new arrays and ensembles and never write to their
inputs. To avoid copies, an ensemble may hold the very arrays it was built
from (an unobserved step's ensemble holds the weights of the one before it),
so every ensemble array must be treated as read-only; uniform weights are
one read-only (N,) array per N, shared by every ensemble.

For a system whose rhs is not vectorized (``rhs_batch`` loops over the
particles in Python) and a pair that reads history derivatives (AB, AM), the
filter's own ensemble carries the f-values of its history blocks, so a step
evaluates the rhs once, for the block innovation creates, instead of once per
block. The cache only serves the next step: ensembles `iter_filter` yields,
and so those `run_filter` keeps, carry none. For a time-dependent rhs a
carried value is f at the filter clock of the step that made the block,
which can differ from t - i*h in the last ulp; see `Ensemble`. Vectorized
systems evaluate all r blocks as before.
"""

import math
import operator
from dataclasses import dataclass, replace
from functools import lru_cache
from numbers import Real
from typing import Iterator, List, Optional, Sequence, Tuple

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


# From this many particles on, `inverse_cdf_indices` looks ancestors up in a
# bucket table; below it one binary search per uniform is faster (the
# measured crossover for multinomial draws).
_BUCKETED_MIN = 1024
# Passes over all lookups that each step one index past the bucket bound;
# the few still stepping in the last fall back to a binary search.
_STEP_PASSES = 4
# x + 2^52 holds round(x) in its low mantissa bits for 0 <= x < 2^51
_ROUNDER = 2.0**52
_ROUNDER_BITS = int(np.float64(_ROUNDER).view(np.int64))


def _buckets(x: np.ndarray, scale: float, offset: int = 0) -> np.ndarray:
    """round(x * scale) + offset as int64 for x >= 0, non-decreasing in x.

    The bit pattern of x * scale + 2^52, less that of 2^52, is the rounded
    value below 2^51 and grows with x beyond it: three passes, where a cast
    to int64 costs several times more.
    """
    shifted = np.multiply(x, scale)
    shifted += _ROUNDER
    bits = shifted.view(np.int64)
    bits -= _ROUNDER_BITS - offset
    return bits


@lru_cache(maxsize=16)
def _uniform_weights(n: int) -> np.ndarray:
    """The read-only (n,) weights 1/n that uniformly weighted ensembles of n share."""
    weights = np.full(n, 1.0 / n)
    weights.flags.writeable = False
    return weights


def _check_resampler(name: str):
    if not isinstance(name, str) or name not in RESAMPLERS:
        raise ValueError(f"unknown resampler {name!r}; valid resamplers: {', '.join(RESAMPLERS)}")


def _check_integer(name: str, value, least: int):
    """``value`` must be an integer (a numpy integer too) of at least ``least``."""
    if not hasattr(type(value), "__index__") or operator.index(value) < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


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


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Weighted particle sample at one time index, stored as stacked arrays.

    ``states`` holds each particle's history blocks (N, r, d) newest first.

    ``derivatives`` (N, r, d) is set only for a non-vectorized system and a
    pair that uses history derivatives, in the ensembles a filter loop steps
    from (`iter_filter` yields none): ``derivatives[n, i]`` is f of
    ``states[n, i]`` at the filter time at which that block was newest
    (``t_start - i*h`` for the initial ensemble). For an autonomous rhs, and
    for every vectorized system (which recompute f at ``time - i*h``), runs
    are bit-identical to evaluating all blocks each step. For a
    time-dependent non-vectorized rhs the grid time ``t_start + (j - i)*h``
    of block i at step j can differ from ``time - i*h`` in the last ulp, so
    states can drift from the recompute path at rounding level; replay
    under one seed stays byte-identical.
    """

    states: np.ndarray
    weights: np.ndarray
    time_index: int
    time: float
    derivatives: Optional[np.ndarray] = None

    @property
    def newest(self) -> np.ndarray:
        """Newest state block per particle, shape (N, d)."""
        return self.states[:, 0]


@dataclass(frozen=True, eq=False)
class FilterConfig:
    n_particles: int
    initial_variance: float
    step: float
    pair: MethodPair
    resampler: str = next(iter(RESAMPLERS))
    seed: int = 0

    def __post_init__(self):
        _check_integer("n_particles", self.n_particles, 2)
        _check_integer("seed", self.seed, 0)
        if not (isinstance(self.initial_variance, Real) and 0.0 < self.initial_variance < np.inf):
            raise ValueError("initial_variance must be positive and finite")
        if not (isinstance(self.step, Real) and 0.0 < self.step < np.inf):
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
    return Ensemble(
        states=blocks, weights=_uniform_weights(n), time_index=0, time=t_start,
        derivatives=derivatives,
    )


def propagate_ensemble(
    ensemble: Ensemble, model: EvolutionObservationModel, h: float
) -> Tuple[np.ndarray, np.ndarray]:
    """(predictors, innovation_vars), each (N, d): every particle's low-order pair
    step, the newest block before innovation perturbs it, and its innovation variances."""
    return propagate_blocks(
        model.pair, model.system, ensemble.states, ensemble.time, h, derivs=ensemble.derivatives
    )


def _normalized_weights(
    log_values: np.ndarray, time_index: int, time: float, rows: np.ndarray, name: str
) -> np.ndarray:
    """Normalized exp(log_values), or `LikelihoodUnderflowError` counting non-finite ``rows``."""
    m = log_values.max()
    if not math.isfinite(m):
        bad = np.count_nonzero(~np.isfinite(rows).all(axis=1))
        non_finite = f"{bad} of {len(rows)} {name} hold nan or inf" if bad else ""
        raise LikelihoodUnderflowError(time_index, time, float(m), non_finite)
    w = log_values - m
    np.exp(w, out=w)
    w /= w.sum()
    return w


def inverse_cdf_indices(cumw: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Ancestor indices: smallest k with cumw[k] > u for each u in us, at most n - 1.

    From `_BUCKETED_MIN` particles on, each u goes to bucket B(u) = round(u * (n - 2) / cumw[-1]).
    B is non-decreasing, so the k with B(cumw[k]) < B(u), counted from a table of bucket sizes,
    all have cumw[k] < u: a lower bound on the answer. Each u then steps forward while
    cumw[index] <= u, for `_STEP_PASSES` passes and then by binary search; every step
    compares against cumw itself, so each index is the one ``cumw.searchsorted(u, side="right")``
    gives. Neither input is written to.
    """
    n = cumw.shape[0]
    total = float(cumw[-1]) if n >= _BUCKETED_MIN else 0.0
    # dividing by cumw[-1] keeps the count table near n entries whatever the total, and
    # n - 2 buckets make it exactly n, the length of every other buffer here: with n
    # buckets the allocator's free blocks fitted worse and peak RSS rose at N = 10^5
    scale = (n - 2) / total if total > 0.0 else 0.0
    if not (0.0 < scale < math.inf and cumw[0] >= 0.0):
        return np.minimum(cumw.searchsorted(us, side="right"), n - 1)
    lo = np.bincount(_buckets(cumw, scale, 1))
    np.cumsum(lo, out=lo)  # lo[b]: how many k have B(cumw[k]) < b, n past the table's end
    keys = _buckets(us, scale)
    idx = lo.take(keys, mode="clip")
    del lo
    at_idx = keys.view(np.float64)  # the keys' buffer, reused for cumw[idx]
    ahead = np.empty(us.shape[0], dtype=bool)
    # past n (every cumw[k] <= u) an index steps on against cumw[n - 1]; the clamp undoes that
    for _ in range(_STEP_PASSES):
        np.less_equal(cumw.take(idx, mode="clip", out=at_idx), us, out=ahead)
        if not ahead.any():
            return np.minimum(idx, n - 1, out=idx)
        idx += ahead
    act = np.flatnonzero(ahead)  # stepped in the last pass, so perhaps still short
    idx[act] = cumw.searchsorted(us[act], side="right")
    return np.minimum(idx, n - 1, out=idx)


def _log_likelihood(
    model: EvolutionObservationModel, observation: ObservationRecord, newest: np.ndarray
) -> np.ndarray:
    """log pi(y | newest) per row; the model's shape error gains the observation time."""
    try:
        return model.log_likelihood_batch(observation.value, newest)
    except ValueError as exc:
        where = f"observation at t={observation.time}"
        raise ValueError(str(exc).replace("observation", where, 1)) from None


def survival_of_the_fittest(
    ensemble: Ensemble, predictors: np.ndarray, innovation_vars: np.ndarray,
    observation: ObservationRecord, model: EvolutionObservationModel, rng: np.random.Generator,
    *, resampler: str = FilterConfig.resampler,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Resample particles with replacement by normalized predictor fitness.

    Fitness of particle n is w_n * pi(y | predictor_n). Returns the (N,)
    ancestor indices, which `innovation_step` gathers the ensemble's history
    by, and by them the predictors, the innovation variances and the predictor
    log-likelihoods (N,) that `weight_update` reads.
    """
    loglik = _log_likelihood(model, observation, predictors)
    with np.errstate(divide="ignore"):
        log_fitness = np.log(ensemble.weights) + loglik
    fitness = _normalized_weights(
        log_fitness, ensemble.time_index + 1, observation.time, predictors, "predictors"
    )
    _check_resampler(resampler)
    idx = inverse_cdf_indices(fitness.cumsum(), RESAMPLERS[resampler](rng, fitness.shape[0]))
    return idx, *(a.take(idx, axis=0) for a in (predictors, innovation_vars, loglik))


def _shift_in(newest: np.ndarray, history: np.ndarray, ancestors: Optional[np.ndarray]):
    """A new (N, r, d) history: ``newest`` (N, d) as block 0, then the blocks of
    ``history``'s rows (rows ``ancestors``, if given) moved back by one."""
    if ancestors is None or history.shape[1] == 1:  # r = 1 drops the only block
        return np.concatenate([newest[:, None, :], history[:, :-1]], axis=1)
    out = history.take(ancestors, axis=0)
    for i in range(out.shape[1] - 1, 0, -1):  # oldest first: each copy reads an unmoved block
        out[:, i] = out[:, i - 1]
    out[:, 0] = newest
    return out


def innovation_step(
    ensemble: Ensemble, predictors: np.ndarray, innovation_vars: np.ndarray,
    rng: np.random.Generator, *, time: float, system: OdeSystem,
    ancestors: Optional[np.ndarray] = None,
) -> Ensemble:
    """Proliferate: perturb each predictor by N(0, Gamma_n) and shift it in.

    The perturbed predictor becomes the newest block and the ensemble's
    blocks shift back by one, the oldest dropping out; this is the one place
    the block vector shifts. With ``ancestors`` from `survival_of_the_fittest`,
    particle n's older blocks are particle ``ancestors[n]``'s, gathered into
    the new array, and weights become uniform; without, weights are carried
    over (the same array, not a copy). ``time`` is the time of the new newest
    block, the step's point on the filter grid t_start + j*h. When ``ensemble``
    carries derivatives, f of the new newest block is evaluated there with
    ``system`` and the older ones shift along.
    """
    noise = np.sqrt(innovation_vars) * rng.standard_normal(predictors.shape)
    newest = predictors + noise
    derivatives = ensemble.derivatives
    if derivatives is not None:
        derivatives = _shift_in(system.rhs_batch(time, newest), derivatives, ancestors)
    return Ensemble(
        states=_shift_in(newest, ensemble.states, ancestors),
        weights=ensemble.weights if ancestors is None else _uniform_weights(len(ancestors)),
        time_index=ensemble.time_index + 1, time=time, derivatives=derivatives,
    )


def weight_update(
    ensemble: Ensemble, predictor_loglik: np.ndarray, observation: ObservationRecord,
    model: EvolutionObservationModel,
) -> Ensemble:
    """Set weights to the likelihood ratio pi(y|x) / pi(y|predictor), normalized.

    ``predictor_loglik`` is log pi(y | predictor), as resampling returned it.
    """
    ll_state = _log_likelihood(model, observation, ensemble.newest)
    log_ratio = ll_state - predictor_loglik
    weights = _normalized_weights(
        log_ratio, ensemble.time_index, observation.time, ensemble.newest, "states"
    )
    return Ensemble(
        states=ensemble.states, weights=weights, time_index=ensemble.time_index,
        time=ensemble.time, derivatives=ensemble.derivatives,
    )


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
        if k is None:
            raise ValueError(
                f"observation at t={rec.time} does not sit on the step grid "
                f"(t_start={t_start}, h={h}); stride and step are inconsistent"
            )
        if k < 1:
            raise ValueError(
                f"observation at t={rec.time} is at or before t_start={t_start}; "
                f"each must lie at least one step of h={h} after it"
            )
        if k <= prev_k:
            raise ValueError("observation times must be strictly increasing")
        schedule[k] = rec
        prev_k = k
    return schedule


def _step(
    ensemble: Ensemble, model: EvolutionObservationModel, record: Optional[ObservationRecord],
    rng: np.random.Generator, h: float, time: float, resampler: str,
) -> Ensemble:
    """One filter step to ``time``, ``record`` None between observations; its
    predictor arrays are freed when it returns."""
    predictors, innovation_vars = propagate_ensemble(ensemble, model, h)
    ancestors = None
    if record is not None:
        ancestors, predictors, innovation_vars, predictor_loglik = survival_of_the_fittest(
            ensemble, predictors, innovation_vars, record, model, rng, resampler=resampler
        )
    ensemble = innovation_step(ensemble, predictors, innovation_vars, rng, time=time,
                               system=model.system, ancestors=ancestors)
    if record is not None:
        ensemble = weight_update(ensemble, predictor_loglik, record, model)
    return ensemble


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
    Yielded ensembles carry no ``derivatives``: the f-cache only serves the
    next step, which starts from the filter's own ensemble.
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
    for j in range(last_step + 1):
        if j:
            ensemble = _step(
                ensemble, model, schedule.get(j), rng, h, t_start + j * h, config.resampler
            )
        yield ensemble if ensemble.derivatives is None else replace(ensemble, derivatives=None)


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
