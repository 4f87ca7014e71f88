import numpy as np

from lmmpf.integrators import (
    Family,
    history_derivatives,
    rk_combine_batch,
    rk_stages_batch,
    startup_states_batch,
    step_members,
    step_rows,
)
from lmmpf.metrics import diagnostics


def forward_startup(system, u0, t0, h, r):
    """RK startup blocks (N, r, d) ahead of t0, newest (at t0 + (r-1)h) first."""
    # the copy keeps the blocks contiguous, so einsum results keep their bits
    return startup_states_batch(system, u0, t0, -h, r)[:, ::-1].copy()


def one_step(method, system, t, blocks, derivs, h):
    """One step (N, d) of one method from its history, by the routines a pair step runs."""
    if method.family is Family.RUNGE_KUTTA_EMBEDDED:
        u = blocks[:, 0]
        return rk_combine_batch(method, u, rk_stages_batch(method, system, t, u, h), h)
    rows = step_rows((method,), method.steps)
    return step_members((method,), rows, system, t, blocks, derivs, h)[0]


def integrate_trajectory(method, problem, h, t_end):
    """Fixed-step integration of one method from the problem's initial state;
    returns (times, states).

    The first r-1 states come from the forward RK startup; every step then
    evaluates f afresh at each history block.
    """
    r = method.steps
    n_steps = int(round((t_end - problem.t_span[0]) / h))
    times = problem.t_span[0] + h * np.arange(n_steps + 1)
    blocks = forward_startup(problem.system, problem.initial_state, times[0], h, r)
    out = [blocks[0, r - 1 - i] for i in range(min(r, n_steps + 1))]
    for j in range(r - 1, n_steps):
        derivs = history_derivatives(problem.system, blocks, times[j], h)
        u_new = one_step(method, problem.system, times[j], blocks, derivs, h)
        blocks = np.concatenate([u_new[:, None, :], blocks[:, : r - 1]], axis=1)
        out.append(u_new[0])
    return times, np.stack(out)


def global_error(method, problem, h, t_end=1.0):
    """Max-norm error of a fixed-step integration against the exact solution."""
    times, states = integrate_trajectory(method, problem, h, t_end)
    exact = np.stack([problem.exact_solution(t) for t in times])
    return float(np.max(np.abs(states - exact)))


def empirical_order(method, problem, h=0.05, t_end=1.0):
    e1 = global_error(method, problem, h, t_end)
    e2 = global_error(method, problem, h / 2.0, t_end)
    return float(np.log2(e1 / e2))


def moments(ensemble):
    """Weighted mean and variance of the newest block, as `diagnostics` takes them."""
    d = diagnostics([ensemble], lambda t: 0.0)  # errors against this truth go unread
    return d.ensemble_means[0], d.sample_variances[0]
