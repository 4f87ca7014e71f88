import dataclasses

import numpy as np

from lmmpf.integrators import ImplicitSolveConfig, integrate_problem

TIGHT_SOLVE = ImplicitSolveConfig(max_iterations=100, tolerance=1e-12)


def rk_propagating(method, output):
    """``method`` for ``output="low"``; for ``"high"``, the embedded RK spec
    with its lower-order weights replaced by the higher-order ones, so that
    integrating it propagates the companion order."""
    assert output in ("low", "high"), output
    if output == "high":
        return dataclasses.replace(method, rk_b_low=method.rk_b_high)
    return method


def global_error(method, problem, h, t_end=1.0, output="low"):
    """Max-norm error of a fixed-step integration against the exact solution."""
    times, states = integrate_problem(
        rk_propagating(method, output), problem, h, t_end=t_end, solve=TIGHT_SOLVE
    )
    exact = np.stack([problem.exact_solution(t) for t in times])
    return float(np.max(np.abs(states - exact)))


def empirical_order(method, problem, h=0.05, t_end=1.0, output="low"):
    e1 = global_error(method, problem, h, t_end, output)
    e2 = global_error(method, problem, h / 2.0, t_end, output)
    return float(np.log2(e1 / e2))
