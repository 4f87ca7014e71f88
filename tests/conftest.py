import numpy as np

from lmmpf.integrators import ImplicitSolveConfig, integrate_problem

TIGHT_SOLVE = ImplicitSolveConfig(max_iterations=100, tolerance=1e-12)


def global_error(method, problem, h, t_end=1.0, rk_output="low"):
    """Max-norm error of a fixed-step integration against the exact solution."""
    times, states = integrate_problem(
        method, problem, h, t_end=t_end, solve=TIGHT_SOLVE, rk_output=rk_output
    )
    exact = np.stack([problem.exact_solution(t) for t in times])
    return float(np.max(np.abs(states - exact)))


def empirical_order(method, problem, h=0.05, t_end=1.0, rk_output="low"):
    e1 = global_error(method, problem, h, t_end, rk_output)
    e2 = global_error(method, problem, h / 2.0, t_end, rk_output)
    return float(np.log2(e1 / e2))
