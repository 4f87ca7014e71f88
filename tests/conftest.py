import numpy as np

from lmmpf.integrators import integrate_problem


def global_error(method, problem, h, t_end=1.0):
    """Max-norm error of a fixed-step integration against the exact solution."""
    times, states = integrate_problem(method, problem, h, t_end=t_end)
    exact = np.stack([problem.exact_solution(t) for t in times])
    return float(np.max(np.abs(states - exact)))


def empirical_order(method, problem, h=0.05, t_end=1.0):
    e1 = global_error(method, problem, h, t_end)
    e2 = global_error(method, problem, h / 2.0, t_end)
    return float(np.log2(e1 / e2))
