"""`lmmpf sweep` and `lmmpf run` reproduce their recorded outputs byte for byte.

A short sweep over all eight pairs (two V0 values, both resamplers), a sweep
of the AB, AM and BDF3-BDF4 pairs over the problem's full 50-step span, and
three runs (one of N = 2000, whose diagnostics span several moment batches, and
one of N = 4096 with systematic resampling) are compared by the SHA-256 of
their stdout and of every file they write.
Every command uses a vectorized scalar problem, so a library-level run over a
non-vectorized system pins the derivatives an Adams ensemble carries, and an
`emit_outputs` of a two-component system pins the files of a d = 2 run.
"""

import contextlib
import hashlib
import io
import math
import os
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmmpf import svg_plot
from lmmpf.cli import main
from lmmpf.experiment import ResultsTable, TableRow, _trajectory_csv, emit_outputs
from lmmpf.homec import make_pair
from lmmpf.metrics import RunDiagnostics, diagnostics
from lmmpf.ode_models import OdeSystem, TestProblem, smooth_problem, synthesize_observations
from lmmpf.particle_filter import FilterConfig, iter_filter
from lmmpf.state_space import EvolutionObservationModel

PAIRS = "AB1-AB2,AB3-AB4,AM1-AM2,AM3-AM4,BDF1-BDF2,BDF3-BDF4,RK1-RK2,RK4-RK5"
SWEEP = ["sweep", "--problem", "gaussian_decay", "--pair", PAIRS, "--v0", "0.1,0.001",
         "--reps", "2", "--tend", "1.0"]
COMMANDS = {
    "sweep_multinomial": SWEEP + ["--resampler", "multinomial"],
    "sweep_systematic": SWEEP + ["--resampler", "systematic"],
    "sweep_full_span": ["sweep", "--problem", "gaussian_decay", "--pair",
                        "AB1-AB2,AB3-AB4,AM1-AM2,AM3-AM4,BDF3-BDF4", "--v0", "0.1,0.0001",
                        "--reps", "2"],
    "run_smooth": ["run", "--problem", "smooth", "--pair", "AM3-AM4", "--reps", "2",
                   "--tend", "1.0", "--stride", "2"],
    # N = 2000 puts 8 steps in each of the diagnostics' moment batches, and 3 in the last
    "run_batched_moments": ["run", "--problem", "gaussian_decay", "--pair", "AB3-AB4",
                            "--nsample", "2000", "--reps", "1"],
    # systematic draws over the bucketed ancestor lookup (N >= 1024)
    "run_systematic": ["run", "--problem", "gaussian_decay", "--pair", "AB3-AB4",
                       "--nsample", "4096", "--resampler", "systematic", "--tend", "1",
                       "--reps", "1"],
}

# SHA-256 of "<outdir>/stdout" and of "<outdir>/<file>" for each written file
GOLDEN = {
    "sweep_multinomial/stdout": "cd6a0e2c9a8cb1db5fbcb0222cd3640b02478df381948e4e8067fdc2ba349124",
    "sweep_multinomial/table.csv": "9dd77cf2f790ebf87def7f33f4b52c23ccd880a017694e98a2659c7945afd534",
    "sweep_systematic/stdout": "f31d600a32cfb248d2c08c6b25a1e03b5ef7adba528747fea82ba5bcfb26595e",
    "sweep_systematic/table.csv": "910a32352ea8502baf55c7f34eb33eb399fc9aa31e02d91f549b8ebfd43ab941",
    "sweep_full_span/stdout": "51685bcdb388602fc3ccc02559a75ee72d650fb13bbbd8ca1a2427b75bbff6db",
    "sweep_full_span/table.csv": "b874f84ef6e3d42786d75fedf6c9a6e13eba49765ee91e2b65c89c1ab279f055",
    "run_smooth/stdout": "9777659098bb1c88d7d3b30907185fd5db6c4511c79e863c77bd66becc5a296e",
    "run_smooth/plot_00.svg": "a2b15d8c1a07fcc15d314da2076cb8c1f15162d413450991216784bfc696ab73",
    "run_smooth/plot_01.svg": "6288644bfe591d8842aa853a1a789d064ce09c3093fd3d74bb03e26f8e7d2ac5",
    "run_smooth/table.csv": "97987a71a9a2d856262525a5fa6e8a0d8421f54a8a07e0e372434ec81e1fed7f",
    "run_smooth/trajectory_00.csv": "e93edf4937a0de3a78069485cb3624cef9f167699caf00f454da0e14138ea16c",
    "run_smooth/trajectory_01.csv": "4e0c7639846a94a95ed0bef76ce59000e08c74e6fabe44126fb4f91c051c28a2",
    "run_batched_moments/stdout": "61e058695d241587ba73eb90ddbf0d78ea05c1c1f1f87b39aa67ff440a3306ee",
    "run_batched_moments/plot.svg": "309649b898decbd45f5c8ed2921231b91a6768750845dffb56a82e6ecfdcaa0b",
    "run_batched_moments/table.csv": "780bbb04b5b80945005cacad0f153387b65cc728897767b90e1982959366382e",
    "run_batched_moments/trajectory.csv": "c559ab6d3b7b2a33392c10e252dcd8614cbca8e2cb713bdca4e783508744b70b",
    "run_systematic/stdout": "7f85be59e086bd2e54fce911d58308b724cc7ca91b512956d0197e8cb69682f5",
    "run_systematic/plot.svg": "0f14aa2e4d58cde70ed42fb7e2e0639bdbeefe6e65936b8ea894da7b2a176f55",
    "run_systematic/table.csv": "0d2de973226c7c0f02226f79f1f5775137c7c697b614ecc24dc0a42e4a11fa5f",
    "run_systematic/trajectory.csv": "b6d254c26a1fa0ea82936c045b1d4882f1e4ac38560b44f229a2666f7185f2ea",
}


def output_digests():
    """Run each command in the working directory, its name as the output directory."""
    digests = {}
    for outdir, argv in COMMANDS.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv + ["--outdir", outdir]) == 0, outdir
        digests[f"{outdir}/stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
        for name in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, name), "rb") as fh:
                digests[f"{outdir}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def test_cli_outputs_match_the_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digests = output_digests()
    changed = sorted(
        name for name in GOLDEN.keys() | digests.keys() if GOLDEN.get(name) != digests.get(name)
    )
    assert not changed, (
        f"outputs differ from the recorded digests: {', '.join(changed)}. A deliberate output "
        "change must update GOLDEN in this file and record that in CHANGES.md."
    )


# SHA-256 of the `diagnostics` of a carried-derivative run, by pair
CARRIED_GOLDEN = {
    "AB3-AB4": "ec492b75111eab60338b2d0b967b92764e070d16341a5e087bdeebcefbee3c35",
    "AM3-AM4": "ba7f24dd56005d7a8834d312881c91a5f47e0e07269ee49eb52f4578b5893c49",
}


def carried_derivative_digest(pair_id):
    """`iter_filter` over a non-vectorized smooth system (N = 50, 20 steps of
    0.1, observed every 2nd), digested through `diagnostics`."""
    problem = smooth_problem()
    system = OdeSystem(dimension=1, rhs=problem.system.rhs, vectorized=False)
    pair = make_pair(pair_id)
    model = EvolutionObservationModel(system=system, pair=pair, measurement_var=np.array([0.0025]))
    times = 0.1 * np.arange(2, 21, 2)
    records = synthesize_observations(problem, times, 0.05, np.random.default_rng(7))
    config = FilterConfig(n_particles=50, initial_variance=0.01, step=0.1, pair=pair, seed=3)
    run = iter_filter(config, model, records, problem.initial_state, t_start=0.0)
    d = diagnostics(run, problem.exact_solution)
    digest = hashlib.sha256()
    for arr in (d.times, d.ensemble_means, d.sample_variances, d.absolute_errors, d.exact_values):
        digest.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    digest.update(repr((d.error_inf_norm, d.variance_2norm)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("pair_id", sorted(CARRIED_GOLDEN))
def test_carried_derivative_run_matches_its_recorded_digest(pair_id):
    assert carried_derivative_digest(pair_id) == CARRIED_GOLDEN[pair_id], (
        f"{pair_id}: a deliberate output change must update CARRIED_GOLDEN and record it in "
        "CHANGES.md."
    )


# SHA-256 of each file `emit_outputs` writes for two runs of a d = 2 system
TWO_STATE_GOLDEN = {
    "plot_00.svg": "c6f57305b88d9abd237921081195d02d1d14a71e10f5a398db8958367edff57f",
    "plot_01.svg": "d5712bd5b4b00508bec37833cb14738479023d3e38531fe36c13c4ee3034fef6",
    "table.csv": "8249c31d165f09e37f60935e1cbbb5c312ce19838953c61d2fe20c565e8f209d",
    "trajectory_00.csv": "08a19dd707123b1d629a3fae237cdcf29c5a25fb379b5fc29b46bbc394811cc5",
    "trajectory_01.csv": "b96e039e533dd7f12e1a472f738022734fd7d6f7a5f0c39eab3f7488b0afa43c",
}


def two_state_output_digests(outdir):
    """Two AB3-AB4 runs (N = 40, 20 steps of 0.1, both components observed every
    2nd step) of independent linear decay at rates 0.5 and 2, written by
    `emit_outputs` into ``outdir`` under a one-row table."""
    rates = np.array([0.5, 2.0])
    system = OdeSystem(dimension=2, rhs=lambda t, u, params: -rates * u, vectorized=True)
    problem = TestProblem(system, np.ones(2), (0.0, 2.0), lambda t: np.exp(-rates * t))
    pair = make_pair("AB3-AB4")
    model = EvolutionObservationModel(system=system, pair=pair, measurement_var=np.full(2, 1e-3))
    times = 0.1 * np.arange(2, 21, 2)
    records = synthesize_observations(problem, times, 0.03, np.random.default_rng(5))
    diags = []
    for seed in (1, 2):
        config = FilterConfig(n_particles=40, initial_variance=1e-3, step=0.1, pair=pair, seed=seed)
        run = iter_filter(config, model, records, problem.initial_state, t_start=0.0)
        diags.append(diagnostics(run, problem.exact_solution))
    errs = [d.error_inf_norm for d in diags]
    variances = [d.variance_2norm for d in diags]
    row = TableRow(
        "AB3-AB4", 1e-3, float(np.mean(errs)), float(np.mean(variances)), (min(errs), max(errs)),
        (min(variances), max(variances)), 2.0, len(diags),
    )
    digests = {}
    for path in emit_outputs(ResultsTable([row]), diags, str(outdir)):
        with open(path, "rb") as fh:
            digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def test_two_component_outputs_match_their_recorded_digests(tmp_path):
    digests = two_state_output_digests(tmp_path)
    changed = sorted(
        name for name in TWO_STATE_GOLDEN.keys() | digests.keys()
        if TWO_STATE_GOLDEN.get(name) != digests.get(name)
    )
    assert not changed, (
        f"d = 2 outputs differ from the recorded digests: {', '.join(changed)}. A deliberate "
        "output change must update TWO_STATE_GOLDEN and record it in CHANGES.md."
    )


EDGE_VALUES = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 2.2250738585072014e-308,
               1e300, -3.7e-300, 1.7976931348623157e308, 0.1, -123.456]
VALUES = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def trajectories(draw):
    """(T, d, flat values) for T in {1, 2, 51}, d in {1, 2, 3}: T times and 4 (T, d) arrays."""
    t, d = draw(st.sampled_from([1, 2, 51])), draw(st.sampled_from([1, 2, 3]))
    n = t * (1 + 4 * d)
    return t, d, np.array(draw(st.lists(VALUES, min_size=n, max_size=n)))


def reference_csv(diag):
    names = ("mean", "exact", "abs_error", "variance")
    d = diag.ensemble_means.shape[1]
    header = ["t"] + [name if d == 1 else f"{name}_{k}" for name in names for k in range(d)]
    rows = np.column_stack([diag.times, diag.ensemble_means, diag.exact_values,
                            diag.absolute_errors, diag.sample_variances])
    lines = [",".join(header)] + [",".join(f"{v:.17g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


@settings(deadline=None, database=None, max_examples=40)
@given(trajectories())
def test_trajectory_csv_is_the_text_of_one_f_string_per_value(drawn):
    t, d, flat = drawn
    times, blocks = flat[:t], flat[t:].reshape(4, t, d)
    diag = RunDiagnostics(times, blocks[0], blocks[3], blocks[2], blocks[1], 0.0, 0.0)
    assert _trajectory_csv(diag) == reference_csv(diag)


def reference_points(x, curves):
    """Each polyline's points attribute, one f-string per coordinate.

    Bounds come from the finite values, a flat y range widens by max(1, ulp),
    y is drawn in units of 16 where 4 padded spans would overflow (the bounds
    clamped to the largest float), and a point whose coordinates are not both
    finite ends its polyline.
    """
    x = [float(v) for v in x]
    xs = [v for v in x if math.isfinite(v)] or [0.0]
    ys = [float(v) for _, _, vals in curves for v in vals if math.isfinite(v)] or [0.0]
    x_lo, x_hi = min(xs), max(xs)
    for unit in (1.0, 16.0):
        y_lo, y_hi = min(ys) / unit, max(ys) / unit
        if y_hi == y_lo:
            spread = max(1.0, math.ulp(y_lo))
            y_lo, y_hi = y_lo - spread, y_hi + spread
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad
        if math.isfinite(4 * (y_hi - y_lo)):
            break
    y_lo, y_hi = max(y_lo, -sys.float_info.max / unit), min(y_hi, sys.float_info.max / unit)
    w = svg_plot.WIDTH - svg_plot.MARGIN_L - svg_plot.MARGIN_R
    h = svg_plot.HEIGHT - svg_plot.MARGIN_T - svg_plot.MARGIN_B
    x_span = x_hi - x_lo if x_hi > x_lo else 1.0
    lines = []
    for _, _, vals in curves:
        line = []
        for vx, vy in zip(x, vals):
            px = svg_plot.MARGIN_L + w * (vx - x_lo) / x_span
            py = svg_plot.MARGIN_T + h * (1.0 - (float(vy) / unit - y_lo) / (y_hi - y_lo))
            if math.isfinite(px) and math.isfinite(py):
                line.append(f"{px:.2f},{py:.2f}")
            elif line:
                lines.append(" ".join(line))
                line = []
        if line:
            lines.append(" ".join(line))
    return lines


@settings(deadline=None, database=None, max_examples=40)
@given(trajectories())
def test_polyline_points_are_the_text_of_one_f_string_per_coordinate(drawn):
    t, d, flat = drawn
    times, blocks = flat[:t], flat[t:].reshape(4, t, d)
    curves = [(f"c{k}", "black", blocks[k % 4][:, k // 4]) for k in range(min(3, 4 * d))]
    svg = svg_plot.render_line_plot("edge", times, curves)
    assert re.findall(r'<polyline points="([^"]*)"', svg) == reference_points(times, curves)
