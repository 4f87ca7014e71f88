"""Benchmark of the lmmpf particle filter, end to end and by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Each workload runs closed-loop: one caller, filter runs back to back, whole
passes over the workload's units until the time is spent. With ``--trace 0``
the last stdout line is a JSON object with the end-to-end metrics; with
``--trace 1`` the same passes run once without and once with the layer
tracer, and the metrics are the per-layer ones. Results, the environment
record and the span file go to ``.perfbench/`` in the checkout.

The program is imported from ``src/`` of the checkout this file sits in; the
benchmark exits with a non-zero code and prints no result when it is not there.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("paper_sweep", "large_ensemble", "scalar_rhs")
SETUP_SAMPLES = 7  # this process plus six fresh ones
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def load_program():
    """Import lmmpf from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "lmmpf", "__init__.py")):
        sys.exit(f"perfbench: no lmmpf sources under {SRC}")
    sys.path.insert(0, SRC)
    import lmmpf

    if not os.path.abspath(lmmpf.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported lmmpf from {lmmpf.__file__}, not from {SRC}")
    return lmmpf


# ------------------------------------------------------------ measurement


# The machine this benchmark was tuned on (2 vCPUs of an Intel Xeon VM)
# changes speed by up to 2.4x over seconds with nothing else running: a fixed
# loop's time swings that much, and a slow stretch can outlast a whole run.
# So a fixed reference kernel shaped like the workload's bottleneck is timed
# between filter runs, and every time t is reported scaled to the kernel's
# nominal speed: t * nominal / r, with r the mean of the kernel's times just
# before and just after t. Raw wall times go to the result file beside them.
REF_EVERY_S = 0.1  # longest wait between two reference samples


def interpreter_kernel():
    """Fixed interpreter work and small numpy calls, like a filter step's overhead."""
    a = np.arange(64.0)
    total = 0.0
    for i in range(300):
        total += float((a * i).sum()) + i * 0.5
    return total


def array_kernel():
    """Fixed search, gather and scan over 10^5 floats, like resampling at N = 10^5."""
    x = np.linspace(0.0, 1.0, 100_000)
    idx = np.searchsorted(x, x[::-1] * 0.999, side="right") % x.size
    return float(np.cumsum(x[idx])[-1])


# kernel name -> (kernel, its time in the tuning machine's fast stretches)
REFERENCE_KERNELS = {
    "interpreter": (interpreter_kernel, 5.5e-4),
    "array": (array_kernel, 3.7e-3),
}


def reference_time(kernel):
    """Fastest of three runs of a reference kernel, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Measurement:
    """What one measurement saw: timed steps, reference samples, failures."""

    def __init__(self, bound_by="interpreter"):
        self.kernel, self.nominal_s = REFERENCE_KERNELS[bound_by]
        self.kernel()  # the first call in a process pays for page faults
        # (unit index, or -1 for the after-pass step; wall s; index into
        # refs of the reference sample taken last before the step)
        self.log = []
        self.refs = [reference_time(self.kernel)]
        self._ref_at = time.perf_counter()
        self.pass_s = []  # wall time of each whole pass
        self.attempted = 0
        self.failed = 0
        self.errors = []  # error inf-norm of each unit, first pass
        self.problems = []

    def record(self, i, wall_s):
        self.log.append((i, wall_s, len(self.refs) - 1))

    def probe(self, force=False):
        """Take a reference sample if the last one is old, or if forced."""
        if force or time.perf_counter() - self._ref_at >= REF_EVERY_S:
            self.refs.append(reference_time(self.kernel))
            self._ref_at = time.perf_counter()

    def scaled(self):
        """(unit index, wall s at the nominal reference speed) per logged step."""
        return [
            (i, wall * 2.0 * self.nominal_s / (self.refs[k] + self.refs[k + 1]))
            for i, wall, k in self.log
        ]

    @property
    def runs(self):
        return sum(1 for i, _, _ in self.log if i >= 0)


def _fingerprint(diag):
    return b"".join(
        a.tobytes()
        for a in (diag.times, diag.ensemble_means, diag.sample_variances, diag.absolute_errors)
    )


def _check_run(workload, diag):
    """Reason the run's output is wrong, or None."""
    for name in ("ensemble_means", "sample_variances", "absolute_errors"):
        if not np.all(np.isfinite(getattr(diag, name))):
            return f"non-finite {name}"
    if not diag.error_inf_norm < workload.err_limit:
        return f"error inf-norm {diag.error_inf_norm:.4g} >= {workload.err_limit:.4g}"
    return None


def run_unit(workload, i, m, reference, tracer=None):
    """Run unit i once; record its time, check it against its first run."""
    unit = workload.units[i]
    m.attempted += 1
    t0 = time.perf_counter()
    try:
        if tracer is None:
            diag = unit.run()
        else:
            diag = tracer.root("bench.unit", unit.run)
    except Exception:
        m.failed += 1
        m.problems.append(f"{unit.label}: raised\n{traceback.format_exc()}")
        return None
    elapsed = time.perf_counter() - t0
    problem = _check_run(workload, diag)
    if problem is None:
        fp = _fingerprint(diag)
        if reference.setdefault(i, fp) != fp:
            problem = "replay under the same seed gave a different trajectory"
    if problem is not None:
        m.failed += 1
        m.problems.append(f"{unit.label}: {problem}")
        return None
    m.record(i, elapsed)
    return diag


def measure(workload, seconds, reference, tracer=None, passes=None):
    """Whole passes over the units, ending as near ``seconds`` as they allow.

    At least one pass runs. With ``passes`` set, exactly that many run.
    ``reference`` maps unit index to its first trajectory; every later run
    of the unit must reproduce it byte for byte.
    """
    m = Measurement(workload.bound_by)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        diags = []
        for i in range(len(workload.units)):
            diags.append(run_unit(workload, i, m, reference, tracer))
            m.probe()
        if workload.after_pass is not None and all(d is not None for d in diags):
            m.attempted += 1
            t1 = time.perf_counter()
            try:
                if tracer is None:
                    workload.after_pass(diags)
                else:
                    tracer.root("bench.after_pass", workload.after_pass, diags)
                m.record(-1, time.perf_counter() - t1)
            except Exception:
                m.failed += 1
                m.problems.append(f"after pass: {traceback.format_exc()}")
        m.probe(force=True)
        m.pass_s.append(time.perf_counter() - t0)
        if not m.errors:
            m.errors = [d.error_inf_norm for d in diags if d is not None]
        done = len(m.pass_s)
        if passes is not None:
            if done >= passes:
                break
        elif time.perf_counter() - start + 0.5 * sum(m.pass_s) / done > seconds:
            break
    return m


# ------------------------------------------------------------ reporting


def percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


def setup_probe_times(args, n):
    """(set-up s, interpreter kernel s) of n fresh processes, timed from their start."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        setup_s, ref_s = proc.stdout.split()[-2:]
        out.append((float(setup_s), float(ref_s)))
    return out


def blas_record():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:  # the config layout is not a stable numpy API
        return {"name": "unknown", "version": "unknown"}


def git_commit():
    """HEAD commit read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(lmmpf):
    accel = getattr(lmmpf, "accel_mode", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "accel_mode": accel() if callable(accel) else "missing",
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def timings(workload, log):
    """(particle steps per s, run ms p50, run ms p90) from (unit, s) pairs.

    Each unit, and the after-pass step (unit -1), counts with the median of
    its runs, so one run caught by a slow stretch the reference samples
    missed moves nothing. Run-time percentiles are over the units, one value
    each: a percentile over all runs pooled would jump across the gap
    between pairs of different cost whenever the pass count changes
    (``scalar_rhs`` has two units, one twice as slow as the other).
    """
    per_unit = {}
    for i, t in log:
        per_unit.setdefault(i, []).append(t)
    median_s = {i: float(np.median(ts)) for i, ts in per_unit.items()}
    steps = sum(workload.units[i].n_particles * workload.units[i].n_steps for i in median_s if i >= 0)
    unit_ms = [1e3 * t for i, t in median_s.items() if i >= 0]
    return steps / sum(median_s.values()), percentile(unit_ms, 50), percentile(unit_ms, 90)


def end_to_end(workload, m, setups):
    """The end-to-end metrics, times at the nominal reference speed."""
    rate, p50, p90 = timings(workload, m.scaled())
    nominal_s = REFERENCE_KERNELS["interpreter"][1]
    setup = [s * nominal_s / r for s, r in setups]
    return {
        "particle_steps_per_s": {"value": rate, "unit": "1/s"},
        "run_ms_p50": {"value": p50, "unit": "ms"},
        "run_ms_p90": {"value": p90, "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MiB",
        },
        "setup_s": {"value": float(np.median(setup)), "unit": "s"},
    }


def timed_reference():
    """(interpreter kernel s, wall s this sample took)."""
    t0 = time.perf_counter()
    ref_s = reference_time(interpreter_kernel)
    return ref_s, time.perf_counter() - t0


def run_workload(args, sizes=None, ref_before=None):
    """Set up, measure and report one workload; ``sizes`` shrinks it for tests.

    ``ref_before`` is the ``timed_reference()`` taken when the process started.
    Set-up is timed from ``_T0`` less that sample, and is scaled by the mean of
    it and one more sample taken when set-up ends.
    """
    ref_before = ref_before or timed_reference()
    lmmpf = load_program()
    import tracing
    import workloads

    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    workload = workloads.build(args.workload, args.seed, tmp, **(sizes or {}))
    setup = (
        time.perf_counter() - _T0 - ref_before[1],
        0.5 * (ref_before[0] + reference_time(interpreter_kernel)),
    )
    if args.setup_probe:
        print(*map(repr, setup))
        return 0
    try:
        reference = {}
        extra = {}
        if not args.trace:
            setups = [setup] + setup_probe_times(args, SETUP_SAMPLES - 1)
            m = measure(workload, args.seconds, reference)
            replay = Measurement(workload.bound_by)
            if len(m.pass_s) == 1:  # no pass repeated a unit: replay one now
                run_unit(workload, 0, replay, reference)
            metrics = end_to_end(workload, m, setups)
            extra["setup_samples_s_and_reference_s"] = setups
            extra["raw_wall"] = dict(
                zip(("particle_steps_per_s", "run_ms_p50", "run_ms_p90"),
                    timings(workload, [(i, wall) for i, wall, _ in m.log]))
            )
            main_run, runs = m, [m, replay]
        else:
            # 0.4 of the time untraced leaves room for the tracer's overhead.
            plain = measure(workload, 0.4 * args.seconds, reference)
            with tracing.Tracer() as tracer:
                traced = measure(workload, args.seconds, reference, tracer, len(plain.pass_s))
            metrics = tracer.layer_metrics(traced.runs)
            metrics["metrics.err_inf_mean"] = {"value": float(np.mean(traced.errors)), "unit": "1"}
            traced_s, plain_s = (sum(t for _, t in r.scaled()) for r in (traced, plain))
            metrics["trace_overhead_frac"] = {"value": traced_s / plain_s - 1.0, "unit": "1"}
            spans = tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}.jsonl"))
            extra["span_file"] = os.path.relpath(spans, ROOT)
            extra["spans"] = len(tracer.spans)
            extra["missing_spans"] = sorted(tracer.missing)
            main_run, runs = traced, [plain, traced]
    finally:
        for path in workload.temp_dirs:
            shutil.rmtree(path, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": [len(r.pass_s) for r in runs],
        "runs_timed": main_run.runs,
        "units": len(workload.units),
        "pass_s": main_run.pass_s,
        "reference_s": main_run.refs,
        "failed_frac": failed / attempted,
        "err_inf_mean": float(np.mean(main_run.errors)) if main_run.errors else None,
        "problems": [p for r in runs for p in r.problems][:20],
        "environment": environment(lmmpf),
        **extra,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    out_path = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({**result, "report": report}, fh, indent=1)
    for problem in report["problems"]:
        print(f"# problem: {problem}")
    for name, metric in metrics.items():
        note = " (missing)" if metric.get("missing") else ""
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}{note}")
    print(
        f"# runs={report['runs_timed']} units={report['units']} passes={report['passes']} "
        f"failed_frac={report['failed_frac']:.3g} err_inf_mean={report['err_inf_mean']}"
    )
    print("# environment " + json.dumps(report["environment"], sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in a fresh process of its own, one after another."""
    ok = True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              f"failed_frac={result['failed'] / result['attempted']:.3g}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:14.6g} {entry['unit']}")
    return 0 if ok else 1


def main(argv=None):
    ref_before = timed_reference()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    return run_workload(args, ref_before=ref_before)


if __name__ == "__main__":
    sys.exit(main())
