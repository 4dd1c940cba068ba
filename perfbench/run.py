"""Benchmark of the mixedqgt CLI: four seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload field-qubit --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 1            # every workload in turn

Run from anywhere; the program is the ``src/`` tree next to this directory.
For one workload the benchmark

1. writes the workload's inputs from ``--seed`` and has ``mixedqgt validate``
   accept every generated state and grid-model file;
2. (``--trace 0``) times the command at minimal size in a fresh process
   ``SETUP_REPEATS`` times: ``setup_s`` is the median;
3. runs the full-size command in a fresh process again and again, one child
   at a time, until ``--seconds`` have passed, checking each output after
   its run.  With ``--trace 1`` every other child runs under the span
   tracer (``tracer.py``) instead, and the per-layer metrics come from its
   spans;
   with ``--trace 0`` every timed child of steps 2 and 3 runs between two
   runs of a fixed calibration kernel (``calibrate``), and its wall time is
   scaled by ``CAL_REF_S`` over the mean of the two.  The end-to-end times
   are so in seconds at one fixed host speed, and the host's drift in speed
   over minutes cancels out of them (COMPARING.md has the figures);
4. prints one line per metric and, as the last line, the result object
   ``{"correct", "attempted", "failed", "metrics"}``.

A run fails on a non-zero exit, a timeout or a failed output check; failed
runs count in ``attempted`` and ``failed`` and not in the timings.  Inputs
that break a workload's preconditions stop the benchmark with exit code 2
and no result line, as does a directory without the package sources.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
TRACER = os.path.join(BENCH_DIR, "tracer.py")
CLI = ["-c", "import sys; from mixedqgt.cli import main; sys.exit(main())"]
# one busy thread per child, one child at a time
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 5
MIN_RUNS = 3
CHILD_TIMEOUT_S = 60.0
# the calibration kernel's time on the reference host (COMPARING.md)
CAL_ITERATIONS = 8000
CAL_REF_S = 0.2

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit); a name <prefix>.calls / .self_s / .per_item sums the spans
# named <prefix> or <prefix>.*, per_item dividing the call count by the items
PER_LAYER = (
    ("states.DensityMatrix.calls", "count"),
    ("states.DensityMatrix.self_s", "s"),
    ("states.sorted_eigh.self_s", "s"),
    ("states.DensityMatrix.per_item", "calls/item"),
    ("linalg.eigh.calls", "count"),
    ("linalg.eigh.self_s", "s"),
    ("linalg.eigh.per_item", "calls/item"),
    ("linalg.eigvalsh.calls", "count"),
    ("linalg.svd.calls", "count"),
    ("states.fidelity.self_s", "s"),
    ("states.psd_sqrt.calls", "count"),
    ("models.evaluate.calls", "count"),
    ("models.matrix_at.self_s", "s"),
    ("models.derivatives.self_s", "s"),
    ("models.load_grid_model.self_s", "s"),
    ("models.registration.self_s", "s"),
    ("setup.import_s", "s"),
    ("qgt.msqgt_eigenroute.self_s", "s"),
    ("qgt.QGTensor.self_s", "s"),
    ("bundle.connection.calls", "count"),
    ("bundle.connection.self_s", "s"),
    ("bundle.lyapunov_superop.self_s", "s"),
    ("bundle.covariant_derivative.self_s", "s"),
    ("transport.holonomy.self_s", "s"),
    ("transport.reference_lift.self_s", "s"),
    ("transport.LiftedCurve.self_s", "s"),
    ("transport.step_ratio", "ratio"),
    ("geodesics.self_s", "s"),
    ("geodesics.geodesic_purification.calls", "count"),
    ("geodesics.path_length.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "mixedqgt", "cli.py")):
        raise BenchmarkError(f"no package sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for path in (BENCH_DIR, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import mixedqgt

    if not os.path.abspath(mixedqgt.__file__).startswith(SRC + os.sep):
        raise BenchmarkError(f"mixedqgt imported from {mixedqgt.__file__}, not {SRC}")
    import workloads

    return workloads


def _child_env():
    env = dict(os.environ, PYTHONPATH=SRC)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(args, workdir, timeout=CHILD_TIMEOUT_S):
    """Run one fresh interpreter; (exit code or None on timeout, wall s, peak RSS MB, log)."""
    log_path = os.path.join(workdir, "child.log")
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=workdir, env=_child_env(),
                                stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    with open(log_path, encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    timed_out = code == -9 and wall >= timeout
    return None if timed_out else code, wall, usage.ru_maxrss / 1024.0, text


def calibrate(np):
    """Seconds one fixed kernel takes: the program's mix of small-matrix numpy
    calls, Python arithmetic and float formatting, with a 32x32 ``eigh``
    every tenth step for the LAPACK-bound share.  It uses nothing of the
    package, so no change to the program moves it."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    big = a + a.conj().T
    small = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    eye = np.eye(2)
    acc = 0.0
    rows = []
    start = time.perf_counter()
    for i in range(CAL_ITERATIONS):
        w, v = np.linalg.eigh(small + (i * 1e-6) * eye)
        acc += float(abs(v[0, 0]) ** 2) * math.sin(w[0] + i)
        rows.append(",".join(f"{x:.17g}" for x in (acc, w[0], w[1], i * 0.5)))
        if i % 10 == 0:
            acc += float(np.linalg.eigh(big)[0][0])
    return time.perf_counter() - start


class Calibrated:
    """Runs children between calibrations; wall times scaled to ``CAL_REF_S``.

    The kernel runs before the first child and after each one, so every
    child's scale is the mean of the two runs next to it.
    """

    def __init__(self, np):
        self.np = np
        self.last = calibrate(np)
        self.samples = [self.last]

    def run(self, args, workdir):
        code, wall, rss, text = run_child(args, workdir)
        before, self.last = self.last, calibrate(self.np)
        self.samples.append(self.last)
        return code, wall * CAL_REF_S / ((before + self.last) / 2), rss, text


def _median_quartiles(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


class Result:
    """Attempts, failures and the samples of each metric for one workload."""

    def __init__(self, name):
        self.name = name
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = {}
        self.calibrations = []

    def add(self, metric, value):
        self.samples.setdefault(metric, []).append(value)

    def record(self, code, output, checker):
        """Count one run; True when it exited 0 and its output passed the checks."""
        self.attempted += 1
        if code != 0:
            problems = ["timeout" if code is None else f"exit code {code}"]
        elif not os.path.isfile(output):
            problems = ["no output file"]
        else:
            try:
                problems = checker(output)
            except Exception as exc:  # any malformed output fails the run, not the benchmark
                problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems


def _layer_metrics(totals, import_s, items, steps):
    def pick(prefix, field):
        return sum(v[field] for k, v in totals.items()
                   if k == prefix or k.startswith(prefix + "."))

    out = {}
    for name, _ in PER_LAYER:
        prefix, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = pick(prefix, 0)
        elif kind == "self_s":
            out[name] = pick(prefix, 1)
        elif kind == "per_item":
            out[name] = pick(prefix, 0) / items
    out["setup.import_s"] = import_s
    connections = pick("bundle.connection", 0)
    out["transport.step_ratio"] = steps / connections if steps and connections else 0.0
    return out


def bench_workload(workload, seed, seconds, trace, size="full"):
    """Measure one workload; returns (Result, {metric: value})."""
    wl_mod = _import_program()
    import numpy as np

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=WORK_ROOT)
    try:
        try:
            inputs = workload.make_inputs(np.random.default_rng(seed), workdir)
        except wl_mod.PreconditionError as exc:
            raise BenchmarkError(f"seed {seed}: {exc}") from exc
        for key in workload.validate:
            code, _, _, text = run_child(CLI + ["validate", inputs[key]], workdir)
            if code != 0:
                raise BenchmarkError(
                    f"mixedqgt validate rejected {key} (exit {code}): {text.strip()}")
        result = Result(workload.name)
        output = os.path.join(workdir, "output")
        items = workload.items(size)

        if not trace:
            timer = Calibrated(np)
            for _ in range(SETUP_REPEATS):
                code, wall, _, text = timer.run(
                    CLI + workload.argv(inputs, output, "minimal"), workdir)
                if code != 0:
                    raise BenchmarkError(
                        f"minimal-size run failed (exit {code}): {text.strip()}")
                result.add("setup_s", wall)
        setup_s = statistics.median(result.samples["setup_s"]) if not trace else None

        argv = workload.argv(inputs, output, size)
        totals_path = os.path.join(workdir, "span_totals.json")
        layer_samples = []
        start = time.perf_counter()
        k = 0
        while k < MIN_RUNS or time.perf_counter() - start < seconds:
            traced = bool(trace) and k % 2 == 1
            if os.path.exists(output):
                os.remove(output)
            if traced:
                code, wall, rss, _ = run_child([TRACER, totals_path, "--", *argv], workdir)
            elif trace:
                code, wall, rss, _ = run_child(CLI + argv, workdir)
            else:
                code, wall, rss, _ = timer.run(CLI + argv, workdir)
            ok = result.record(code, output, lambda path: workload.check(path, inputs, size))
            k += 1
            if not ok:
                continue
            if traced:
                with open(totals_path, encoding="utf-8") as fh:
                    spans = json.load(fh)
                layer_samples.append(_layer_metrics(
                    spans["totals"], spans["import_s"], items, workload.steps(size)))
                result.add("traced_wall_s", wall)
            else:
                result.add("wall_s", wall)
                result.add("peak_rss_mb", rss)
                if setup_s is not None:
                    result.add("items_per_s", items / (wall - setup_s))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not trace:
        result.calibrations = timer.samples

    metrics = {}
    if trace:
        walls = result.samples.get("wall_s", [])
        traced_walls = result.samples.get("traced_wall_s", [])
        for name in layer_samples[0] if layer_samples else ():
            metrics[name] = statistics.median(s[name] for s in layer_samples)
        if walls and traced_walls:
            metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                           - statistics.median(walls))
    else:
        for name, _ in END_TO_END:
            if result.samples.get(name):
                metrics[name] = statistics.median(result.samples[name])
    return result, metrics


def _report(result, metrics, trace):
    units = dict(PER_LAYER if trace else END_TO_END)
    for name, unit in units.items():
        if name not in metrics:
            continue
        samples = result.samples.get(name)
        if samples:
            med, q1, q3 = _median_quartiles(samples)
            spread = f"median of {len(samples)}; q1 {q1:.6g}, q3 {q3:.6g}"
        else:
            spread = "median over traced runs"
        print(f"{result.name:15s} {name:40s} {metrics[name]:14.6g} {unit:10s} ({spread})")
    if result.calibrations:
        med, q1, q3 = _median_quartiles(result.calibrations)
        print(f"{result.name:15s} {'calibration_s':40s} {med:14.6g} {'s':10s}"
              f" (median of {len(result.calibrations)}; q1 {q1:.6g}, q3 {q3:.6g};"
              f" times above are scaled by {CAL_REF_S:g} s over the two next to each run)")
    ratio = result.failed / result.attempted if result.attempted else float("nan")
    print(f"{result.name:15s} {'fail_ratio':40s} {ratio:14.6g} {'ratio':10s}"
          f" ({result.failed} failed of {result.attempted} attempted)")
    for problem in sorted(set(result.problems)):
        print(f"{result.name:15s} FAILED: {problem}")


def _result_line(results, trace, prefix):
    units = dict(PER_LAYER if trace else END_TO_END)
    attempted = sum(r.attempted for r, _ in results)
    failed = sum(r.failed for r, _ in results)
    metrics = {}
    for result, values in results:
        for name, value in values.items():
            key = f"{result.name}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": units[name]}
    expected = len(units) * len(results)
    return {"correct": failed == 0 and len(metrics) == expected,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="field-qubit, field-dense, holonomy-qubit, geodesic-trace or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs each command at smoke-test size")
    args = parser.parse_args(argv)
    # a terminated benchmark still kills its child and removes its work files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # children inherit this: calibrations and timed runs share one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        wl_mod = _import_program()
        if args.workload == "all":
            chosen = list(wl_mod.WORKLOADS.values())
        elif args.workload in wl_mod.WORKLOADS:
            chosen = [wl_mod.WORKLOADS[args.workload]]
        else:
            parser.error(f"unknown workload {args.workload!r}")
        results = []
        for workload in chosen:
            result, metrics = bench_workload(workload, args.seed, args.seconds,
                                             args.trace, args.size)
            _report(result, metrics, args.trace)
            results.append((result, metrics))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(_result_line(results, args.trace, prefix=len(results) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
