"""pairbath benchmark: closed-loop in-process calls of `pairbath.cli.main`.

    python3 perfbench/run.py --workload all            # every workload, every metric
    python3 perfbench/run.py --workload sweep --seed 3 --seconds 30 --trace 1

Run from the root of a source checkout; pairbath is imported from `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  See perfbench/README.md for
the metrics, the workloads and what each layer metric should move.
"""

import os

# One BLAS thread: the benchmark measures one closed-loop client.  Set before
# numpy is imported anywhere in this process.
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_PIN)

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
WORKLOADS = ("trajectory", "sweep", "equilibria")
SETUP_REPEATS = 9
P90_MIN_OPS = 100           # at least ten samples beyond the 90th percentile
# A timed run stops only after a multiple of STOP_EVERY operations, so each
# run holds the same mix of the two trajectory costs (sample_every 1 and 10)
# and of closed-form and numeric-only equilibria; sweep operations all cost
# about the same.  The traced run does a fixed TRACE_OPS operations (whole
# cycles of inputs.py), so its counts repeat exactly for a given seed.
STOP_EVERY = {"trajectory": 2, "sweep": 1, "equilibria": 3}
TRACE_OPS = {"trajectory": 4, "sweep": 4, "equilibria": 30}

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import pairbath; "
                 "print(repr(time.perf_counter() - t))")


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _units(kind):
    """Metric name -> unit for "end_to_end" or "per_layer" in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _environment(args):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_pin": THREAD_PIN}


def _import_seconds():
    """Time of `import pairbath` in a fresh interpreter (numpy included)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=60, check=True)
    return float(out.stdout.strip())


def _setup(workload, seed, workdir):
    """Repeat import + input generation; return (median seconds, ops)."""
    from inputs import make_ops
    times, ops = [], None
    for _ in range(SETUP_REPEATS):
        t_import = _import_seconds()
        shutil.rmtree(workdir, ignore_errors=True)
        t = perf_counter()
        ops = make_ops(workload, seed, workdir)
        times.append(t_import + perf_counter() - t)
    return statistics.median(times), ops


def _run_op(cli, checks, op):
    """One closed-loop call; returns (seconds, failure cause or None, extras)."""
    out, err = io.StringIO(), io.StringIO()
    t = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(op.argv)
    except (Exception, SystemExit) as exc:
        return perf_counter() - t, f"{type(exc).__name__}: {exc}", {}
    dt = perf_counter() - t
    if code != 0:
        tail = err.getvalue().strip().splitlines()
        return dt, f"exit code {code}: {tail[-1] if tail else ''}", {}
    stdout = out.getvalue()
    try:
        extras = checks.CHECKS[op.kind](op, stdout)
    except checks.CheckFailed as exc:
        return dt, str(exc), {}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return dt, f"unreadable output: {type(exc).__name__}: {exc}", {}
    written = len(stdout.encode()) + (os.path.getsize(op.out) if op.out else 0)
    return dt, None, dict(extras, bytes=written)


class Tally:
    """Latencies, failures and check extras of a sequence of operations."""

    def __init__(self):
        self.latency, self.failures, self.extras = [], [], []

    def add(self, k, op, result):
        dt, cause, extras = result
        self.latency.append(dt)
        self.extras.append(extras)
        if cause is not None:
            self.failures.append((k, " ".join(op.argv), cause))

    def total(self, key):
        return sum(e.get(key, 0) for e in self.extras)


def run_untraced(cli, checks, ops, every, seconds):
    """Closed loop that stops after a multiple of `every` operations, when
    `every` more would take it past `seconds`."""
    tally = Tally()
    t0 = perf_counter()
    k = 0
    while True:
        op = ops[k % len(ops)]
        tally.add(k, op, _run_op(cli, checks, op))
        k += 1
        if k % every == 0 and (perf_counter() - t0) * (k + every) / k > seconds:
            return tally


def run_traced(cli, checks, ops, n_ops, tracer):
    """The first n_ops operations untraced, then traced with the same inputs."""
    plain, traced = Tally(), Tally()
    for k in range(n_ops):
        plain.add(k, ops[k], _run_op(cli, checks, ops[k]))
    tracer.install()
    try:
        for k in range(n_ops):
            tracer.op = k
            tracer.active = True
            try:
                result = _run_op(cli, checks, ops[k])
            finally:
                tracer.active = False
            traced.add(k, ops[k], result)
    finally:
        tracer.uninstall()
    return plain, traced


def _sweep_extras(tally):
    return {"sweep.closed_form_mismatch": tally.total("closed_form_mismatch"),
            "sweep.max_c_error": max((e.get("max_c_error", 0.0)
                                      for e in tally.extras), default=0.0)}


def _print_failures(tally):
    for k, argv, cause in tally.failures:
        print(f"FAILED op {k}: pairbath {argv}\n    cause: {cause}")


def _emit(correct, attempted, failed, metrics, units):
    out = {name: {"value": value, "unit": units[name]}
           for name, value in metrics.items()}
    for name, m in out.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": out}


def run_workload(args):
    sys.path.insert(0, str(SRC))
    import pairbath
    if Path(pairbath.__file__).resolve().parent != SRC / "pairbath":
        _fail(f"imported pairbath from {pairbath.__file__}, not from {SRC}")
    from pairbath import cli
    import checks
    from spans import Tracer

    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = _environment(args)
    print("environment: " + json.dumps(env))
    setup_s, ops = _setup(args.workload, args.seed, workdir)

    if args.trace:
        tracer = Tracer()
        n_ops = TRACE_OPS[args.workload]
        plain, traced = run_traced(cli, checks, ops, n_ops, tracer)
        tally = traced
        metrics = tracer.per_op(n_ops)
        metrics["cli.self_ms"] = metrics.pop("cli.main.self_ms")
        del metrics["cli.main.calls"]
        metrics["cli.bytes_written"] = traced.total("bytes") / n_ops
        # computed from the inputs and the checked outputs, not counted
        metrics["generator.steps"] = sum(op.expect["steps"] for op in ops[:n_ops]) / n_ops
        metrics["generator.samples"] = sum(op.expect["samples"] for op in ops[:n_ops]) / n_ops
        metrics.update(_sweep_extras(traced))
        metrics["trace.overhead_ms"] = 1e3 * (sum(traced.latency)
                                              - sum(plain.latency)) / n_ops
        units = _units("per_layer")
        metrics = {name: metrics[name] for name in units}
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(spans_path)
        print(f"traced {n_ops} operations, {len(tracer.start)} spans -> "
              f"{spans_path.relative_to(ROOT)}")
    else:
        tally = run_untraced(cli, checks, ops, STOP_EVERY[args.workload], args.seconds)
        n = len(tally.latency)
        ok = n - len(tally.failures)
        metrics = {"ops_per_s": ok / sum(tally.latency),
                   "op_p50_ms": 1e3 * statistics.median(tally.latency),
                   "setup_s": setup_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = _units("end_to_end")
        if n >= P90_MIN_OPS:
            p90 = 1e3 * statistics.quantiles(tally.latency, n=10)[-1]
            print(f"  op_p90_ms = {p90:.6g} ms  ({n} samples)")
        else:
            print(f"  op_p90_ms: not reported, {n} samples < {P90_MIN_OPS}")
        print(f"  failed_op_share = {len(tally.failures) / n:.6g}  "
              f"({len(tally.failures)} of {n} operations)")
        if args.workload == "sweep":
            for name, value in _sweep_extras(tally).items():
                print(f"  {name} = {value:.6g}")

    _print_failures(tally)
    shutil.rmtree(workdir, ignore_errors=True)
    n = len(tally.latency)
    result = _emit(not tally.failures, n, len(tally.failures), metrics, units)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, **result}, indent=1), encoding="utf-8")
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own process (own set-up and peak memory)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.rstrip("\n").splitlines()
        if proc.returncode != 0 or not lines:
            _fail(f"workload {workload} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pairbath" / "__init__.py").is_file():
        _fail(f"no pairbath sources under {SRC}; run from a source checkout")
    WORK.mkdir(exist_ok=True)
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
