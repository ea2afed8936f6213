"""Run a benchmark workload on robustgrid and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from the `src` directory next to
this one, so no install is needed. NAME is one of the workloads in
workloads.py, or `all` (the default) to run every workload one after
another, each in its own process. The seed picks the generated instance
(see instances.py). Operations repeat until the next one would end past
S seconds; at least one always runs.

With --trace 0 the run reports the end-to-end metrics: solve_s (median
wall seconds of one timed call), setup_s (median seconds for a fresh
interpreter to import robustgrid and load the instance), peak_rss_mb
(resident peak once the first call is done) and ok_frac (operations that
passed every check, out of those attempted; the failed fraction is
printed too). With --trace 1 it runs one untraced
operation, then traced ones, and reports the per-layer metrics of
tracing.py plus the tracing overhead. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Artifacts, the generated instance and the span log go to .perfbench_out/
at the root of the checkout.
"""

import os

# BLAS and OpenMP size their thread pools when numpy loads, so the pins go
# before any import that loads it; children inherit them.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
from robustgrid import load_instance
load_instance(sys.argv[1])
print(time.perf_counter() - start)
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(instance_path: Path) -> list[float]:
    """Import plus load in fresh interpreters; the first, untimed, fills bytecode caches."""
    times = []
    for k in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(instance_path)],
            env=_child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True,
        )
        if k:
            times.append(float(done.stdout.split()[-1]))
    return times


def _import_package():
    sys.path.insert(0, str(SRC))
    import robustgrid

    found = Path(robustgrid.__file__).resolve().parent
    if found != SRC / "robustgrid":
        raise SystemExit(f"perfbench: imported robustgrid from {found}, not {SRC}")


def _environment() -> str:
    import numpy
    import scipy

    return (
        f"nproc {os.cpu_count()}, python {platform.python_version()}, "
        f"numpy {numpy.__version__}, scipy {scipy.__version__}, "
        "BLAS/OpenMP threads pinned to 1"
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from robustgrid import io
    from robustgrid.ccg import run_ccg
    from robustgrid.uncertainty import UncertaintyBudget

    from instances import Shape, build
    from tracing import NullTracer, Tracer, instrument, layer_metrics, self_time_by_path
    from workloads import WORKLOADS, Outcome

    workload = WORKLOADS[name]
    outdir = OUT / f"{name}-seed{seed}"
    outdir.mkdir(parents=True, exist_ok=True)
    instance_path = outdir / "instance.json"
    io.save_instance(build(workload.shape, seed), instance_path)
    expected = workload.expected(seed)
    print(f"perfbench {name} seed {seed}: {_environment()}")

    setup = [] if trace else measure_setup(instance_path)
    tracer = Tracer() if trace else NullTracer()
    with tracer.span("io.load_instance"):
        inst = io.load_instance(instance_path)
    # first calls into scipy's solvers pay one-off costs that a planner's
    # long-running process would not; a one-region solve absorbs them
    run_ccg(build(Shape(1, 1, 2), None), UncertaintyBudget(1, 1))

    totals = {"attempted": 0, "failed": 0}

    def operation(tr, index: int) -> float:
        start = time.perf_counter()
        try:
            with tr.span("bench.op", index=index):
                result = workload.run(inst, outdir, tr)
        except Exception:
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            outcome = Outcome(workload.ops, workload.ops, ["operation raised"])
        else:
            elapsed = time.perf_counter() - start
            outcome = workload.check(result, outdir, expected)
        totals["attempted"] += outcome.attempted
        totals["failed"] += outcome.failed
        for problem in outcome.problems:
            print(f"  FAILED {problem}")
        return elapsed

    # the resident peak keeps creeping up over repeated calls (allocator
    # high-water marks), and how many calls fit depends on the machine, so
    # the peak is read once the first call is done
    peak_rss_mb = []

    def measure(tr) -> list[float]:
        times, start = [], time.perf_counter()
        while not times or time.perf_counter() - start + times[-1] <= seconds:
            times.append(operation(tr, len(times)))
            if not peak_rss_mb:
                peak_rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        return times

    if trace:
        untraced = operation(NullTracer(), -1)
        with instrument(tracer):
            times = measure(tracer)
        tracer.write(outdir / "spans.jsonl")
        metrics = layer_metrics(tracer.spans, len(times))
        metrics["trace.overhead_s"] = statistics.median(times) - untraced
        units = {k: _layer_unit(k) for k in metrics}
        paths = self_time_by_path(tracer.spans)
        total = sum(paths.values())
        print(f"  traced {len(times)} operation(s), {len(tracer.spans)} spans; "
              f"untraced {untraced:.3f} s, traced median {statistics.median(times):.3f} s")
        print("  largest self time by call path:")
        for path, t in sorted(paths.items(), key=lambda kv: -kv[1])[:8]:
            print(f"    {100 * t / total:5.1f}%  {t:8.3f} s  {path}")
    else:
        times = measure(tracer)
        attempted, failed = totals["attempted"], totals["failed"]
        metrics = {
            "solve_s": statistics.median(times),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb[0],
            "ok_frac": (attempted - failed) / attempted,
        }
        units = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}
        print(f"  solve_s      median of {len(times)} operation(s): "
              + ", ".join(f"{t:.3f}" for t in times) + " s")
        print(f"  setup_s      median of {len(setup)} fresh interpreters: "
              + ", ".join(f"{t:.3f}" for t in setup) + " s")
        print(f"  fail_frac    {failed / attempted:g} ({failed} of {attempted} operations)")

    for key, value in metrics.items():
        print(f"  {key:<32} {value:.6g} {units[key]}")
    return {
        "correct": totals["failed"] == 0,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _layer_unit(metric: str) -> str:
    if metric.endswith("_frac") or metric.startswith("share."):
        return "frac"
    if metric.endswith("_s") or "_s_" in metric:
        return "s"
    return "count"


def run_all(args) -> dict:
    """Every workload in turn, each in a child process so its memory peak is its own."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "robustgrid" / "__init__.py").is_file():
        print(f"perfbench: no robustgrid sources under {SRC}", file=sys.stderr)
        return 2
    _import_package()
    from workloads import WORKLOADS

    if args.workload == "all":
        result = run_all(args)
    elif args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
