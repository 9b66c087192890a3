"""The repository benchmark: client-seen latency of a seeded SubDEx script.

Usage (from the repository root)::

    python3 perfbench/run.py --workload drill --seed 1 --seconds 20 --trace 0

One run replays the workload's seeded script in spawned children to get
the reference answers, generates the Yelp-like dataset, starts the
service the way ``python -m repro serve`` would (in this process, on a
free port), finishes a warm-up session, then drives the whole script
through ``SubDExClient`` over HTTP in a closed loop, checking every
answer.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reruns the script with per-layer wrappers installed and
reports the per-layer metrics.  The last line of standard output is the
JSON result; the line before it stamps the environment.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
    # benchmark this checkout's program, never an installed copy
    sys.exit(f"perfbench: no src/repro under {_ROOT}; run from a full checkout")
sys.path[:0] = [_HERE, os.path.join(_ROOT, "src")]

import layers  # noqa: E402

layers.maybe_start_worker_agent()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402

import numpy as np  # noqa: E402

from harness import drive, peak_rss_mb, reset_peak_rss, start_deployment  # noqa: E402
from metrics import end_to_end, per_layer  # noqa: E402
from plan import BUDGETED, READ, SCAN, STEP, WORKLOADS, build_plan  # noqa: E402

_IMPORT_S = time.perf_counter() - _STARTED

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Scratch space for shard-worker trace dumps, inside the checkout.
SCRATCH_DIR = os.path.join(_ROOT, ".perfbench_tmp")


def git_sha() -> str:
    if not os.path.exists(os.path.join(_ROOT, ".git")):
        return "unknown"  # an exported tree, not a checkout
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(args: argparse.Namespace, counts: dict[str, int]) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": counts,
    }


def run_untraced(workload, plan) -> tuple[dict, object]:
    """Set up and drive once; then set up again for the ``setup_s`` median.

    The driven deployment is the process's first, so its peak RSS holds no
    heap left over from an earlier server.
    """
    gc.collect()
    deployment = start_deployment(workload)
    setups = [deployment.setup_s]
    reset_peak_rss()
    try:
        result = drive(deployment, plan)
        rss_mb = peak_rss_mb(deployment.pids())
    finally:
        deployment.stop()
    del deployment
    for _ in range(SETUP_REPEATS - 1):
        gc.collect()
        deployment = start_deployment(workload)
        setups.append(deployment.setup_s)
        deployment.stop()
    setup_s = _IMPORT_S + float(np.median(setups))
    return end_to_end(result, setup_s, rss_mb), result


def run_traced(workload, plan) -> tuple[dict, object]:
    """An untraced pass (the overhead baseline), then the traced pass."""
    baseline = start_deployment(workload)
    try:
        untraced = drive(baseline, plan)
    finally:
        baseline.stop()
    del baseline
    gc.collect()  # the first server's caches must not count below

    shutil.rmtree(SCRATCH_DIR, ignore_errors=True)
    os.makedirs(SCRATCH_DIR)
    os.environ[layers.WORKER_TRACE_ENV] = f"{os.getpid()}:{SCRATCH_DIR}"
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        deployment = start_deployment(workload)
        try:
            tracer.reset()
            counters_before = layers.counter_snapshot()
            open(os.path.join(SCRATCH_DIR, "go"), "w").close()
            if workload.workers:
                _await_dumps(workload.workers, final=False)
            traced = drive(deployment, plan)
            front = tracer.snapshot(
                layers.counter_delta(counters_before, layers.counter_snapshot())
            )
            open(os.path.join(SCRATCH_DIR, "stop"), "w").close()
            workers = (
                _await_dumps(workload.workers, final=True)
                if workload.workers else []
            )
        finally:
            deployment.stop()
    finally:
        tracer.uninstall()
        del os.environ[layers.WORKER_TRACE_ENV]
        shutil.rmtree(SCRATCH_DIR, ignore_errors=True)
    return per_layer(workload.name, untraced, traced, front, workers), traced


def _await_dumps(n_workers: int, final: bool, timeout_s: float = 10.0) -> list[dict]:
    deadline = time.monotonic() + timeout_s
    while True:
        dumps = layers.read_worker_dumps(SCRATCH_DIR)
        ready = [d for d in dumps if d.get("final", False) or not final]
        if len(ready) >= n_workers or time.monotonic() > deadline:
            return ready
        time.sleep(0.05)


def stop_children(timeout_s: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    Besides the reference replay's children and the shard workers, the
    spawn start method launches a multiprocessing resource tracker that
    lives until it is told to stop; left alone it would outlive the run.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout_s)
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        try:
            stop_tracker()
        except ChildProcessError:
            pass


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    try:
        return _main(argv)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        stop_children()


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    started = time.perf_counter()
    plan = build_plan(workload, args.seed, args.seconds)
    plan_s = time.perf_counter() - started
    if args.trace:
        metrics, result = run_traced(workload, plan)
    else:
        metrics, result = run_untraced(workload, plan)

    counts = {cls: len(result.ok(cls)) for cls in (STEP, READ, BUDGETED, SCAN)}
    failures = result.failed
    report = environment(args, counts)
    report["reference_s"] = round(plan_s, 3)
    report["run_wall_s"] = round(result.wall_s, 3)
    report["failures"] = [f"{s.kind}: {s.error}" for s in failures[:10]]
    print("perfbench " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(result.samples),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
