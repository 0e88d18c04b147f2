"""minsurf benchmark: time one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify-deep and solve-grid, and verify-sweep and verify-wide,
which BENCHMARK.json leaves out (see README.md next to this file).  Each run
starts fresh processes from this checkout's ``src`` directory, so nothing
is installed or built.  With ``--trace 0`` it times set-up in five fresh
processes and runs the workload untraced in the last of them; the first
block of ops is warm-up and the rest are timed.  With ``--trace 1`` the
workload process runs each op untraced and then traced.  The metrics are
printed one per line with their units, and the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit 0 when a result is printed, 1 when the workload
process could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: fresh processes timed for setup_s per untraced run (probes + the worker)
SETUPS = 5

#: the whole run, processes included, ends within this many seconds
TIME_LIMIT_S = 170.0

#: BLAS / OpenMP threads in the workload processes, set explicitly (at most
#: nproc) so that figures do not depend on the libraries' defaults
BLAS_THREADS = "1"

END_TO_END = {
    "op_s.p50": "s",
    "points_per_s": "points/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER = {**tracing.METRICS, "trace.overhead": "ratio"}

#: tail percentiles tried, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


class WorkerFailed(RuntimeError):
    pass


def spawn(args, probe, deadline):
    """Run worker.py; return (seconds from start to 'ready', rest of stdout)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline()
            setup = time.perf_counter() - t0
            rest = proc.stdout.read()
            rc = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
    if first.strip() != "ready" or rc != 0:
        raise WorkerFailed(f"workload process exited with code {rc}")
    return setup, rest


def tail(times):
    """(percentile, value, ops beyond it) for the highest listed percentile
    with at least ten ops beyond it, or None."""
    ordered = sorted(times)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * len(ordered))  # nearest rank
        if len(ordered) - rank >= 10:
            return p, ordered[rank - 1], len(ordered) - rank
    return None


def end_to_end(timed, block, peak_rss_mb, setups):
    """The end-to-end metrics; ``timed`` are the records after warm-up.

    Throughput is the median over whole blocks, so that a burst of load
    from elsewhere on the machine moves it no more than it moves the
    median op time.
    """
    blocks = [timed[i:i + block] for i in range(0, len(timed) - block + 1, block)]
    return {
        "op_s.p50": statistics.median(r["s"] for r in timed),
        "points_per_s": statistics.median(
            sum(r["points"] for r in b) / sum(r["s"] for r in b) for b in blocks),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + workloads.EXTRA)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        setups = [spawn(args, True, deadline)[0] for _ in range(SETUPS - 1)] if not args.trace else []
        setup, out = spawn(args, False, deadline)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)
    result = json.loads(out.splitlines()[-1])
    records = result["records"]
    timed = records[result["block"]:]
    failed = sum(1 for r in records if r["error"])

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(result["env"]))
    if args.trace:
        metrics = {name: (result["layer"][name], unit) for name, unit in PER_LAYER.items()}
    else:
        values = end_to_end(timed, result["block"], result["peak_rss_mb"], setups)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    found = None if args.trace else tail([r["s"] for r in timed])
    if found:
        p, value, beyond = found
        print(f"op_s.tail = p{p:g} {value:.6g} s ({len(timed)} timed ops, {beyond} beyond)")
    print(f"fail_ratio = {failed / len(records):g} ratio ({failed} of {len(records)} ops failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
