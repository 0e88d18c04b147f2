"""One workload in a fresh process: the closed loop that run.py times.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--probe]

run.py starts this from the repository root.  It imports ``minsurf`` from
the ``src`` directory next to this one, builds the workload and prints
``ready``: set-up ends there.  With ``--probe`` it exits at that point.
Otherwise one client runs op 0, 1, 2, ... back to back, each driving
``minsurf.cli.main`` in-process, until ``--seconds`` have passed, and then
prints one JSON line: a record per op, the workload's block size, the
peak RSS, the environment and, with ``--trace 1``, the per-layer metrics:
each op then runs untraced and again traced.  Spans, report digests and
solution files go to ``.perfbench-out`` under the root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent

#: output directory, relative to the root (the working directory)
OUT_DIR = ".perfbench-out"

#: an untraced run times at least this many blocks after its warm-up
#: block, however long they take
MIN_BLOCKS = 3


class DigestStore:
    """sha256 of every op's report, keyed by workload, op index and seed,
    kept across runs: the same op must give the same report bytes."""

    def __init__(self, path):
        self.path = path
        self.known = json.loads(path.read_text()) if path.exists() else {}

    def check(self, key, digest):
        old = self.known.setdefault(key, digest)
        if old != digest:
            return f"report digest {digest[:16]} differs from an earlier run's {old[:16]}"
        return None

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, sort_keys=True))
        os.replace(tmp, self.path)


def run_commands(minsurf, argvs):
    """(exit code, stdout, stderr) of each command line, run in-process."""
    outputs = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = minsurf.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                rc = exc.code
        outputs.append((rc, out.getvalue(), err.getvalue()))
    return outputs


def run_op(minsurf, workload, k, seed, digests, tracer=None):
    """Run and check op ``k``; with a tracer, inside the op's root span."""
    op = workload.make_op(k, seed)
    t0 = time.perf_counter()
    elapsed = None
    try:
        if tracer is None:
            outputs = run_commands(minsurf, op.argvs)
        else:
            outputs = tracer.run_op(k, lambda: run_commands(minsurf, op.argvs))
        elapsed = time.perf_counter() - t0
        problem, points, text = op.check(minsurf, outputs)
    except Exception as exc:  # a traceback out of the CLI or the check fails this op only
        if elapsed is None:
            elapsed = time.perf_counter() - t0
        problem, points, text = f"{type(exc).__name__}: {exc}", 0, None
    if text is not None:
        problem = problem or digests.check(f"{workload.name}/{k}/{seed}",
                                           workloads.report_digest(text))
    if problem:
        print(f"perfbench: {workload.name} op {k} (seed {seed}): {problem}", file=sys.stderr)
    return {"k": k, "seed": seed, "s": elapsed, "points": points,
            "traced": tracer is not None, "error": problem}


def closed_loop(minsurf, workload, base_seed, seconds, min_ops, digests, tracer=None):
    """Run ops back to back until ``seconds`` have passed and at least
    ``min_ops`` ops are done; one record per op run.

    With a tracer each op runs twice, untraced and then traced, so that a
    drift in machine speed affects both passes alike.
    """
    records = []
    start = time.perf_counter()
    k = 0
    while k < min_ops or time.perf_counter() - start < seconds:
        records.append(run_op(minsurf, workload, k, base_seed + k, digests))
        if tracer is not None:
            tracer.install()
            try:
                records.append(run_op(minsurf, workload, k, base_seed + k, digests, tracer))
            finally:
                tracer.uninstall()
        k += 1
    return records


def environment():
    import numpy
    import scipy

    def blas(config):
        try:
            info = config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return "unknown"
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="exit once set-up is done")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import minsurf
        import minsurf.cli
    except ImportError as exc:
        print(f"perfbench: cannot import minsurf from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(minsurf.__file__).resolve().parent.parent != src.resolve():
        print(f"perfbench: minsurf was imported from {minsurf.__file__}, not {src}", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    tmp_dir = f"{OUT_DIR}/tmp"
    os.makedirs(tmp_dir, exist_ok=True)
    workload = workloads.build(args.workload, tmp_dir)
    print("ready", flush=True)
    if args.probe:
        return 0

    digests = DigestStore(Path(OUT_DIR) / "digests.json")
    tracer = tracing.Tracer() if args.trace else None
    min_ops = workload.trace_ops if args.trace else workload.block * (1 + MIN_BLOCKS)
    records = closed_loop(minsurf, workload, args.seed, args.seconds, min_ops, digests, tracer)
    layer = None
    if tracer is not None:
        traced = [r for r in records if r["traced"]]
        first = traced[:workload.trace_ops]
        layer = tracing.summarize(tracer.spans, [r["k"] for r in first],
                                  sum(r["points"] for r in first))
        layer["trace.overhead"] = (statistics.median(r["s"] for r in traced)
                                   / statistics.median(r["s"] for r in records if not r["traced"])
                                   - 1.0)
        tracer.dump(Path(OUT_DIR) / f"spans-{workload.name}-seed{args.seed}.json")
    digests.save()

    print(json.dumps({
        "records": records,
        "block": workload.block,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
        "layer": layer,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
