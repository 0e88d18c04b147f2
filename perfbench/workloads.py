"""The benchmark's workloads: how op ``k`` of a run is built and checked.

An op is one or more ``minsurf`` command lines run in-process through
``minsurf.cli.main``.  Op ``k`` of a run with base seed ``base`` uses seed
``base + k``, so no two ops of a run repeat an input.  Each workload also
names the check that decides whether an op's outputs are correct, and the
text whose sha256 identifies the op's report bytes.

This module imports nothing from ``minsurf`` at import time: checks receive
the ``minsurf`` package from the caller.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from dataclasses import dataclass
from typing import Callable

#: catalog surfaces that are exactly minimal (the acceptance sweep's set)
MINIMAL_SURFACES = ("plane", "scherk", "helicoid", "catenoid", "bi_wave")

#: surfaces whose ambient is Lorentzian; their assembled signature is 0
LORENTZIAN_SURFACES = ("bi_wave", "bi_wave_minus")

#: normalized Ricci residual of a Scherk grid solve, verified at 200 points,
#: on a 257 x 257 grid (ROADMAP item 4 table); it scales like h^2
GRID_RICCI_257 = 1.4e-4

#: a grid residual more than this factor away from the h^2 estimate fails
GRID_RICCI_FACTOR = 4.0

#: solver tolerance ``minsurf solve`` uses by default
SOLVE_TOL = 1e-10

_WALL_TIME = re.compile(r', "wall_time_ms": -?\d+')


@dataclass
class Op:
    """One closed-loop operation: the command lines and how to judge them."""

    argvs: list
    #: check(minsurf, outputs) -> (problem or None, points evaluated, digest
    #: text); outputs holds one (exit code, stdout, stderr) per command line
    check: Callable


@dataclass
class Workload:
    name: str
    make_op: Callable  # (k, seed) -> Op
    #: ops a traced run always covers, so per-layer counts repeat exactly
    trace_ops: int
    #: ops in one cycle of the op mix.  The first block of a run is
    #: warm-up, and throughput is a median over the blocks after it.
    block: int = 1


def report_digest(text: str) -> str:
    """sha256 of a report with its only non-deterministic field removed."""
    return hashlib.sha256(_WALL_TIME.sub("", text).encode()).hexdigest()


def expected_signature(surface: str, eps_blocks) -> int:
    if surface in LORENTZIAN_SURFACES:
        return 0
    return 2 * (1 + sum(eps_blocks))


def _check_verify_report(out, samples, signature, want_pass=True):
    """(problem or None, report, points evaluated) of one ``verify`` call's
    (exit code, stdout, stderr)."""
    rc, stdout, stderr = out
    try:
        report = json.loads(stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return f"verify exit {rc} without a report: {stderr.strip()[-200:]}", None, 0
    ricci = report["ricci"]["max_normalized"]
    if want_pass and (rc != 0 or report["pass"] is not True):
        return f"verify exit {rc}, pass={report['pass']}", report, 0
    if rc != (0 if report["pass"] else 1):
        return f"verify exit {rc} disagrees with pass={report['pass']}", report, 0
    if report["points_evaluated"] != samples:
        return f"points_evaluated {report['points_evaluated']} != {samples}", report, 0
    if report["signature"] != signature:
        return f"signature {report['signature']} != {signature}", report, 0
    if ricci is None or not math.isfinite(ricci):
        return f"non-finite Ricci residual {ricci!r}", report, 0
    return None, report, samples


def verify_op(surface, n, eps_blocks, e0, m1, n1, samples, seed, oracle=False):
    argv = ["verify", "--surface", surface, "--n", str(n),
            # '=' keeps argparse from reading a leading '-1' as an option
            "--eps-blocks=" + ",".join(str(e) for e in eps_blocks),
            "--e0", repr(e0), "--m1", repr(m1), "--n1", repr(n1),
            "--samples", str(samples), "--seed", str(seed)]
    if oracle:
        argv.append("--oracle")
    signature = expected_signature(surface, eps_blocks)

    def check(minsurf, outputs):
        problem, _, points = _check_verify_report(outputs[0], samples, signature)
        return problem, points, outputs[0][1]

    return Op([argv], check)


def sweep_configs(n):
    """The acceptance sweep's (eps_blocks, e0, m1, n1) settings for one n."""
    n1_values = sorted({0.0, (n - 1) / 2.0, (n - 1) / 4.0})
    return list(itertools.product(itertools.product((1, -1), repeat=n),
                                  (0.0, 0.3), (0.0, 1.0), n1_values))


_SWEEP = {n: sweep_configs(n) for n in (1, 2, 3)}


def sweep_op(k, seed):
    """Op k of the sweep: surface cycles fastest, then n, then the config,
    so any 15 consecutive ops cover every surface at every n."""
    surface = MINIMAL_SURFACES[k % len(MINIMAL_SURFACES)]
    n = (k // len(MINIMAL_SURFACES)) % 3 + 1
    configs = _SWEEP[n]
    eps, e0, m1, n1 = configs[(k // (3 * len(MINIMAL_SURFACES))) % len(configs)]
    return verify_op(surface, n, eps, e0, m1, n1, 100, seed)


def solve_grid_op(seed, grid, samples, path):
    """Solve Scherk's Dirichlet problem, then verify the written grid."""
    solve = ["solve", "--boundary", "scherk", "--grid", f"{grid},{grid}", "--out", path]
    verify = ["verify", "--grid", path, "--samples", str(samples), "--seed", str(seed)]
    expected = GRID_RICCI_257 * (256.0 / (grid - 1)) ** 2

    def check(minsurf, outputs):
        (rc, stdout, stderr), verify_out = outputs
        if rc != 0:
            return f"solve exit {rc}: {stderr.strip()[-200:]}", 0, stdout
        residuals = [json.loads(line)["residual"] for line in stdout.splitlines()]
        if not residuals or not residuals[-1] < SOLVE_TOL:
            return f"solve did not converge: {residuals[-1:]}", 0, stdout
        with open(path, "rb") as fh:
            written = fh.read()
        sol = minsurf.load_solution(path)
        copy = path + ".copy"
        minsurf.save_solution(sol, copy)
        with open(copy, "rb") as fh:
            if not sol.converged or fh.read() != written:
                return "solution file does not round-trip", 0, stdout
        # ROADMAP item 4: finite differences of a grid cannot meet the 1e-7
        # gate, so pass=false is the expected verdict, not a failure
        problem, report, points = _check_verify_report(verify_out, samples, 4, want_pass=False)
        if problem is None:
            ricci = report["ricci"]["max_normalized"]
            if not expected / GRID_RICCI_FACTOR <= ricci <= expected * GRID_RICCI_FACTOR:
                problem = f"grid Ricci residual {ricci:.3e} is far from O(h^2) estimate {expected:.1e}"
        digest_text = "\n".join([stdout, hashlib.sha256(written).hexdigest(), verify_out[1]])
        return problem, points, digest_text

    return Op([solve, verify], check)


def build(name, tmp_dir):
    """The named workload; ``tmp_dir`` holds solve-grid's solution file.

    ``tmp_dir`` should be a path relative to the working directory: it is
    part of the grid report (and so of its digest) as ``grid:PATH``.
    """
    if name == "verify-wide":
        return Workload(name, lambda k, seed: verify_op(
            "catenoid", 1, (1,), 0.3, 1.0, 0.0, 20000, seed), trace_ops=4)
    if name == "verify-deep":
        return Workload(name, lambda k, seed: verify_op(
            "scherk", 3, (1, -1, 1), 0.3, 1.0, 0.5, 5000, seed, oracle=True), trace_ops=3)
    if name == "verify-sweep":
        return Workload(name, sweep_op, trace_ops=45, block=15)
    if name == "solve-grid":
        path = f"{tmp_dir}/scherk257.minsurf"
        return Workload(name, lambda k, seed: solve_grid_op(seed, 257, 200, path), trace_ops=3)
    raise ValueError(f"unknown workload {name!r}")


#: the workloads of BENCHMARK.json
NAMES = ("verify-deep", "solve-grid")

#: runnable by name, but left out of BENCHMARK.json: on a shared host their
#: run-to-run spread exceeds its bounds (see README.md)
EXTRA = ("verify-sweep", "verify-wide")
