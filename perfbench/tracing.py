"""Span tracing of ``minsurf`` from outside the package.

``Tracer.install`` rebinds the public entry points of every module under
``src/minsurf`` to wrappers that record a span per call: name, start, end,
parent span and op id, plus a count where the call carries one (points,
solver iterations, accepted samples).  Spans stay in memory; ``summarize``
turns the spans of a set of ops into the per-layer metrics and ``dump``
writes them out.  A layer is a module: the part of a span name before the
first dot.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("cli", "surfaces", "jets", "geometry2d", "assembly", "curvature", "solver")

#: span that wraps one whole benchmark op; its layer is the benchmark itself
OP_SPAN = "bench.op"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.end = name, start, start
        self.parent, self.op, self.info = parent, op, None

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.op, self.info]


def _points(arr):
    """Batch size of a coordinate array or of a (P, dim, dim) metric array."""
    shape = getattr(arr, "shape", ())
    return int(shape[0]) if len(shape) in (1, 3) else 1


class Tracer:
    """Records spans while an op is open; a pass-through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id, fn):
        """Call ``fn()`` inside the root span of op ``op_id``."""
        self.op = op_id
        span = self._open(OP_SPAN)
        try:
            return fn()
        finally:
            self._close(span)
            self.op = None

    def wrap(self, fn, name, info=None):
        """``fn`` recording a span ``name``; ``info(args, result)`` gives the
        span's count."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if info is not None:
                span.info = info(args, out)
            return out

        return traced

    def _wrap_ricci(self, fn, kind):
        """ricci_arrays with its batch size and tracemalloc peak (bytes).

        ``kind`` names the binding the call came through; calls made by the
        finite-difference oracle are tagged ``fd`` whatever the binding.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(comp, d1, d2):
            if tracer.op is None:
                return fn(comp, d1, d2)
            parent = tracer._stack[-1] if tracer._stack else None
            in_fd = parent is not None and tracer.spans[parent].name == "curvature.ricci_fd"
            tracemalloc.start()
            span = tracer._open("curvature.ricci_arrays")
            try:
                return fn(comp, d1, d2)
            finally:
                tracer._close(span)
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                span.info = ["fd" if in_fd else kind, _points(comp), peak]

        return traced

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, fn, wrapper):
        """Point every ``minsurf`` module's binding of ``fn`` at ``wrapper``."""
        for name, module in list(sys.modules.items()):
            if name == "minsurf" or name.startswith("minsurf."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, attr, wrapper)

    def install(self):
        """Wrap the entry points of every module of the ``minsurf`` package."""
        from minsurf import assembly, cli, curvature, geometry2d, jets, solver, surfaces

        def drawn(args, out):
            return [int(out[0].size), int(out[2])]  # accepted, consumed

        def iterations(args, out):
            return len(out.residual_history) - 1

        plain = [
            (cli, "main", None), (cli, "draw_points", drawn),
            (cli, "run_verification", None), (cli, "dumps", None),
            (jets, "deriv", None),
            (geometry2d, "run_identity_checks", None),
            (assembly, "assemble_arrays", None), (assembly, "signature_values", None),
            (curvature, "ricci_fd", None),
            (solver, "solve_minimal", iterations), (solver, "save_solution", None),
            (solver, "load_solution", None), (solver, "grid_jets", None),
        ]
        for module, attr, info in plain:
            fn = getattr(module, attr)
            self._rebind(fn, self.wrap(fn, f"{module.__name__.split('.')[-1]}.{attr}", info))

        # geometry2d holds its own binding of ricci_arrays (the dim-2
        # conformal call); every other binding is the assembled metric's
        ricci = curvature.ricci_arrays
        self._set(geometry2d, "ricci_arrays", self._wrap_ricci(ricci, "conformal"))
        self._rebind(ricci, self._wrap_ricci(ricci, "assembled"))

        # class attributes: one binding each, whatever module names the class
        self._set(surfaces.SurfaceSpec, "phi_jet", self.wrap(
            surfaces.SurfaceSpec.phi_jet, "surfaces.phi_jet", lambda a, out: _points(a[1])))
        self._set(geometry2d.SurfaceFrame, "__init__", self.wrap(
            geometry2d.SurfaceFrame.__init__, "geometry2d.SurfaceFrame"))
        # __rmul__ is a class attribute of its own, though it names __mul__
        for attr in ("__mul__", "__rmul__"):
            self._set(jets.Jet3, attr, self.wrap(getattr(jets.Jet3, attr), "jets.mul"))
        self._set(solver.splinalg, "spsolve", self.wrap(solver.splinalg.spsolve, "solver.spsolve"))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ---------------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "info"],
                       "spans": [s.as_list() for s in self.spans]}, fh)


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


#: per-layer metric name -> unit; every value is a mean per op except
#: the ratios and the peak
METRICS = {
    "cli.draw_points.s": "s/op",
    "cli.draw_points.accept_ratio": "ratio",
    "cli.dumps.s": "s/op",
    "cli.run_verification.self_s": "s/op",
    "surfaces.phi_jet.calls": "count/op",
    "surfaces.phi_jet.points": "count/op",
    "surfaces.phi_jet.s": "s/op",
    "surfaces.phi_points_per_point": "ratio",
    "jets.mul.calls": "count/op",
    "jets.mul.s": "s/op",
    "jets.deriv.calls": "count/op",
    "geometry2d.SurfaceFrame.s": "s/op",
    "geometry2d.run_identity_checks.s": "s/op",
    "geometry2d.run_identity_checks.self_s": "s/op",
    "assembly.assemble_arrays.s": "s/op",
    "assembly.signature_values.s": "s/op",
    "curvature.ricci_arrays.s": "s/op",
    "curvature.ricci_arrays.assembled.s": "s/op",
    "curvature.ricci_arrays.conformal.s": "s/op",
    "curvature.ricci_arrays.points": "count/op",
    "curvature.ricci_arrays.peak_mb": "MiB",
    "curvature.ricci_fd.s": "s/op",
    "curvature.ricci_fd.calls": "count/op",
    "solver.solve_minimal.s": "s/op",
    "solver.newton_iters": "count/op",
    "solver.spsolve.s": "s/op",
    "solver.spsolve.calls": "count/op",
    "solver.save_solution.s": "s/op",
    "solver.load_solution.s": "s/op",
    "solver.grid_jets.calls": "count/op",
    "solver.grid_jets.s": "s/op",
    **{f"{layer}.self_s": "s/op" for layer in LAYERS},
}


def summarize(spans, ops, points):
    """Per-layer metrics over the spans of the op ids in ``ops``.

    ``points`` is the number of points the verify reports of those ops
    evaluated.  Times and counts are means per op.
    """
    ops = set(ops)
    total, selfs, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    infos = defaultdict(list)
    for span, own in zip(spans, self_times(spans)):
        if span.op not in ops:
            continue
        name, dur = span.name, span.end - span.start
        if name == "curvature.ricci_arrays":
            kind, rows, peak = span.info
            infos["ricci.peak"].append(peak)
            name = f"{name}.{kind}"
            if kind != "fd":
                total["curvature.ricci_arrays"] += dur
                infos["ricci.points"].append(rows)
        total[name] += dur
        selfs[name] += own
        selfs[name.split(".")[0]] += own
        calls[name] += 1
        if span.info is not None and name in ("cli.draw_points", "surfaces.phi_jet",
                                              "solver.solve_minimal"):
            infos[name].append(span.info)

    n = len(ops)
    drawn = infos["cli.draw_points"]
    accepted, consumed = sum(d[0] for d in drawn), sum(d[1] for d in drawn)
    phi_points = sum(infos["surfaces.phi_jet"])
    out = {
        "cli.draw_points.s": total["cli.draw_points"] / n,
        "cli.draw_points.accept_ratio": accepted / consumed if consumed else 0.0,
        "cli.dumps.s": total["cli.dumps"] / n,
        "cli.run_verification.self_s": selfs["cli.run_verification"] / n,
        "surfaces.phi_jet.calls": calls["surfaces.phi_jet"] / n,
        "surfaces.phi_jet.points": phi_points / n,
        "surfaces.phi_jet.s": total["surfaces.phi_jet"] / n,
        "surfaces.phi_points_per_point": phi_points / points if points else 0.0,
        "jets.mul.calls": calls["jets.mul"] / n,
        "jets.mul.s": total["jets.mul"] / n,
        "jets.deriv.calls": calls["jets.deriv"] / n,
        "geometry2d.SurfaceFrame.s": total["geometry2d.SurfaceFrame"] / n,
        "geometry2d.run_identity_checks.s": total["geometry2d.run_identity_checks"] / n,
        "geometry2d.run_identity_checks.self_s": selfs["geometry2d.run_identity_checks"] / n,
        "assembly.assemble_arrays.s": total["assembly.assemble_arrays"] / n,
        "assembly.signature_values.s": total["assembly.signature_values"] / n,
        "curvature.ricci_arrays.s": total["curvature.ricci_arrays"] / n,
        "curvature.ricci_arrays.assembled.s": total["curvature.ricci_arrays.assembled"] / n,
        "curvature.ricci_arrays.conformal.s": total["curvature.ricci_arrays.conformal"] / n,
        "curvature.ricci_arrays.points": sum(infos["ricci.points"]) / n,
        "curvature.ricci_arrays.peak_mb": max(infos["ricci.peak"], default=0) / 2 ** 20,
        "curvature.ricci_fd.s": total["curvature.ricci_fd"] / n,
        "curvature.ricci_fd.calls": calls["curvature.ricci_fd"] / n,
        "solver.solve_minimal.s": total["solver.solve_minimal"] / n,
        "solver.newton_iters": sum(infos["solver.solve_minimal"]) / n,
        "solver.spsolve.s": total["solver.spsolve"] / n,
        "solver.spsolve.calls": calls["solver.spsolve"] / n,
        "solver.save_solution.s": total["solver.save_solution"] / n,
        "solver.load_solution.s": total["solver.load_solution"] / n,
        "solver.grid_jets.calls": calls["solver.grid_jets"] / n,
        "solver.grid_jets.s": total["solver.grid_jets"] / n,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = selfs[layer] / n
    return out
