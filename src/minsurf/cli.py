"""Command-line entry point: verify / solve / curvature.

``verify`` samples admissible points with a seeded Halton sequence, runs
the identity suite and the assembled-metric Ricci computation at each, and
emits a JSON report (schema documented in the README).  ``solve`` runs the
Newton solver and writes a ``minsurf v1`` solution file.  ``curvature``
exposes the curvature engine on built-in test metrics.

Exit codes: 0 pass, 1 verification/solve failure, 2 invalid usage,
3 I/O error.  Reports are byte-identical for identical invocations except
for the wall_time_ms field.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
import time

import numpy as np

from . import assembly, curvature, geometry2d, surfaces
from .geometry2d import CHECK_NAMES, CheckConstants
from .jets import NSLOTS, DomainError, Jet3

#: fixed normalized tolerance for the identity checks
IDENTITY_TOL = 1e-9

#: machine-readable reasons a sampled point can be skipped
SKIP_REASONS = ("NEAR_SINGULAR", "RHO_NONPOSITIVE", "LOG_DOMAIN")

#: candidate budget: at most this multiple of --samples points are drawn
REDRAW_FACTOR = 10

#: number of points cross-checked in --oracle mode, and the base step
ORACLE_POINTS = 10
ORACLE_STEP = 1e-3

#: points per chunk of the verify pipeline and candidates per sampling round,
#: so memory past the sample's phi jets does not grow with --samples (the
#: README's verify section says how the size was chosen)
VERIFY_CHUNK = 1024


# ---------------------------------------------------------------------------
# deterministic JSON (fixed key order, 17 significant digits)
# ---------------------------------------------------------------------------

def _floats(a):
    """JSON of a non-empty float array: one format pass per innermost row, so
    only one row's Python floats are alive at a time, then the brackets of
    the outer axes, innermost first."""
    flat = a.ravel()
    if not np.isfinite(flat).all():
        raise ValueError(f"cannot write the non-finite number {float(flat[~np.isfinite(flat)][0])} as JSON")
    if a.ndim == 0:
        return format(float(a), ".17g")
    items = ["[" + ", ".join(map("{:.17g}".format, row.tolist())) + "]" for row in a.reshape(-1, a.shape[-1])]
    for size in a.shape[-2::-1]:
        items = ["[" + ", ".join(items[i:i + size]) + "]" for i in range(0, len(items), size)]
    return items[0]


def dumps(obj) -> str:
    def _json(obj):
        if isinstance(obj, (float, np.floating)):
            return format(float(obj), ".17g") if math.isfinite(obj) else _floats(np.array(obj))
        if isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.size:
            return _floats(obj)
        if isinstance(obj, dict):
            return "{" + ", ".join(_json(str(k)) + ": " + _json(v) for k, v in obj.items()) + "}"
        if isinstance(obj, (list, tuple, np.ndarray)):
            return "[" + ", ".join(map(_json, obj)) + "]"
        if obj is None or obj is True or obj is False:
            return {None: "null", True: "true", False: "false"}[obj]
        if isinstance(obj, (int, np.integer)):
            return str(int(obj))
        if isinstance(obj, str):
            return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
        raise TypeError(f"cannot serialize {type(obj)!r}")
    return _json(obj)


# ---------------------------------------------------------------------------
# verification pipeline
# ---------------------------------------------------------------------------

def _classify_chunk(spec, cfg, cx, cy):
    """Skip-reason code per candidate ('' accepted, else a SKIP_REASONS
    entry) and the phi jet coefficients of the accepted ones, in order."""
    reasons = np.full(cx.shape, "", dtype=object)
    ok = spec.admissible(cx, cy)
    reasons[~ok] = "NEAR_SINGULAR"
    idx = np.nonzero(ok)[0]
    # jets are only evaluated on admissible candidates (the predicate
    # fences off the evaluators' own singularities)
    f = spec.phi_jet(cx[idx], cy[idx]) if idx.size else Jet3(np.empty((NSLOTS, 0)))
    px, py = f.partial(1, 0), f.partial(0, 1)
    rho = spec.ambient.rho(px, py)
    bad_rho = rho <= 0.0
    reasons[idx[bad_rho]] = "RHO_NONPOSITIVE"
    w1, w2 = spec.ambient.weights(px, py)
    bad_log = ~bad_rho & ~assembly.log_domain_ok(rho, w1, w2, cfg)
    reasons[idx[bad_log]] = "LOG_DOMAIN"
    return reasons, f.c[:, ~(bad_rho | bad_log)]


class _ScrambledHalton:
    """Owen-scrambled Halton points in [0, 1)^2 (A. B. Owen, "A randomized
    Halton algorithm in R", arXiv:1706.02808, 2017).

    Coordinate i is the radical inverse of the point index k in base
    (2, 3)[i], each base-b digit d_j of k mapped through its own random
    permutation: u = sum_j perm[j][d_j] b^-(j+1), summed in digit order.
    The points, bit for bit, are those of
    ``scipy.stats.qmc.Halton(d=2, scramble=True, seed=seed)``.
    """

    BASES = (2, 3)

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self._terms = []  # per base, row j holds perm[j][d] * b^-(j+1) for every digit d
        for base in self.BASES:
            # one permutation per digit that a double still resolves
            perm = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
            scale = np.empty(len(perm))
            b = 1.0 / base
            for j, row in enumerate(perm):
                rng.shuffle(row)
                scale[j] = b
                b /= base  # repeated division: 3.0 ** -(j + 1) differs in the last bit
            self._terms.append(perm * scale[:, None])
        self._next = 0  # the index k continues across calls

    def random(self, n):
        """The next n points, shape (n, 2)."""
        k = np.arange(self._next, self._next + n, dtype=np.int64)
        self._next += n
        return np.stack([self._radical_inverse(k, b, t) for b, t in zip(self.BASES, self._terms)],
                        axis=1)

    @staticmethod
    def _radical_inverse(k, base, terms):
        u = np.zeros(k.size)
        top = int(k[-1]) if k.size else 0  # the largest remaining quotient
        for row in terms:
            if top:
                k, digit = np.divmod(k, base)
                top //= base
                u += row[digit]
            else:  # every remaining digit is 0
                u += row[0]
        return u


def draw_points(spec, cfg, samples, seed):
    """Seeded low-discrepancy sampling over the admissible domain.

    Candidates come from a scrambled Halton sequence mapped onto the domain
    rectangle and screened in rounds of at most VERIFY_CHUNK; skipped ones
    are replaced by further draws, up to a total of REDRAW_FACTOR * samples
    candidates, taken in sequence order.  Returns the accepted coordinates,
    the number of candidates consumed, the per-reason skip counts and the
    order-3 jet of phi at the accepted points, evaluated while screening.
    """
    halton = _ScrambledHalton(seed)
    x0, x1, y0, y1 = spec.domain
    skips = dict.fromkeys(SKIP_REASONS, 0)
    xs, ys, cs = np.empty(samples), np.empty(samples), np.empty((NSLOTS, samples))
    accepted = 0
    consumed = 0
    budget = REDRAW_FACTOR * samples
    while accepted < samples and consumed < budget:
        chunk = min(max(samples - accepted, 32), VERIFY_CHUNK, budget - consumed)
        u = halton.random(chunk)
        cx = x0 + u[:, 0] * (x1 - x0)
        cy = y0 + u[:, 1] * (y1 - y0)
        reasons, c = _classify_chunk(spec, cfg, cx, cy)
        good = reasons == ""
        # consume candidates in sequence order only until the target is met
        take = min(int(np.searchsorted(np.cumsum(good), samples - accepted)) + 1, chunk)
        consumed += take
        sel = good[:take]
        new = slice(accepted, accepted + int(sel.sum()))
        xs[new], ys[new] = cx[:take][sel], cy[:take][sel]
        cs[:, new] = c[:, :new.stop - new.start]  # the accepted candidates that were taken
        accepted = new.stop
        for reason in reasons[:take][~sel]:
            skips[reason] += 1
    return xs[:accepted], ys[:accepted], consumed, skips, Jet3(cs[:, :accepted])


def _first_max(best, vals, start):
    """The running (max, point) best, updated with vals at points start,
    start + 1, ... as np.argmax over the whole batch picks: first max, nan first."""
    at = int(np.argmax(vals))
    return (best, (vals[at], start + at))[int(np.argmax([best[0], vals[at]]))]


def _range_error(frame, cfg, x, y, overflow=()):
    """The error naming the first point of frame, at (x[k], y[k]), where
    e^(2 Phi) is below the normal floats, else the first k of overflow, or None."""
    small = np.flatnonzero(np.abs(assembly.conformal_factor_jet(frame, cfg).value) < np.finfo(float).tiny)
    for what, at in (("the conformal factor e^(2 Phi) underflows", small),
                     ("the Ricci tensor overflows", overflow)):
        if len(at):
            return curvature.SingularMetric(f"{what} at ({x[at[0]]:g}, {y[at[0]]:g}) for n = {cfg.n}")


# an overflow shows as an inf or nan, which the singularity rule reports in
# one line: a grid node of 1e300 overflows rho, the jets and the frame
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def run_verification(spec, cfg, samples, seed, tol, oracle):
    """Full verification of one surface/configuration pair.

    Frame, identity suite, assembly, Ricci engine and signature run over
    chunks of VERIFY_CHUNK sampled points, each reduced by ``_first_max`` as
    it finishes, so the report does not depend on the chunk size.
    """
    t0 = time.monotonic()
    _reuse_freed_memory()
    x, y, drawn, skips, phi = draw_points(spec, cfg, samples, seed)
    if x.size == 0:
        raise DomainError("no admissible sample points found within the redraw budget")
    assert VERIFY_CHUNK >= ORACLE_POINTS  # the oracle's points are all in chunk 0
    worst = dict.fromkeys(CHECK_NAMES + ("ricci", "max_abs"), (-np.inf, 0))
    skipped = dict.fromkeys(CHECK_NAMES, 0)
    same_sig = True
    for start in range(0, x.size, VERIFY_CHUNK):
        frame = geometry2d.SurfaceFrame(spec.ambient, Jet3(phi.c[:, start:start + VERIFY_CHUNK]))
        checks = geometry2d.run_identity_checks(frame, CheckConstants())
        comp, d1, d2 = assembly.assemble_arrays(frame, cfg)
        try:
            ric, _, denom = curvature.ricci_arrays(comp, d1, d2)
        except curvature.SingularMetric as exc:
            raise _range_error(frame, cfg, x[start:], y[start:]) or exc
        ric_abs = functools.reduce(np.maximum, [np.abs(p).max(axis=(-2, -1)) for p in ric.parts])
        ratio = ric_abs / denom
        # R or its scale left the float range; a finite R over an inf scale reads 0
        out_of_range = ~(np.isfinite(ratio) & np.isfinite(denom))
        if out_of_range.any():
            raise _range_error(frame, cfg, x[start:], y[start:], np.flatnonzero(out_of_range))
        worst["max_abs"] = _first_max(worst["max_abs"], ric_abs, start)
        worst["ricci"] = _first_max(worst["ricci"], ratio, start)
        for name, res in checks.items():
            skipped[name] += int(res.valid.size - res.valid.sum())
            worst[name] = _first_max(worst[name], np.where(res.valid, res.normalized, -np.inf), start)
        sigs = assembly.signature_values(comp)
        if start == 0:
            sig, ric0 = int(sigs[0]), curvature.BlockDiagonal([p[:ORACLE_POINTS] for p in ric.parts], ric.layout)
        same_sig &= bool(np.all(sigs == sig))
        del frame, checks, comp, d1, d2, ric, res  # before the next chunk's arrays are built

    per_check = {}
    for name in CHECK_NAMES:
        value, at = worst[name]
        valid = skipped[name] < x.size
        per_check[name] = {"max_normalized_residual": float(value) if valid else None,
                           "worst_point": [float(x[at]), float(y[at])] if valid else None,
                           "points_skipped": skipped[name]}

    oracle_entry = None
    if oracle:
        k = min(ORACLE_POINTS, x.size)
        fd = curvature.ricci_fd(
            lambda px, py: assembly.assemble_arrays(
                geometry2d.SurfaceFrame(spec.ambient, spec.phi_jet(px, py)), cfg)[0],
            (x[:k], y[:k]), ORACLE_STEP)
        oracle_entry = {"step": ORACLE_STEP, "points": k,
                        "max_abs_difference": float(np.abs(fd.dense() - ric0.dense()).max())}

    max_norm, at = worst["ricci"]
    checks_pass = all(worst[name][0] < IDENTITY_TOL for name in CHECK_NAMES)  # -inf: no valid point
    report = {
        "surface": spec.name,
        "config": {"n": cfg.n, "eps_blocks": list(cfg.eps_blocks), "e0": cfg.e0,
                   "m1": cfg.m1, "n1": cfg.n1},
        "seed": seed,
        "tolerances": {"ricci": tol, "identity": IDENTITY_TOL},
        "points_requested": drawn,
        "points_evaluated": int(x.size),
        "points_skipped": drawn - int(x.size),
        "skip_reasons": {k: skips[k] for k in SKIP_REASONS},
        "per_check": per_check,
        "ricci": {"max_abs": float(worst["max_abs"][0]),
                  "max_normalized": float(max_norm),
                  "worst_point": [float(x[at]), float(y[at])]},
        "signature": sig,
        "oracle": oracle_entry,
        "pass": bool(checks_pass and max_norm < tol and same_sig),
        "wall_time_ms": int(round((time.monotonic() - t0) * 1000.0)),
    }
    return report


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose errors reach main's one-line handler (exit 2)."""

    def error(self, message):
        raise UsageError(message)


def _parse_params(pairs):
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"--param expects key=value, got {pair!r}")
        key, val = pair.split("=", 1)
        try:
            params[key] = float(val)
        except ValueError:
            params[key] = val
    return params


def _numbers(flag, text, form, kind=float):
    """The comma-separated numbers of a list flag, one for each name in
    ``form`` (such as 'NX,NY'); a UsageError names the flag, form and value."""
    try:
        values = [kind(tok) for tok in text.split(",")]
    except ValueError:
        values = []
    if len(values) != len(form.split(",")):
        raise UsageError(f"{flag} needs {form}, got {text!r}")
    return values


def _parse_eps_blocks(text, n):
    if text is None:
        return (1,) * n
    try:
        eps = tuple(int(tok) for tok in str(text).split(","))
    except ValueError:
        raise UsageError(f"bad --eps-blocks {text!r}")
    if len(eps) != n or any(e not in (1, -1) for e in eps):
        raise UsageError(f"--eps-blocks needs {n} entries of +-1, got {text!r}")
    return eps


def _config_tokens(path):
    """The flags a --config file spells, one per line: ``key = value`` is
    ``--key=value`` and a bare ``key`` the switch ``--key``; ``_`` reads as ``-``."""
    tokens = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, val = (tok.strip() for tok in line.partition("="))
            tokens.append("--" + key.replace("_", "-") + (f"={val}" if eq else ""))
    return tokens


def cmd_verify(args) -> int:
    cfg = assembly.AssemblyConfig(n=args.n, eps_blocks=_parse_eps_blocks(args.eps_blocks, args.n),
                                  e0=args.e0, m1=args.m1, n1=args.n1)
    if args.samples < 1:
        raise UsageError(f"--samples must be at least 1, got {args.samples}")
    if not 0.0 < args.tol < np.inf:
        raise UsageError(f"--tol must be a positive finite number, got {args.tol!r}")
    if args.seed < 0:
        raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")

    if (args.surface is None) == (args.grid is None):
        raise UsageError("exactly one of --surface or --grid is required")
    if args.grid is not None and args.oracle:
        raise UsageError("--oracle needs a smooth catalog surface, not --grid")
    if args.param and args.surface is None:
        raise UsageError("--param sets a catalog surface's parameters; it needs --surface, not --grid")
    if args.surface is not None:
        spec = surfaces.get(args.surface, _parse_params(args.param))
    else:
        from . import solver  # scipy loads only for the commands that need it
        spec = solver.as_surface(solver.load_solution(args.grid), name=f"grid:{args.grid}")

    report = run_verification(spec, cfg, samples=args.samples, seed=args.seed, tol=args.tol,
                              oracle=args.oracle)
    _emit(dumps(report), args.json)
    return 0 if report["pass"] else 1


def _emit(text, json_path):
    """Print a report and, with --json, also write it to that path."""
    print(text)
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(text + "\n")


def _parse_boundary(text):
    """(Dirichlet data, None) for a catalog name or linear:a,b,c; (None, path) for file:PATH."""
    if text.startswith("file:"):
        return None, text[len("file:"):]
    if text.startswith("linear:"):
        spec = surfaces.plane(*_numbers("--boundary linear:", text[len("linear:"):], "A,B,C"))
    else:
        spec = surfaces.get(text)

    def boundary(x, y):
        try:
            return spec.phi_jet(x, y).value
        except DomainError as exc:
            raise UsageError(f"--boundary {text} is undefined on the solve domain's edge ({exc}); its catalog "
                             "domain is x in [{:g}, {:g}], y in [{:g}, {:g}]".format(*spec.domain))
    return boundary, None


def cmd_solve(args) -> int:
    from . import solver

    k1, k2, k0, eps = _numbers("--ambient", args.ambient, "K1,K2,K0,EPS")
    if not eps.is_integer():
        raise UsageError(f"the --ambient sign eps must be +1 or -1, got {eps:g}")
    ambient = surfaces.AmbientMetric(k1, k2, k0, int(eps))
    nx, ny = _numbers("--grid", args.grid, "NX,NY", int)
    domain = tuple(_numbers("--domain", args.domain, "X0,X1,Y0,Y1"))

    boundary, boundary_file = _parse_boundary(args.boundary)
    if boundary_file is not None:
        ref = solver.load_solution(boundary_file)
        nx, ny, domain = ref.nx, ref.ny, (*ref.x_range, *ref.y_range)

        def boundary(x, y):  # Dirichlet data read off the stored edge values
            i, j = ref.nearest_node(x, y)
            return ref.values[np.clip(i, 0, nx - 1), np.clip(j, 0, ny - 1)]

    exit_code = 0
    try:
        sol = solver.solve_minimal(boundary, ambient, grid=(nx, ny), domain=domain,
                                   tol=args.tol, max_iter=args.max_iter)
    except solver.NoConvergence as exc:
        sol = exc.solution
        print(f"error: {exc}", file=sys.stderr)
        exit_code = 1
    except solver.SingularJacobian as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for i, res in enumerate(sol.residual_history):
        print(dumps({"iteration": i, "residual": res}))
    solver.save_solution(sol, args.out)
    return exit_code


def _parse_metric(text, point):
    """(comp, d1, d2) of a --metric spec over point, a batch of one point."""
    if text == "flat":
        return curvature.flat_metric(point)
    if text == "polar":
        return curvature.polar_metric(point)
    if text.startswith("sphere:"):
        try:
            return curvature.sphere_metric(point, float(text[len("sphere:"):]))
        except (ValueError, OverflowError):  # a radius whose square overflows
            raise UsageError(f"bad sphere radius in {text!r}")
    if text.startswith("assembled:"):
        name, *opts = text[len("assembled:"):].split(",")
        if not name:
            raise UsageError(f"bad assembled metric spec {text!r}")
        if "" in opts:
            raise UsageError(f"empty option in assembled metric spec {text!r}")
        keys = [opt.partition("=")[0] for opt in opts]
        for key in keys:
            if keys.count(key) > 1:
                raise UsageError(f"assembled metric option {key!r} is given more than once")
        # each k=v is read as the flag --k=v, as --config lines are
        parser = _Parser(prog=f"assembled:{name}", add_help=False, allow_abbrev=False)
        parser.add_argument("--n", type=int, default=1)
        parser.add_argument("--eps")  # compact sign string, e.g. eps=+-+
        for key in ("e0", "m1", "n1"):
            parser.add_argument(f"--{key}", type=float, default=0.0)
        flags = parser.parse_args(["--" + opt for opt in opts])
        if flags.n < 1:
            raise UsageError(f"n must be a positive integer, got {flags.n}")
        n, signs = flags.n, "+" * flags.n if flags.eps is None else flags.eps
        if len(signs) != n or any(s not in "+-" for s in signs):
            raise UsageError(f"eps must be {n} signs of +/-, got {signs!r}")
        cfg = assembly.AssemblyConfig(n=n, eps_blocks=tuple(1 if s == "+" else -1 for s in signs),
                                      e0=flags.e0, m1=flags.m1, n1=flags.n1)
        return assembly.assemble_arrays(geometry2d.frame_at(surfaces.get(name), point), cfg)
    raise UsageError(f"unknown metric {text!r}")


def cmd_curvature(args) -> int:
    px, py = _numbers("--point", args.point, "X,Y")
    if not np.all(np.isfinite((px, py))):
        raise UsageError(f"--point must be two finite numbers, got {args.point!r}")
    comp, d1, d2 = _parse_metric(args.metric, (np.array([px]), np.array([py])))
    ricci, scalar, denom = curvature.ricci_arrays(comp, d1, d2)
    ric = ricci.dense()[0]
    max_abs = float(np.abs(ric).max())
    report = {
        "metric": args.metric,
        "point": [px, py],
        "dim": comp.shape[-1],
        "christoffel": curvature.christoffel_arrays(comp, d1)[0],
        "ricci": ric,
        "scalar": float(scalar[0]),
        "max_abs_ricci": max_abs,
        "normalized_ricci": max_abs / float(denom[0]),
    }
    _emit(dumps(report), args.json)
    return 0


def build_parser():
    parser = _Parser(
        prog="minsurf",
        description="Construct and verify Ricci-flat block metrics from minimal graph surfaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="verify Ricci flatness and the identity suite")
    v.add_argument("--surface", help="catalog surface name")
    v.add_argument("--grid", help="minsurf v1 solution file to verify instead of a catalog surface")
    v.add_argument("--param", action="append", help="surface factory parameter key=value")
    v.add_argument("--n", type=int, default=1, help="number of y-blocks (default %(default)s)")
    v.add_argument("--eps-blocks", dest="eps_blocks", help="comma list of +-1 block signs (default all 1)")
    v.add_argument("--e0", type=float, default=0.0, help="exponential coefficient (default %(default)s)")
    v.add_argument("--m1", type=float, default=0.0, help="w1 weight exponent, m2 = -m1 (default %(default)s)")
    v.add_argument("--n1", type=float, default=0.0,
                   help="w1 conformal-factor exponent, n2 = (n-1)/2 - n1 (default %(default)s)")
    v.add_argument("--samples", type=int, default=100, help="sample points (default %(default)s)")
    v.add_argument("--seed", type=int, default=42, help="sampling seed (default %(default)s)")
    v.add_argument("--tol", type=float, default=1e-7, help="normalized Ricci tolerance (default %(default)s)")
    v.add_argument("--oracle", action="store_true", help="add finite-difference Ricci cross-check")
    v.add_argument("--json", help="also write the report to this path")
    v.add_argument("--config", help="file of flags, one 'key = value' or bare switch per line (flags win)")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("solve", help="solve a minimal-surface Dirichlet problem")
    s.add_argument("--boundary", required=True,
                   help="catalog surface NAME | linear:a,b,c | file:PATH (Dirichlet data)")
    s.add_argument("--ambient", default="1,1,0,1", help="k1,k2,k0,eps (default Euclidean)")
    s.add_argument("--grid", default="65,65", help="NX,NY (default %(default)s; file: boundaries use the file's)")
    s.add_argument("--domain", default="-1,1,-1,1",
                   help="x0,x1,y0,y1 (default unit square; file: boundaries use the file's)")
    s.add_argument("--tol", type=float, default=1e-10, help="residual tolerance (default %(default)s)")
    s.add_argument("--max-iter", dest="max_iter", type=int, default=25, help="Newton steps (default %(default)s)")
    s.add_argument("--out", required=True, help="output solution path")
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("curvature", help="curvature report for a built-in metric")
    c.add_argument("--metric", required=True,
                   help="flat | polar | sphere:a | assembled:SURFACE[,n=..][,eps=+-..][,e0=..][,m1=..][,n1=..]")
    c.add_argument("--point", required=True, help="X,Y evaluation point")
    c.add_argument("--json", help="also write the report to this path")
    c.set_defaults(func=cmd_curvature)
    return parser


#: a token that argparse would take for an option although it is a number
_NEGATIVE_VALUE = re.compile(r"^-\.?\d")


def _normalize_argv(argv):
    """Join a value that starts like a negative number onto the --flag before it.

    argparse reads a separate ``-1,1`` as an option; ``--flag=-1,1`` is not
    ambiguous.  No minsurf option is spelled like a number.
    """
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if _NEGATIVE_VALUE.match(tok) and prev.startswith("--") and len(prev) > 2 and "=" not in prev:
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def _reuse_freed_memory():
    """Start glibc malloc's thresholds at the ceiling its dynamic rule can
    reach (mmap 32 MiB, trim twice that), so that each verify chunk reuses
    the heap pages the last one freed.  With the defaults glibc trims the
    heap after every chunk and the next chunk faults it in again: about
    9000 minor faults per 5000-point verify.  Without glibc, nothing changes."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no mallopt, or no process handle
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    parser = build_parser()
    argv = _normalize_argv(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # the file's flags go first, so the command line's own win
            args = parser.parse_args(argv[:1] + _config_tokens(args.config) + argv[1:])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # run_verification's policy
            return args.func(args)
    except (UsageError, ValueError, MemoryError) as exc:  # MemoryError: a --samples too large to hold
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
