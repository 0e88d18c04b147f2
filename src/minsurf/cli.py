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
import re
import sys
import time

import numpy as np
from scipy.stats import qmc

from . import assembly, curvature, geometry2d, solver, surfaces
from .geometry2d import CHECK_NAMES, CheckConstants
from .jets import DomainError

#: fixed normalized tolerance for the identity checks
IDENTITY_TOL = 1e-9

#: machine-readable reasons a sampled point can be skipped
SKIP_REASONS = ("NEAR_SINGULAR", "RHO_NONPOSITIVE", "LOG_DOMAIN")

#: candidate budget: at most this multiple of --samples points are drawn
REDRAW_FACTOR = 10

#: number of points cross-checked in --oracle mode, and the base step
ORACLE_POINTS = 10
ORACLE_STEP = 1e-3


# ---------------------------------------------------------------------------
# deterministic JSON (fixed key order, 17 significant digits)
# ---------------------------------------------------------------------------

def _json(obj, out):
    if obj is None:
        out.append("null")
    elif obj is True or obj is False:
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format(float(obj), ".17g"))
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            _json(str(k), out)
            out.append(": ")
            _json(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, v in enumerate(list(obj)):
            if i:
                out.append(", ")
            _json(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    out = []
    _json(obj, out)
    return "".join(out)


# ---------------------------------------------------------------------------
# verification pipeline
# ---------------------------------------------------------------------------

def _classify_chunk(spec, cfg, cx, cy):
    """Skip-reason code per candidate: '' accepted, else a SKIP_REASONS entry."""
    reasons = np.full(cx.shape, "", dtype=object)
    ok = spec.admissible(cx, cy)
    reasons[~ok] = "NEAR_SINGULAR"
    idx = np.nonzero(ok)[0]
    if idx.size:
        # jets are only evaluated on admissible candidates (the predicate
        # fences off the evaluators' own singularities)
        f = spec.phi_jet(cx[idx], cy[idx])
        px, py = f.partial(1, 0), f.partial(0, 1)
        rho = spec.ambient.rho(px, py)
        bad_rho = rho <= 0.0
        reasons[idx[bad_rho]] = "RHO_NONPOSITIVE"
        w1, w2 = spec.ambient.weights(px, py)
        bad_log = ~bad_rho & ~assembly.log_domain_ok(rho, w1, w2, cfg)
        reasons[idx[bad_log]] = "LOG_DOMAIN"
    return reasons


def draw_points(spec, cfg, samples, seed):
    """Seeded low-discrepancy sampling over the admissible domain.

    Candidates come from a scrambled Halton sequence mapped onto the domain
    rectangle; skipped ones are replaced by further draws, up to a total of
    REDRAW_FACTOR * samples candidates.  Returns the accepted coordinates,
    the number of candidates consumed, and the per-reason skip counts.
    """
    halton = qmc.Halton(d=2, scramble=True, seed=seed)
    x0, x1, y0, y1 = spec.domain
    skips = dict.fromkeys(SKIP_REASONS, 0)
    xs, ys = [], []
    accepted = 0
    consumed = 0
    budget = REDRAW_FACTOR * samples
    while accepted < samples and consumed < budget:
        chunk = min(max(samples - accepted, 32), budget - consumed)
        u = halton.random(chunk)
        cx = x0 + u[:, 0] * (x1 - x0)
        cy = y0 + u[:, 1] * (y1 - y0)
        reasons = _classify_chunk(spec, cfg, cx, cy)
        good = reasons == ""
        # consume candidates in sequence order only until the target is met
        need = samples - accepted
        cum = np.cumsum(good)
        if cum.size and cum[-1] >= need:
            take = int(np.searchsorted(cum, need)) + 1
        else:
            take = chunk
        consumed += take
        sel = good[:take]
        xs.append(cx[:take][sel])
        ys.append(cy[:take][sel])
        accepted += int(sel.sum())
        for reason in reasons[:take][~sel]:
            skips[reason] += 1
    return np.concatenate(xs), np.concatenate(ys), consumed, skips


def run_verification(spec, cfg, samples=100, seed=42, tol=1e-7,
                     consts=None, oracle=False):
    """Full verification of one surface/configuration pair."""
    t0 = time.monotonic()
    x, y, drawn, skips = draw_points(spec, cfg, samples, seed)
    if x.size == 0:
        raise DomainError("no admissible sample points found within the redraw budget")
    frame = geometry2d.SurfaceFrame(spec, x, y)
    checks = geometry2d.run_identity_checks(frame, consts or CheckConstants())

    per_check = {}
    checks_pass = True
    for name in CHECK_NAMES:
        res = checks[name]
        nvalid = int(res.valid.sum())
        entry = {"max_normalized_residual": None, "worst_point": None,
                 "points_skipped": int(res.valid.size - nvalid)}
        if nvalid:
            vals = np.where(res.valid, res.normalized, -np.inf)
            worst = int(np.argmax(vals))
            entry["max_normalized_residual"] = float(vals[worst])
            entry["worst_point"] = [float(x[worst]), float(y[worst])]
            checks_pass &= vals[worst] < IDENTITY_TOL
        per_check[name] = entry

    comp, d1, d2 = assembly.assemble_arrays(frame, cfg)
    _, ric, _, denom = curvature.ricci_arrays(comp, d1, d2)
    max_abs = np.abs(ric).max(axis=(-2, -1))
    max_norm = max_abs / denom
    worst = int(np.argmax(max_norm))
    sigs = assembly.signature_values(comp)
    sig = int(sigs[0])

    oracle_entry = None
    if oracle:
        k = min(ORACLE_POINTS, x.size)
        fd = curvature.ricci_fd(_metric_field(spec, cfg), (x[:k], y[:k]), ORACLE_STEP)
        oracle_entry = {"step": ORACLE_STEP, "points": k,
                        "max_abs_difference": float(np.abs(fd - ric[:k]).max())}

    ricci_pass = bool(max_norm[worst] < tol)
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
        "ricci": {"max_abs": float(max_abs.max()),
                  "max_normalized": float(max_norm[worst]),
                  "worst_point": [float(x[worst]), float(y[worst])]},
        "signature": sig,
        "oracle": oracle_entry,
        "pass": bool(checks_pass and ricci_pass and np.all(sigs == sig)),
        "wall_time_ms": int(round((time.monotonic() - t0) * 1000.0)),
    }
    return report


def _metric_field(spec, cfg):
    def field(px, py):
        fr = geometry2d.SurfaceFrame(spec, np.ravel(px), np.ravel(py))
        return assembly.assemble_arrays(fr, cfg)[0].reshape(np.shape(px) + (cfg.dim, cfg.dim))
    return field


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

class UsageError(Exception):
    pass


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


def _parse_eps_blocks(text, n):
    try:
        eps = tuple(int(tok) for tok in str(text).split(","))
    except ValueError:
        raise UsageError(f"bad --eps-blocks {text!r}")
    if len(eps) != n or any(e not in (1, -1) for e in eps):
        raise UsageError(f"--eps-blocks needs {n} entries of +-1, got {text!r}")
    return eps


def _load_config(path):
    cfg = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"bad config line {line!r}")
            key, val = (tok.strip() for tok in line.split("=", 1))
            cfg[key.replace("-", "_")] = val
    return cfg


def _resolved(args, config, key, cast, default):
    val = getattr(args, key, None)
    if val is None:
        val = config.get(key, default)
    return cast(val)


def cmd_verify(args) -> int:
    config = _load_config(args.config) if args.config else {}
    surface = _resolved(args, config, "surface", str, "") or None
    grid = _resolved(args, config, "grid", str, "") or None
    n = _resolved(args, config, "n", int, 1)
    eps_blocks = _parse_eps_blocks(_resolved(args, config, "eps_blocks", str, ",".join(["1"] * n)), n)
    cfg = assembly.AssemblyConfig(
        n=n, eps_blocks=eps_blocks,
        e0=_resolved(args, config, "e0", float, 0.0),
        m1=_resolved(args, config, "m1", float, 0.0),
        n1=_resolved(args, config, "n1", float, 0.0))
    samples = _resolved(args, config, "samples", int, 100)
    seed = _resolved(args, config, "seed", int, 42)
    tol = _resolved(args, config, "tol", float, 1e-7)
    if samples < 1:
        raise UsageError(f"--samples must be at least 1, got {samples}")
    if not 0.0 < tol < np.inf:
        raise UsageError(f"--tol must be a positive finite number, got {tol!r}")

    if (surface is None) == (grid is None):
        raise UsageError("exactly one of --surface or --grid is required")
    if grid is not None and args.oracle:
        raise UsageError("--oracle needs a smooth catalog surface, not --grid")
    if surface is not None:
        spec = surfaces.get(surface, _parse_params(args.param))
    else:
        spec = solver.as_surface(solver.load_solution(grid), name=f"grid:{grid}")

    report = run_verification(spec, cfg, samples=samples, seed=seed, tol=tol,
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
        try:
            a, b, c = (float(t) for t in text[len("linear:"):].split(","))
        except ValueError:
            raise UsageError(f"bad linear boundary {text!r}")
        spec = surfaces.plane(a, b, c)
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
    try:
        k1, k2, k0, eps = (float(t) for t in args.ambient.split(","))
        ambient = surfaces.AmbientMetric(k1, k2, k0, int(eps))
        nx, ny = (int(t) for t in args.grid.split(","))
        domain = tuple(float(t) for t in args.domain.split(","))
        if len(domain) != 4:
            raise ValueError("domain needs 4 numbers")
    except ValueError as exc:
        raise UsageError(f"bad flag value: {exc}")

    boundary, boundary_file = _parse_boundary(args.boundary)
    if boundary_file is not None:
        ref = solver.load_solution(boundary_file)
        if (ref.nx, ref.ny) != (nx, ny):
            raise UsageError(f"boundary file grid {ref.nx}x{ref.ny} != requested {nx}x{ny}")
        domain = (*ref.x_range, *ref.y_range)

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
    if text == "flat":
        return curvature.flat_metric(point)
    if text == "polar":
        return curvature.polar_metric(point)
    if text.startswith("sphere:"):
        try:
            a = float(text[len("sphere:"):])
        except ValueError:
            raise UsageError(f"bad sphere radius in {text!r}")
        return curvature.sphere_metric(point, a)
    if text.startswith("assembled:"):
        toks = text[len("assembled:"):].split(",")
        if not toks or not toks[0]:
            raise UsageError(f"bad assembled metric spec {text!r}")
        name = toks[0]
        opts = {}
        for tok in toks[1:]:
            if "=" not in tok:
                raise UsageError(f"bad assembled metric option {tok!r}")
            key, val = tok.split("=", 1)
            if key in opts:
                raise UsageError(f"duplicate assembled metric option {key!r}")
            opts[key] = val
        n = int(opts.pop("n", "1"))
        signs = opts.pop("eps", "+" * n)  # compact sign string, e.g. eps=+-+
        if len(signs) != n or any(s not in "+-" for s in signs):
            raise UsageError(f"eps must be {n} signs of +/-, got {signs!r}")
        cfg = assembly.AssemblyConfig(
            n=n, eps_blocks=tuple(1 if s == "+" else -1 for s in signs),
            e0=float(opts.pop("e0", "0")),
            m1=float(opts.pop("m1", "0")),
            n1=float(opts.pop("n1", "0")))
        if opts:
            raise UsageError(f"unknown assembled metric options {sorted(opts)}")
        return assembly.assemble(surfaces.get(name), cfg, point)
    raise UsageError(f"unknown metric {text!r}")


def cmd_curvature(args) -> int:
    try:
        px, py = (float(t) for t in args.point.split(","))
    except ValueError:
        raise UsageError(f"bad --point {args.point!r}")
    m = _parse_metric(args.metric, (px, py))
    rep = curvature.ricci(m)
    report = {
        "metric": args.metric,
        "point": [px, py],
        "dim": m.dim,
        "christoffel": rep.christoffel.tolist(),
        "ricci": rep.ricci.tolist(),
        "scalar": rep.scalar,
        "max_abs_ricci": rep.max_abs_ricci,
        "normalized_ricci": rep.normalized_ricci,
    }
    _emit(dumps(report), args.json)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="minsurf",
        description="Construct and verify Ricci-flat block metrics from minimal graph surfaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="verify Ricci flatness and the identity suite")
    v.add_argument("--surface", help="catalog surface name")
    v.add_argument("--grid", help="minsurf v1 solution file to verify instead of a catalog surface")
    v.add_argument("--param", action="append", help="surface factory parameter key=value")
    v.add_argument("--n", type=int, help="number of y-blocks (default 1)")
    v.add_argument("--eps-blocks", dest="eps_blocks", help="comma list of +-1 block signs")
    v.add_argument("--e0", type=float, help="exponential coefficient (default 0)")
    v.add_argument("--m1", type=float, help="w1 weight exponent, m2 = -m1 (default 0)")
    v.add_argument("--n1", type=float, help="w1 conformal-factor exponent, n2 = (n-1)/2 - n1 (default 0)")
    v.add_argument("--samples", type=int, help="sample points (default 100)")
    v.add_argument("--seed", type=int, help="sampling seed (default 42)")
    v.add_argument("--tol", type=float, help="normalized Ricci tolerance (default 1e-7)")
    v.add_argument("--oracle", action="store_true", help="add finite-difference Ricci cross-check")
    v.add_argument("--json", help="also write the report to this path")
    v.add_argument("--config", help="flat key=value config file (flags override)")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("solve", help="solve a minimal-surface Dirichlet problem")
    s.add_argument("--boundary", required=True,
                   help="catalog surface NAME | linear:a,b,c | file:PATH (Dirichlet data)")
    s.add_argument("--ambient", default="1,1,0,1", help="k1,k2,k0,eps (default Euclidean)")
    s.add_argument("--grid", default="65,65", help="NX,NY (default 65,65)")
    s.add_argument("--domain", default="-1,1,-1,1", help="x0,x1,y0,y1 (default unit square)")
    s.add_argument("--tol", type=float, default=1e-10)
    s.add_argument("--max-iter", dest="max_iter", type=int, default=25)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_normalize_argv(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
