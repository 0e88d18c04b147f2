"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live;
without -s they appear in the captured output of failing tests.
"""

import itertools
import json
import re
import time
from contextlib import contextmanager

import numpy as np
from conftest import CLOSED_FORMS, interior_points

from minsurf import assembly, curvature, solver, surfaces
from minsurf.cli import draw_points, main
from minsurf.geometry2d import (CHECK_NAMES, CheckConstants, SurfaceFrame, frame_at,
                                run_identity_checks)

RICCI_FLAT_SURFACES = ("plane", "scherk", "helicoid", "catenoid", "bi_wave")
SEED = 42
RICCI_TOL = 1e-7
IDENTITY_TOL = 1e-9


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL")
        raise
    print(f"[criterion {num}] {name}: PASS")


def sweep_configs(n):
    n1_values = sorted({0.0, (n - 1) / 2.0, (n - 1) / 4.0})
    for eps in itertools.product((1, -1), repeat=n):
        for e0 in (0.0, 0.3):
            for m1 in (0.0, 1.0):
                for n1 in n1_values:
                    yield assembly.AssemblyConfig(n, eps, e0, m1, n1)


def test_criterion_1_ricci_flat_construction():
    """Each minimal catalog surface x every (n, eps, e0, m1, n1) setting:
    normalized max |Ricci| < 1e-7 at 100 seeded admissible points."""
    with criterion(1, "assembled metrics are Ricci flat"):
        t0 = time.monotonic()
        combos = 0
        worst = 0.0
        for name in RICCI_FLAT_SURFACES:
            spec = surfaces.get(name)
            x, y, _, _, phi = draw_points(spec, assembly.AssemblyConfig(), 100, SEED)
            assert x.size == 100
            fr = SurfaceFrame(spec.ambient, phi)
            # all conformal-factor bases are positive on these surfaces, so
            # the same 100 points serve every configuration (no skips)
            assert (fr.rho.value > 0).all()
            assert (fr.w[0].value > 0).all() and (fr.w[1].value > 0).all()
            for n in (1, 2, 3):
                for cfg in sweep_configs(n):
                    comp, d1, d2 = assembly.assemble_arrays(fr, cfg)
                    ric, _, denom = curvature.ricci_arrays(comp, d1, d2)
                    resid = (np.abs(ric.dense()).max(axis=(-2, -1)) / denom).max()
                    assert resid < RICCI_TOL, (name, cfg, resid)
                    worst = max(worst, resid)
                    combos += 1
        elapsed = time.monotonic() - t0
        assert combos == 5 * (8 + 48 + 96)
        assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"
        print(f"  {combos} configurations, worst normalized residual "
              f"{worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_negative_control():
    """phi = x^2 with n = 1, eps = +1: Ricci flatness and the sigma-model
    equation must genuinely fail."""
    with criterion(2, "negative control fails as it must"):
        spec = surfaces.get("nonminimal_x2")
        cfg = assembly.AssemblyConfig(1, (1,), 0.0, 0.0, 0.0)
        x, y, _, _, phi = draw_points(spec, cfg, 100, SEED)
        fr = SurfaceFrame(spec.ambient, phi)
        comp, d1, d2 = assembly.assemble_arrays(fr, cfg)
        ric, _, denom = curvature.ricci_arrays(comp, d1, d2)
        assert (np.abs(ric.dense()).max(axis=(-2, -1)) / denom).max() > 1e-2
        checks = run_identity_checks(fr, CheckConstants())
        assert checks["P5"].normalized.max() > 1e-3


def test_criterion_3_identity_suite():
    """All 17 identity checks < 1e-9 normalized on every minimal catalog
    surface at 100 seeded points, for three random constant draws with all
    five entries free in [-2, 2]."""
    with criterion(3, "identity suite on all minimal surfaces"):
        rng = np.random.default_rng(SEED)
        draws = [CheckConstants(*rng.uniform(-2.0, 2.0, size=5)) for _ in range(3)]
        for spec in surfaces.catalog():
            if spec.non_minimal:
                continue
            x, y, _, _, phi = draw_points(spec, assembly.AssemblyConfig(), 100, SEED)
            fr = SurfaceFrame(spec.ambient, phi)
            for consts in draws:
                checks = run_identity_checks(fr, consts)
                for cname in CHECK_NAMES:
                    res = checks[cname]
                    vals = res.normalized[res.valid]
                    assert vals.size == 0 or vals.max() < IDENTITY_TOL, (spec.name, cname)


def test_criterion_4_oracle_agreement():
    """Jet Ricci vs finite-difference Ricci on the Scherk instanton
    configuration: < 1e-4 per component at step 1e-3 and O(step^2) decay."""
    with criterion(4, "independent finite-difference oracle agrees"):
        spec = surfaces.get("scherk")
        cfg = assembly.AssemblyConfig(1, (1,), 0.0, 0.0, 0.0)

        def field(px, py):
            return assembly.assemble_arrays(frame_at(spec, (px, py)), cfg)[0].dense()

        for p in interior_points(spec, 3, seed=SEED, shrink=0.25):
            jet_ric = curvature.ricci_arrays(*assembly.assemble_arrays(frame_at(spec, p), cfg))[0].dense()[0]
            d_coarse = np.abs(curvature.ricci_fd(field, p, 1e-3).dense() - jet_ric).max()
            d_fine = np.abs(curvature.ricci_fd(field, p, 5e-4).dense() - jet_ric).max()
            assert d_coarse < 1e-4, p
            assert 3.5 <= d_coarse / d_fine <= 4.5, p


def test_criterion_5_curvature_engine_calibration():
    """Sphere scalar = 2/a^2 to 1e-10 relative; flat and polar-form metrics
    give zero Ricci to 1e-12."""
    with criterion(5, "engine calibration on textbook metrics"):
        for a in (0.5, 1.0, 2.0):
            scalar = curvature.ricci_arrays(*curvature.sphere_metric((1.0, 0.7), a=a))[1]
            assert abs(scalar - 2.0 / a ** 2) <= 1e-10 * (2.0 / a ** 2)
        assert np.abs(curvature.ricci_arrays(*curvature.flat_metric((0.0, 0.0)))[0].dense()).max() < 1e-12
        assert np.abs(curvature.ricci_arrays(*curvature.polar_metric((1.3, 0.2)))[0].dense()).max() < 1e-12


def test_criterion_6_signature_formula():
    """Signature = 2 (1 + sum eps) for the Euclidean Scherk surface across
    all sign patterns with n <= 3, and 0 for the Born-Infeld wave."""
    with criterion(6, "signature matches the closed formula"):
        scherk = frame_at(surfaces.get("scherk"), (0.3, 0.2))
        wave = frame_at(surfaces.get("bi_wave"), (0.7, 0.5))
        for n in (1, 2, 3):
            for eps in itertools.product((1, -1), repeat=n):
                cfg = assembly.AssemblyConfig(n, eps, 0.0, 0.0, 0.0)
                sig = assembly.signature_values(assembly.assemble_arrays(scherk, cfg)[0])
                assert sig.tolist() == [2 * (1 + sum(eps))]
                assert assembly.signature_values(assembly.assemble_arrays(wave, cfg)[0]).tolist() == [0]


def test_criterion_7_solver_convergence():
    """O(h^2) error decay on the Scherk Dirichlet problem, exact linear
    reproduction, and shrinking grid-fed Ricci residuals."""
    with criterion(7, "Newton solver convergence orders"):
        scherk_fn = CLOSED_FORMS["scherk"]
        errs = {}
        for n in (33, 65):
            sol = solver.solve_minimal(scherk_fn, surfaces.EUCLIDEAN, grid=(n, n))
            xs, ys = np.meshgrid(sol.xs, sol.ys, indexing="ij")
            errs[n] = np.abs(sol.values - scherk_fn(xs, ys)).max()
        assert 3.5 <= errs[33] / errs[65] <= 4.5

        lin = solver.solve_minimal(lambda x, y: 2.0 * np.asarray(x) - np.asarray(y),
                                   surfaces.EUCLIDEAN, grid=(33, 33))
        xs, ys = np.meshgrid(lin.xs, lin.ys, indexing="ij")
        assert np.abs(lin.values - (2.0 * xs - ys)).max() < 1e-12

        cfg = assembly.AssemblyConfig(1, (1,), 0.0, 0.0, 0.0)
        resid = {}
        for n in (65, 129):
            sol = solver.solve_minimal(scherk_fn, surfaces.EUCLIDEAN, grid=(n, n))
            fr = frame_at(solver.as_surface(sol), (0.3, 0.2))
            ric, _, denom = curvature.ricci_arrays(*assembly.assemble_arrays(fr, cfg))
            resid[n] = np.abs(ric.dense()).max() / denom[0]
        assert resid[65] / resid[129] > 2.0


def test_criterion_8_determinism(capsys):
    """Identical CLI invocations produce byte-identical reports except for
    the wall_time_ms field."""
    with criterion(8, "reports are deterministic"):
        argv = ["verify", "--surface", "scherk", "--n", "2", "--eps-blocks", "1,-1",
                "--e0", "0.3", "--m1", "1", "--n1", "0.25", "--seed", "7",
                "--samples", "50"]
        assert main(list(argv)) == 0
        out1 = capsys.readouterr().out
        assert main(list(argv)) == 0
        out2 = capsys.readouterr().out
        strip = lambda s: re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": _', s)
        assert out1 != ""
        assert strip(out1) == strip(out2)
        assert json.loads(out1)["seed"] == 7
