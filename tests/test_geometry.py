import math

import numpy as np
import pytest
from conftest import interior_points

from minsurf import geometry2d, jets, surfaces
from minsurf.geometry2d import (CHECK_NAMES, CheckConstants, SurfaceFrame, check_identities,
                                gaussian_K, laplace_beltrami, ricci_two, run_identity_checks,
                                sample)
from minsurf.jets import DomainError, Jet3
from minsurf.surfaces import SurfaceSpec, bi_wave, nonminimal_x2, plane, scherk

MINIMAL = [s for s in surfaces.catalog() if not s.non_minimal]


def frame_at_points(spec, count, seed):
    pts = interior_points(spec, count, seed, shrink=0.0)
    return SurfaceFrame(spec, np.array([p[0] for p in pts]), np.array([p[1] for p in pts]))


# -------------------------------------------------------------------------
# sample
# -------------------------------------------------------------------------

def test_sample_flat_plane():
    s = sample(plane(0.0, 0.0, 0.0), (0.2, -0.4))
    assert np.array_equal(s.h, np.eye(2)) and np.array_equal(s.g, np.eye(2))
    assert s.rho == 1.0 and s.K == 0.0 and s.H == 0.0 and s.lambda0 == 0.0
    assert s.w1 == 1.0 and s.w2 == 1.0 and s.psi0 == 0.0
    assert np.abs(s.r).max() == 0.0


def test_sample_scherk_closed_form():
    s = sample(scherk(), (0.3, 0.2))
    tx, ty = math.tan(0.3), math.tan(0.2)
    assert s.rho == pytest.approx(1.0 + tx ** 2 + ty ** 2, rel=1e-14)
    assert s.rho == pytest.approx(1.13678, abs=5e-6)
    assert s.w1 == pytest.approx(1.0 / math.cos(0.3) ** 2, rel=1e-14)
    assert s.w2 == pytest.approx(1.0 / math.cos(0.2) ** 2, rel=1e-14)
    # phi_x = tan x, phi_y = -tan y enter h off-diagonally
    assert s.h[0, 1] == pytest.approx(-tx * ty, rel=1e-14)
    assert s.psi0 == pytest.approx(-0.25 * math.log(s.rho), rel=1e-14)


def test_sample_bi_wave_null_gradient():
    # F(u) = 2u: phi_x = phi_y = 2, Lorentzian rho = 1 + (4 - 4) = 1, g = h
    s = sample(bi_wave(profile="linear", slope=2.0), (0.7, 0.5))
    assert s.rho == 1.0
    np.testing.assert_array_equal(s.g, s.h)
    assert s.K == 0.0


@pytest.mark.parametrize("spec", MINIMAL, ids=lambda s: s.name)
def test_sample_determinant_invariants(spec):
    for x, y in interior_points(spec, 20, seed=11):
        s = sample(spec, (x, y))
        det0 = spec.ambient.det
        assert np.linalg.det(s.h) == pytest.approx(det0 * s.rho, rel=1e-12)
        assert np.linalg.det(s.g) == pytest.approx(det0, rel=1e-12)
        assert np.abs(s.h @ s.h_inv - np.eye(2)).max() < 1e-12
        assert np.abs(s.g @ s.g_inv - np.eye(2)).max() < 1e-12


def test_sample_rho_nonpositive_raises():
    def phi(x, y):
        return 2.0 * Jet3.variable("y", y) + 0.0 * Jet3.variable("x", x)

    steep = SurfaceSpec("steep", phi, surfaces.LORENTZIAN, (-1, 1, -1, 1))
    with pytest.raises(DomainError):
        sample(steep, (0.0, 0.0))  # rho = 1 - 4 < 0


# -------------------------------------------------------------------------
# curvature quantities
# -------------------------------------------------------------------------

def test_gaussian_K_plane_zero():
    assert gaussian_K(plane(), (0.4, 0.4)) == 0.0


def test_gaussian_K_scherk_closed_form():
    x, y = 0.3, 0.2
    rho = 1.0 + math.tan(x) ** 2 + math.tan(y) ** 2
    expected = -2.0 / (math.cos(x) ** 2 * math.cos(y) ** 2) / rho ** 2
    assert gaussian_K(scherk(), (x, y)) == pytest.approx(expected, rel=1e-13)
    assert gaussian_K(scherk(), (x, y)) == pytest.approx(-1.7655, abs=1e-4)


def test_gaussian_K_wave_zero_any_profile():
    for profile in ("sinh", "linear"):
        spec = bi_wave(profile=profile)
        for x, y in interior_points(spec, 10, seed=3):
            assert abs(gaussian_K(spec, (x, y))) < 1e-14


def test_ricci_two_plane_zero():
    assert np.abs(ricci_two(plane(), (0.1, -0.9))).max() == 0.0


def test_ricci_two_scherk_proportionality_oracle():
    # 2D identity r = (K/2) h, with K and h checked against closed forms above
    s = sample(scherk(), (0.3, 0.2))
    np.testing.assert_allclose(ricci_two(scherk(), (0.3, 0.2)), 0.5 * s.K * s.h,
                               rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("spec", MINIMAL, ids=lambda s: s.name)
def test_ricci_two_symmetric(spec):
    for x, y in interior_points(spec, 10, seed=7):
        r = ricci_two(spec, (x, y))
        assert abs(r[0, 1] - r[1, 0]) <= 1e-14 * max(1.0, np.abs(r).max())


# -------------------------------------------------------------------------
# Laplace-Beltrami
# -------------------------------------------------------------------------

def _identity_metric(npts):
    one = Jet3.constant(np.ones(npts))
    zero = Jet3.constant(np.zeros(npts))
    return [[one, zero], [zero, one]]


def test_laplace_flat_metric():
    x = np.array([0.7])
    y = np.array([-0.2])
    X, Y = Jet3.variable("x", x), Jet3.variable("y", y)
    f = X * X + Y * Y
    assert laplace_beltrami(_identity_metric(1), f)[0] == pytest.approx(4.0, abs=1e-14)


def test_laplace_conformal_rescaling():
    # metric e^{2 lam} * identity: lap f = e^{-2 lam} (f_xx + f_yy) in 2D
    x = np.array([0.4])
    y = np.array([0.9])
    X, Y = Jet3.variable("x", x), Jet3.variable("y", y)
    lam = 0.3 * X + 0.1 * Y * Y
    e2lam = jets.exp(2.0 * lam)
    zero = Jet3.constant(np.zeros(1))
    metric = [[e2lam, zero], [zero, e2lam]]
    f = jets.sin(X) * jets.cos(Y)
    flat = -math.sin(0.4) * math.cos(0.9) * 2.0  # f_xx + f_yy
    expected = math.exp(-2.0 * (0.3 * 0.4 + 0.1 * 0.81)) * flat
    assert laplace_beltrami(metric, f)[0] == pytest.approx(expected, rel=1e-12)


def test_laplace_scherk_psi0_vs_fd_divergence():
    """Jet-propagated Laplacian against a finite-difference divergence form
    built purely from closed-form surface data (step 1e-4, tol 1e-6)."""
    def rho_fn(x, y):
        return 1.0 + math.tan(x) ** 2 + math.tan(y) ** 2

    def psi0_fn(x, y):
        return -0.25 * math.log(rho_fn(x, y))

    def flux(x, y, a):
        tx, ty = math.tan(x), math.tan(y)
        rho = rho_fn(x, y)
        h = np.array([[1 + tx * tx, -tx * ty], [-tx * ty, 1 + ty * ty]])
        ginv = math.sqrt(rho) * np.linalg.inv(h)  # g^{-1} = sqrt(rho) h^{-1}
        s = 1.0  # det g = 1 for the Euclidean ambient
        e = 1e-4
        df = np.array([(psi0_fn(x + e, y) - psi0_fn(x - e, y)) / (2 * e),
                       (psi0_fn(x, y + e) - psi0_fn(x, y - e)) / (2 * e)])
        return s * (ginv[a] @ df)

    x, y = 0.3, 0.2
    e = 1e-4
    fd = ((flux(x + e, y, 0) - flux(x - e, y, 0)) / (2 * e)
          + (flux(x, y + e, 1) - flux(x, y - e, 1)) / (2 * e))
    fr = SurfaceFrame(scherk(), np.array([x]), np.array([y]))
    jet_val = laplace_beltrami(fr.g, fr.psi0)[0]
    assert jet_val == pytest.approx(fd, abs=1e-6)


# -------------------------------------------------------------------------
# identity suite
# -------------------------------------------------------------------------

def test_plane_identities_all_vanish():
    for name, res in check_identities(plane(), (0.6, -0.3)).items():
        assert res.skipped is None, name
        assert res.normalized < 1e-12, name


def test_scherk_identities_100_points():
    fr = frame_at_points(scherk(), 100, seed=13)
    checks = run_identity_checks(fr, CheckConstants())
    for name in CHECK_NAMES:
        res = checks[name]
        assert res.valid.all(), name
        assert res.normalized.max() < 1e-9, name


@pytest.mark.parametrize("spec", MINIMAL, ids=lambda s: s.name)
def test_identities_random_constants(spec):
    rng = np.random.default_rng(29)
    fr = frame_at_points(spec, 40, seed=17)
    for _ in range(2):
        consts = CheckConstants(*rng.uniform(-2.0, 2.0, size=5))
        checks = run_identity_checks(fr, consts)
        for name in CHECK_NAMES:
            res = checks[name]
            ok = res.normalized[res.valid]
            assert ok.size == 0 or ok.max() < 1e-9, name


def test_bi_wave_log_domain_skips():
    # xi1, xi2 < 0 on the Lorentzian wave: P4b must skip, CC1 must survive
    # through its mu branch, P4c/MU stay evaluated (w1, w2 > 0)
    checks = check_identities(bi_wave(), (0.7, 0.5))
    assert checks["P4b"].skipped == geometry2d.SKIP_LOG_DOMAIN
    assert checks["CC1"].skipped is None and checks["CC1"].normalized < 1e-9
    assert checks["P4c"].normalized < 1e-9
    assert checks["MU"].normalized < 1e-9


def test_mixed_log_domain_mask_matches_single_points():
    """phi = x*y over the Lorentzian ambient: rho > 0 at every point, but
    w2 = x^2 - 1 changes sign inside the batch, so the w-masked checks are
    valid at some points only.  Each point's batched residuals equal the
    single-point ones exactly, skips included."""
    spec = SurfaceSpec("xy", lambda x, y: Jet3.variable("x", x) * Jet3.variable("y", y),
                       surfaces.LORENTZIAN, (0.0, 2.0, 0.0, 2.0))
    x = np.array([0.8, 1.2, 0.9, 1.1, 0.5])
    y = np.array([1.0, 1.0, 0.7, 0.8, 0.3])
    fr = SurfaceFrame(spec, x, y)
    assert np.all(fr.rho.value > 0.0)
    w_ok = (fr.w[0].value > 0.0) & (fr.w[1].value > 0.0)
    assert w_ok.tolist() == [False, True, False, True, False]
    batch = run_identity_checks(fr, CheckConstants())
    assert batch["P4c"].valid.tolist() == w_ok.tolist()
    for k in range(x.size):
        single = check_identities(spec, (x[k], y[k]))
        for name in CHECK_NAMES:
            res, one = batch[name], single[name]
            if one.skipped is None:
                assert res.valid[k], name
                assert res.raw[k] == one.raw and res.normalized[k] == one.normalized, name
            else:
                assert one.skipped == geometry2d.SKIP_LOG_DOMAIN
                assert not res.valid[k], name
                assert np.isnan(res.raw[k]) and np.isnan(res.normalized[k]), name


def test_nonminimal_failures_and_universal_identities():
    checks = check_identities(nonminimal_x2(), (0.5, 0.5))
    # the sigma-model equation needs H = 0
    assert checks["P5"].normalized > 1e-3
    assert checks["P2a"].normalized > 1e-3
    assert checks["PHI-H"].normalized > 1e-3
    # purely algebraic identities hold for any graph
    for name in ("P1", "C1", "C2a", "C2b", "XW"):
        assert checks[name].normalized < 1e-12, name


def test_p3c_engine_scalar_relation():
    # R(engine on g) = sqrt(rho) * tr_h(r) - 2 lap_g psi0 to 1e-9
    fr = frame_at_points(scherk(), 50, seed=31)
    _, _, _, r, _ = fr.curvature_quantities()
    _, R = fr.conformal_curvature()
    r_scalar = np.einsum("pmn,pmn->p", fr.matrix_values(fr.h_inv), r)
    lap = laplace_beltrami(fr.g, fr.psi0)
    assert np.abs(R - np.sqrt(fr.rho.value) * r_scalar + 2.0 * lap).max() < 1e-9


def test_convention_factor_calibration():
    """Pins the engine's curvature convention to the suite's: the tilted plane satisfies
    condition (2) trivially, and on Scherk the factor implied by requiring
    it to vanish is unity."""
    tilted = plane(1.0, 0.0, 0.0)  # phi = x
    res = check_identities(tilted, (0.2, 0.2))["P3a"]
    assert res.normalized < 1e-12

    fr = frame_at_points(scherk(), 25, seed=37)
    _, R = fr.conformal_curvature()
    dg = np.stack([fr.matrix_values([[jets.deriv(fr.g[m][n], e) for n in range(2)] for m in range(2)])
                   for e in range(2)], axis=1)
    dginv = np.stack([fr.matrix_values([[jets.deriv(fr.g_inv[m][n], e) for n in range(2)] for m in range(2)])
                      for e in range(2)], axis=1)
    trterm = np.einsum("pab,paij,pbji->p", fr.matrix_values(fr.g_inv), dginv, dg)
    implied = (-0.25 * trterm) / R
    np.testing.assert_allclose(implied, 1.0, rtol=1e-9)


def test_homogeneity_of_constant_scalings():
    """Scaling a0, b1, b2 by t scales P4c linearly and MU quadratically,
    measured on the non-minimal control where those residuals are nonzero;
    P4b (a1, a2 only) is unchanged.  P4a turns out to hold for arbitrary
    graphs (it is a0 times the trace of the conformal relation), so its
    residual stays at round-off level under any scaling."""
    fr = frame_at_points(nonminimal_x2(), 5, seed=41)
    base = CheckConstants(0.7, 1.1, -0.4, 0.9, 0.6)
    t = 3.0
    scaled = CheckConstants(t * base.a0, base.a1, base.a2, t * base.b1, t * base.b2)
    c0 = run_identity_checks(fr, base)
    c1 = run_identity_checks(fr, scaled)
    assert c0["P4c"].raw.min() > 1e-3 and c0["MU"].raw.min() > 1e-3
    np.testing.assert_allclose(c1["P4c"].raw, t * c0["P4c"].raw, rtol=1e-9)
    np.testing.assert_allclose(c1["MU"].raw, t * t * c0["MU"].raw, rtol=1e-9)
    np.testing.assert_allclose(c1["P4b"].raw, c0["P4b"].raw, rtol=1e-12)
    assert c0["P4a"].normalized.max() < 1e-12
    assert c1["P4a"].normalized.max() < 1e-12
