import math

import numpy as np
import pytest
from conftest import interior_batch

from minsurf import assembly, curvature, geometry2d, jets, surfaces
from minsurf.geometry2d import (CHECK_NAMES, CheckConstants, SurfaceFrame, frame_at,
                                matrix_jets_to_arrays, run_identity_checks)
from minsurf.jets import DomainError, Jet3
from minsurf.surfaces import SurfaceSpec, bi_wave, nonminimal_x2, plane, scherk

MINIMAL = [s for s in surfaces.catalog() if not s.non_minimal]


def frame_at_points(spec, count, seed):
    return SurfaceFrame(spec.ambient, spec.phi_jet(*interior_batch(spec, count, seed, shrink=0.0)))


def laplace_beltrami(metric, f):
    """Laplace-Beltrami of f w.r.t. a 2x2 jet metric (value array), given as
    a jet with leading (2, 2) batch axes or as nested rows of jets."""
    if not isinstance(metric, Jet3):
        metric = Jet3(np.stack([np.stack([m.c for m in row], axis=1) for row in metric], axis=1))
    return geometry2d._laplace_terms(*geometry2d._inverse(metric), [f])[0][0]


# -------------------------------------------------------------------------
# one-point frames
# -------------------------------------------------------------------------

def test_sample_flat_plane():
    fr = frame_at(plane(0.0, 0.0, 0.0), (0.2, -0.4))
    assert np.array_equal(fr.h_values[0], np.eye(2)) and np.array_equal(fr.g_arrays[0][0], np.eye(2))
    assert fr.rho.value[0] == 1.0 and fr.K[0] == 0.0 and fr.H[0] == 0.0 and fr.lambda0[0] == 0.0
    assert fr.w[0].value[0] == 1.0 and fr.w[1].value[0] == 1.0 and fr.psi0.value[0] == 0.0
    assert np.abs(fr.r[0]).max() == 0.0


def test_sample_scherk_closed_form():
    fr = frame_at(scherk(), (0.3, 0.2))
    rho = fr.rho.value[0]
    tx, ty = math.tan(0.3), math.tan(0.2)
    assert rho == pytest.approx(1.0 + tx ** 2 + ty ** 2, rel=1e-14)
    assert rho == pytest.approx(1.13678, abs=5e-6)
    assert fr.w[0].value[0] == pytest.approx(1.0 / math.cos(0.3) ** 2, rel=1e-14)
    assert fr.w[1].value[0] == pytest.approx(1.0 / math.cos(0.2) ** 2, rel=1e-14)
    # phi_x = tan x, phi_y = -tan y enter h off-diagonally
    assert fr.h_values[0, 0, 1] == pytest.approx(-tx * ty, rel=1e-14)
    assert fr.psi0.value[0] == pytest.approx(-0.25 * math.log(rho), rel=1e-14)


def test_sample_bi_wave_null_gradient():
    # F(u) = 2u: phi_x = phi_y = 2, Lorentzian rho = 1 + (4 - 4) = 1, g = h
    fr = frame_at(bi_wave(profile="linear", slope=2.0), (0.7, 0.5))
    assert fr.rho.value[0] == 1.0
    np.testing.assert_array_equal(fr.g_arrays[0][0], fr.h_values[0])
    assert fr.K[0] == 0.0


@pytest.mark.parametrize("spec", MINIMAL, ids=lambda s: s.name)
def test_sample_determinant_invariants(spec):
    fr = frame_at(spec, interior_batch(spec, 20, seed=11))
    h, g = fr.h_values, fr.g_arrays[0]
    g_inv = matrix_jets_to_arrays(fr.g_inv)[0]
    det0 = spec.ambient.det
    assert np.linalg.det(h) == pytest.approx(det0 * fr.rho.value, rel=1e-12)
    assert np.linalg.det(g) == pytest.approx(np.full(20, det0), rel=1e-12)
    assert np.abs(h @ fr.h_inv_values - np.eye(2)).max() < 1e-12
    assert np.abs(g @ g_inv - np.eye(2)).max() < 1e-12


def test_sample_rho_nonpositive_raises():
    def phi(x, y):
        return 2.0 * Jet3.variable("y", y) + 0.0 * Jet3.variable("x", x)

    steep = SurfaceSpec("steep", phi, surfaces.LORENTZIAN, (-1, 1, -1, 1))
    with pytest.raises(DomainError):
        frame_at(steep, (0.0, 0.0))  # rho = 1 - 4 < 0


def test_inverse_of_a_singular_jet_matrix_raises():
    f = Jet3.variable("x", np.array([0.5, 2.0]))
    with pytest.raises(DomainError):
        geometry2d._inverse(Jet3(np.stack([np.stack([f.c, f.c], axis=1)] * 2, axis=1)))  # det = f f - f f = 0


# -------------------------------------------------------------------------
# curvature quantities
# -------------------------------------------------------------------------

def test_gaussian_K_plane_zero():
    assert frame_at(plane(), (0.4, 0.4)).K[0] == 0.0


def test_gaussian_K_scherk_closed_form():
    x, y = 0.3, 0.2
    rho = 1.0 + math.tan(x) ** 2 + math.tan(y) ** 2
    expected = -2.0 / (math.cos(x) ** 2 * math.cos(y) ** 2) / rho ** 2
    K = frame_at(scherk(), (x, y)).K[0]
    assert K == pytest.approx(expected, rel=1e-13)
    assert K == pytest.approx(-1.7655, abs=1e-4)


def test_gaussian_K_wave_zero_any_profile():
    for profile in ("sinh", "linear"):
        spec = bi_wave(profile=profile)
        assert np.abs(frame_at(spec, interior_batch(spec, 10, seed=3)).K).max() < 1e-14


def test_ricci_two_plane_zero():
    assert np.abs(frame_at(plane(), (0.1, -0.9)).r[0]).max() == 0.0


def test_ricci_two_scherk_proportionality_oracle():
    # 2D identity r = (K/2) h, with K and h checked against closed forms above
    fr = frame_at(scherk(), (0.3, 0.2))
    np.testing.assert_allclose(fr.r[0], 0.5 * fr.K[0] * fr.h_values[0], rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("spec", MINIMAL, ids=lambda s: s.name)
def test_ricci_two_symmetric(spec):
    for r in frame_at(spec, interior_batch(spec, 10, seed=7)).r:
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
    fr = SurfaceFrame(scherk().ambient, scherk().phi_jet(np.array([x]), np.array([y])))
    jet_val = laplace_beltrami(fr.g, fr.psi0)[0]
    assert jet_val == pytest.approx(fd, abs=1e-6)


# -------------------------------------------------------------------------
# identity suite
# -------------------------------------------------------------------------

def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _sheared_scherk():
    """Scherk's surface sheared, phi = log cos y - log cos(x - y/2), over
    g0 = [[1, -1/2], [-1/2, 5/4]] (k0 != 0), with (u, y) = (x - y/2, y)
    sampled in [-1.4, 1.4]^2."""
    def phi(x, y):
        X, Y = Jet3.variable("x", x), Jet3.variable("y", y)
        return jets.log(jets.cos(Y)) - jets.log(jets.cos(X - 0.5 * Y))

    def points(rng, count):
        u, y = rng.uniform(-1.4, 1.4, (2, count))
        return u + 0.5 * y, y

    return SurfaceSpec("sheared_scherk", phi, surfaces.AmbientMetric(1.0, 1.25, -0.5, 1),
                       (-2.1, 2.1, -1.4, 1.4)), points


def _max_scherk():
    """The maximal Scherk graph phi = log cosh y - log cosh x in Minkowski
    space (eps = -1), sampled in [-0.6, 0.6]^2 where rho > 0."""
    def cosh(t):
        return 0.5 * (jets.exp(t) + jets.exp(-t))

    def phi(x, y):
        return jets.log(cosh(Jet3.variable("y", y))) - jets.log(cosh(Jet3.variable("x", x)))

    def points(rng, count):
        return tuple(rng.uniform(-0.6, 0.6, (2, count)))

    return SurfaceSpec("max_scherk", phi, surfaces.AmbientMetric(1.0, 1.0, 0.0, -1),
                       (-0.6, 0.6, -0.6, 0.6)), points


@pytest.mark.parametrize("make", [_sheared_scherk, _max_scherk], ids=lambda m: m.__name__[1:])
def test_rho_is_one_formula(make):
    """The sampler's screen and the frame compute rho with the same formula:
    AmbientMetric.rho of the gradient's values is the frame's rho jet value,
    bit for bit, on an ambient with k0 != 0 and on one with eps = -1."""
    spec, points = make()
    x, y = points(np.random.default_rng(8), 20000)
    f = spec.phi_jet(x, y)
    screened = spec.ambient.rho(f.partial(1, 0), f.partial(0, 1))
    assert np.all(screened > 0.0)
    assert same_bits(SurfaceFrame(spec.ambient, f).rho.value, screened)


@pytest.mark.parametrize("spec", surfaces.catalog(), ids=lambda s: s.name)
def test_point_readers_equal_batched_frame(spec):
    """A one-point frame_at frame at point k holds the batched frame's arrays
    at index k, bit for bit, and so does the Ricci tensor of its assembled
    metric."""
    cfg = assembly.AssemblyConfig(3, (1, -1, 1), 0.3, 0.5, 0.25)
    x, y = interior_batch(spec, 6, seed=43, shrink=0.0)
    fr = frame_at(spec, (x, y))
    ric, scalar, denom = curvature.ricci_arrays(*assembly.assemble_arrays(fr, cfg))
    g_inv = matrix_jets_to_arrays(fr.g_inv)[0]
    for k in range(x.size):
        one = frame_at(spec, (x[k], y[k]))
        one_ric, one_scalar, one_denom = curvature.ricci_arrays(*assembly.assemble_arrays(one, cfg))
        for got, want in ((one.h_values, fr.h_values[k]), (one.h_inv_values, fr.h_inv_values[k]),
                          (one.g_arrays[0], fr.g_arrays[0][k]),
                          (matrix_jets_to_arrays(one.g_inv)[0], g_inv[k]),
                          (one.r, fr.r[k]), (one.K, fr.K[k]), (one.H, fr.H[k]),
                          (one.lambda0, fr.lambda0[k]), (one.rho.value, fr.rho.value[k]),
                          (one_ric.dense(), ric.dense()[k]), (one_scalar, scalar[k]), (one_denom, denom[k])):
            assert same_bits(got[0], want), (spec.name, k)


def test_plane_identities_all_vanish():
    for name, res in run_identity_checks(frame_at(plane(), (0.6, -0.3)), CheckConstants()).items():
        assert res.valid[0], name
        assert res.normalized[0] < 1e-12, name


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
    checks = run_identity_checks(frame_at(bi_wave(), (0.7, 0.5)), CheckConstants())
    assert not checks["P4b"].valid[0] and np.isnan(checks["P4b"].normalized[0])
    assert checks["CC1"].valid[0] and checks["CC1"].normalized[0] < 1e-9
    assert checks["P4c"].normalized[0] < 1e-9
    assert checks["MU"].normalized[0] < 1e-9


def test_mixed_log_domain_mask_matches_single_points():
    """phi = x*y over the Lorentzian ambient: rho > 0 at every point, but
    w2 = x^2 - 1 changes sign inside the batch, so the w-masked checks are
    valid at some points only.  Each point's batched residuals equal the
    single-point ones exactly, skips included."""
    spec = SurfaceSpec("xy", lambda x, y: Jet3.variable("x", x) * Jet3.variable("y", y),
                       surfaces.LORENTZIAN, (0.0, 2.0, 0.0, 2.0))
    x = np.array([0.8, 1.2, 0.9, 1.1, 0.5])
    y = np.array([1.0, 1.0, 0.7, 0.8, 0.3])
    fr = SurfaceFrame(spec.ambient, spec.phi_jet(x, y))
    assert np.all(fr.rho.value > 0.0)
    w_ok = (fr.w[0].value > 0.0) & (fr.w[1].value > 0.0)
    assert w_ok.tolist() == [False, True, False, True, False]
    batch = run_identity_checks(fr, CheckConstants())
    assert batch["P4c"].valid.tolist() == w_ok.tolist()
    for k in range(x.size):
        single = run_identity_checks(frame_at(spec, (x[k], y[k])), CheckConstants())
        for name in CHECK_NAMES:
            res, one = batch[name], single[name]
            if one.valid[0]:
                assert res.valid[k], name
                assert res.raw[k] == one.raw[0] and res.normalized[k] == one.normalized[0], name
            else:
                assert np.isnan(one.raw[0]) and np.isnan(one.normalized[0]), name
                assert not res.valid[k], name
                assert np.isnan(res.raw[k]) and np.isnan(res.normalized[k]), name


def test_nonminimal_failures_and_universal_identities():
    checks = run_identity_checks(frame_at(nonminimal_x2(), (0.5, 0.5)), CheckConstants())
    # the sigma-model equation needs H = 0
    assert checks["P5"].normalized[0] > 1e-3
    assert checks["P2a"].normalized[0] > 1e-3
    assert checks["PHI-H"].normalized[0] > 1e-3
    # purely algebraic identities hold for any graph
    for name in ("P1", "C1", "C2a", "C2b", "XW"):
        assert checks[name].normalized[0] < 1e-12, name


def test_p3c_engine_scalar_relation():
    # R(engine on g) = sqrt(rho) * tr_h(r) - 2 lap_g psi0 to 1e-9
    fr = frame_at_points(scherk(), 50, seed=31)
    _, R = curvature.ricci_arrays(*fr.g_arrays)[:2]
    r_scalar = np.einsum("pmn,pmn->p", fr.h_inv_values, fr.r)
    lap = laplace_beltrami(fr.g, fr.psi0)
    assert np.abs(R - np.sqrt(fr.rho.value) * r_scalar + 2.0 * lap).max() < 1e-9


def test_convention_factor_calibration():
    """Pins the engine's curvature convention to the suite's: the tilted plane satisfies
    condition (2) trivially, and on Scherk the factor implied by requiring
    it to vanish is unity."""
    tilted = plane(1.0, 0.0, 0.0)  # phi = x
    res = run_identity_checks(frame_at(tilted, (0.2, 0.2)), CheckConstants())["P3a"]
    assert res.normalized[0] < 1e-12

    fr = frame_at_points(scherk(), 25, seed=37)
    _, R = curvature.ricci_arrays(*fr.g_arrays)[:2]
    # deriv of the order-2 g is an order-1 jet; only its values are read
    dg, dginv = (np.moveaxis(np.stack([jets.deriv(m, e).value for e in range(2)]), (0, 1, 2), (-3, -2, -1))
                 for m in (fr.g, fr.g_inv))
    trterm = np.einsum("pab,paij,pbji->p", matrix_jets_to_arrays(fr.g_inv)[0], dginv, dg)
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
