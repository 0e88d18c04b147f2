import itertools
import math
import tracemalloc

import numpy as np
import pytest
from conftest import interior_batch

from minsurf import curvature, surfaces
from minsurf.assembly import (AssemblyConfig, assemble_arrays, conformal_factor_jet,
                              log_domain_ok, signature_values)
from minsurf.cli import draw_points
from minsurf.geometry2d import SurfaceFrame, frame_at
from minsurf.jets import DomainError, Jet3
from minsurf.surfaces import SurfaceSpec, bi_wave, plane, scherk

def test_config_constraints_and_dimension():
    cfg = AssemblyConfig(3, (1, -1, 1), 0.3, 0.7, 0.4)
    assert cfg.m1 + cfg.m2 == 0.0
    assert cfg.n1 + cfg.n2 == pytest.approx((cfg.n - 1) / 2.0)
    assert cfg.dim == 2 + 2 * cfg.n == 8
    # dimension count 2N = 4 + 4 (n1 + n2)
    assert cfg.dim == pytest.approx(4 + 4 * (cfg.n1 + cfg.n2))


def test_config_validation_errors():
    with pytest.raises(ValueError):
        AssemblyConfig(0, ())
    with pytest.raises(ValueError):
        AssemblyConfig(2, (1,))
    with pytest.raises(ValueError):
        AssemblyConfig(1, (2,))


def test_conformal_factor_instanton_is_one():
    cfg = AssemblyConfig(1, (1,), 0.0, 0.0, 0.0)
    for spec in (scherk(), plane(), bi_wave()):
        fr = frame_at(spec, interior_batch(spec, 10, seed=2))
        assert np.all(conformal_factor_jet(fr, cfg).value == 1.0)


def test_conformal_factor_plane_n3_closed_form():
    cfg = AssemblyConfig(3, (1, 1, 1), 0.0, 0.0, 1.0)  # n2 = 0
    spec = plane()  # constant gradient (0.5, -0.25)
    fr = frame_at(spec, (0.1, 0.9))
    expected = fr.rho.value[0] ** 1.0 * fr.w[0].value[0] ** -2.0 * fr.w[1].value[0] ** 0.0
    assert conformal_factor_jet(fr, cfg).value[0] == pytest.approx(expected, rel=1e-14)


def test_conformal_factor_scherk_n2_closed_form():
    cfg = AssemblyConfig(2, (1, 1), 0.0, 0.0, 0.5)  # n2 = 0
    fr = frame_at(scherk(), (0.3, 0.2))
    e2 = conformal_factor_jet(fr, cfg).value[0]
    expected = math.sqrt(fr.rho.value[0]) / (1.0 / math.cos(0.3) ** 2)
    assert e2 == pytest.approx(expected, rel=1e-13)
    assert e2 == pytest.approx(math.sqrt(1.13678) / (1 / math.cos(0.3) ** 2), abs=1e-5)


def test_conformal_factor_domain_error_on_negative_base():
    # phi = x y over the Lorentzian ambient at (0.8, 1): w1 = 1 + y^2 = 2,
    # w2 = x^2 - 1 = -0.36 < 0 and rho = 1 + y^2 - x^2 = 1.36
    spec = SurfaceSpec("xy", lambda x, y: Jet3.variable("x", x) * Jet3.variable("y", y),
                       surfaces.LORENTZIAN, (0.0, 2.0, 0.0, 2.0))
    bad = frame_at(spec, (0.8, 1.0))
    w1, w2, rho = bad.w[0].value[0], bad.w[1].value[0], bad.rho.value[0]
    assert w2 < 0.0 < rho
    cfg = AssemblyConfig(2, (1, 1), 0.0, 0.0, 0.25)  # fractional w2 exponent
    with pytest.raises(DomainError):
        conformal_factor_jet(bad, cfg)
    # integer exponents accept negative bases
    cfg_int = AssemblyConfig(3, (1, 1, 1), 0.0, 0.0, 0.5)  # exponents -1, -1, 1
    assert conformal_factor_jet(bad, cfg_int).value[0] == pytest.approx(rho / (w1 * w2), rel=1e-14)


def test_log_domain_mask():
    cfg = AssemblyConfig(2, (1, 1), 0.0, 0.0, 0.25)
    ok = log_domain_ok(np.array([1.0, 1.0]), np.array([1.0, -1.0]), np.array([1.0, 1.0]), cfg)
    np.testing.assert_array_equal(ok, [True, False])
    cfg_int = AssemblyConfig(1, (1,), 0.0, 1.0, 0.0)
    assert log_domain_ok(np.array([1.0]), np.array([-2.0]), np.array([3.0]), cfg_int).all()


def test_assemble_plane_has_constant_metric():
    # w1, w2, rho and g are constant on a plane; with e0 = 0 the whole
    # assembled metric is constant (e0 != 0 makes e^{2 e0 phi} vary)
    fr = frame_at(plane(), (0.3, -0.2))
    comp, d1, d2 = assemble_arrays(fr, AssemblyConfig(2, (1, -1), 0.0, 1.0, 0.5))
    assert np.abs(d1.dense()).max() == 0.0
    assert np.abs(d2.dense()).max() == 0.0
    assert comp.shape == (1, 6, 6)
    varying = assemble_arrays(fr, AssemblyConfig(2, (1, -1), 0.3, 1.0, 0.5))
    assert np.abs(varying[1].dense()).max() > 0.0


def test_assemble_scherk_instanton_blocks():
    fr = frame_at(scherk(), (0.3, 0.2))
    comp = assemble_arrays(fr, AssemblyConfig(1, (1,), 0.0, 0.0, 0.0))[0]
    g = fr.g_arrays[0][0]
    expected = np.zeros((4, 4))
    expected[:2, :2] = g
    expected[2:, 2:] = g
    np.testing.assert_allclose(comp.dense()[0], expected, rtol=1e-14, atol=1e-16)


def test_assemble_arrays_memory_stays_below_one_dense_d2():
    # the block form fills no dim x dim array: assembling 4096 dim-8 points
    # peaks below the bytes of one dense (P, 2, 2, dim, dim) d^2 g, 8 MiB
    cfg = AssemblyConfig(3, (1, -1, 1), 0.3, 1.0, 0.5)
    spec = scherk()
    fr = SurfaceFrame(spec.ambient, draw_points(spec, cfg, 4096, seed=7)[4])
    tracemalloc.start()
    try:
        assemble_arrays(fr, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096 * 2 * 2 * cfg.dim ** 2 * 8


def test_assemble_arrays_takes_any_batch_shape():
    cfg = AssemblyConfig(3, (1, -1, 1), 0.3, 0.5, 0.25)
    spec = scherk()
    x, y = interior_batch(spec, 10, seed=4)
    flat = assemble_arrays(frame_at(spec, (x, y)), cfg)
    grid = assemble_arrays(frame_at(spec, (x.reshape(2, 5), y.reshape(2, 5))), cfg)
    for got, want in zip(grid, flat):
        got, want = got.dense(), want.dense().reshape((2, 5) + want.shape[1:])
        assert got.shape == want.shape
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_assemble_derivatives_match_finite_differences():
    """d1/d2 vs central differences of the components at steps 1e-3 and
    1e-4: the finer step matches to 1e-5 relative, and the error shrinks
    with the step (Richardson direction)."""
    spec = scherk()
    cfg = AssemblyConfig(2, (1, -1), 0.3, 1.0, 0.25)
    p = (0.3, 0.2)
    _, m_d1, m_d2 = (a.dense()[0] for a in assemble_arrays(frame_at(spec, p), cfg))

    def comp(x, y):
        return assemble_arrays(frame_at(spec, (x, y)), cfg)[0].dense()[0]

    for axis in (0, 1):
        errs = {}
        for s in (1e-3, 1e-4):
            dp = (s, 0.0) if axis == 0 else (0.0, s)
            fd = (comp(p[0] + dp[0], p[1] + dp[1]) - comp(p[0] - dp[0], p[1] - dp[1])) / (2 * s)
            errs[s] = np.abs(fd - m_d1[axis]).max()
        scale = max(1.0, np.abs(m_d1[axis]).max())
        assert errs[1e-4] <= 1e-5 * scale
        assert errs[1e-3] > errs[1e-4]

    for (a, b) in ((0, 0), (1, 1), (0, 1)):
        errs = {}
        for s in (1e-3, 1e-4):
            if a == b:
                dp = (s, 0.0) if a == 0 else (0.0, s)
                fd = (comp(p[0] + dp[0], p[1] + dp[1]) - 2 * comp(*p)
                      + comp(p[0] - dp[0], p[1] - dp[1])) / s ** 2
            else:
                fd = (comp(p[0] + s, p[1] + s) - comp(p[0] + s, p[1] - s)
                      - comp(p[0] - s, p[1] + s) + comp(p[0] - s, p[1] - s)) / (4 * s ** 2)
            errs[s] = np.abs(fd - m_d2[a, b]).max()
        scale = max(1.0, np.abs(m_d2[a, b]).max())
        assert errs[1e-3] <= 1e-5 * scale  # 1e-4 second differences hit round-off
        np.testing.assert_allclose(m_d2[a, b], m_d2[b, a])


def test_determinant_invariant():
    cases = [
        (scherk(), AssemblyConfig(2, (1, -1), 0.3, 1.0, 0.25), (0.3, 0.2)),
        (surfaces.helicoid(), AssemblyConfig(2, (1, 1), 0.3, 0.0, 0.5), (0.7, 0.4)),
        (surfaces.catenoid(), AssemblyConfig(1, (-1,), 0.3, 1.0, 0.0), (1.5, 0.3)),
        (bi_wave(), AssemblyConfig(3, (1, -1, 1), 0.0, 0.0, 0.25), (0.7, 0.5)),
    ]
    for spec, cfg, p in cases:
        fr = frame_at(spec, p)
        comp = assemble_arrays(fr, cfg)[0].dense()[0]
        e2 = conformal_factor_jet(fr, cfg).value[0]
        predicted = e2 ** 2 * abs(spec.ambient.det) ** (1 + cfg.n)
        assert abs(np.linalg.det(comp)) == pytest.approx(predicted, rel=1e-10)


def test_assembled_metrics_ricci_flat_spot_checks():
    cases = [
        (scherk(), AssemblyConfig(1, (-1,), 0.3, 1.0, 0.0), (0.3, 0.2)),
        (surfaces.helicoid(), AssemblyConfig(2, (1, 1), 0.3, 0.0, 0.5), (0.7, 0.4)),
        (bi_wave(), AssemblyConfig(2, (1, -1), 0.3, 1.0, 0.25), (0.7, 0.5)),
        (plane(), AssemblyConfig(3, (1, -1, -1), 0.3, 1.0, 0.25), (0.1, 0.8)),
    ]
    for spec, cfg, p in cases:
        ric, _, denom = curvature.ricci_arrays(*assemble_arrays(frame_at(spec, p), cfg))
        assert np.abs(ric.dense()).max() / denom[0] < 1e-12, spec.name


def signatures(spec, cfg, p):
    return signature_values(assemble_arrays(frame_at(spec, p), cfg)[0]).tolist()


def test_signature_formula_and_constancy():
    assert signatures(scherk(), AssemblyConfig(1, (1,), 0.0, 0.0, 0.0), (0.3, 0.2)) == [4]
    assert signatures(scherk(), AssemblyConfig(1, (-1,), 0.0, 0.0, 0.0), (0.3, 0.2)) == [0]
    assert signatures(bi_wave(), AssemblyConfig(2, (1, -1), 0.0, 0.0, 0.0), (0.7, 0.5)) == [0]
    # constant across admissible sample points for a fixed (spec, cfg);
    # catenoid is Euclidean (surface signature 2): 2 (1 - 1 + 1) = 2
    spec = surfaces.catenoid()
    cfg = AssemblyConfig(2, (-1, 1), 0.3, 1.0, 0.25)
    assert signatures(spec, cfg, interior_batch(spec, 10, seed=9)) == [2] * 10


def test_signature_all_eps_patterns_scherk_n2():
    for eps in itertools.product((1, -1), repeat=2):
        cfg = AssemblyConfig(2, eps, 0.0, 0.0, 0.0)
        expected = 2 * (1 + sum(eps))
        assert signatures(scherk(), cfg, (0.5, -0.4)) == [expected]
