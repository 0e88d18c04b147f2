import numpy as np
import pytest

from minsurf import assembly, cli, curvature, geometry2d, surfaces
from minsurf.curvature import (MetricJet, SingularMetric, christoffel, flat_metric,
                               polar_metric, ricci, ricci_fd, sphere_metric)


def assembled_field(spec, cfg):
    def field(x, y):
        fr = geometry2d.SurfaceFrame(spec, np.atleast_1d(x), np.atleast_1d(y))
        return assembly.assemble_arrays(fr, cfg)[0][0]
    return field


def test_flat_metric_zero_curvature():
    rep = ricci(flat_metric((0.0, 0.0), signs=(1, 1, -1, 1)))
    assert np.abs(rep.christoffel).max() == 0.0
    assert np.abs(rep.ricci).max() == 0.0
    assert rep.scalar == 0.0


def test_polar_metric_textbook_christoffel():
    x = 1.7
    gam = christoffel(polar_metric((x, 0.3)))
    expected = np.zeros((2, 2, 2))
    expected[0, 1, 1] = -x        # Gamma^1_{22} = -x
    expected[1, 0, 1] = expected[1, 1, 0] = 1.0 / x  # Gamma^2_{12} = 1/x
    np.testing.assert_allclose(gam, expected, atol=1e-15)
    rep = ricci(polar_metric((x, 0.3)))
    assert np.abs(rep.ricci).max() < 1e-12


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_sphere_ricci_and_scalar(a):
    m = sphere_metric((1.0, 0.4), a=a)
    rep = ricci(m)
    # textbook: Ricci = metric / a^2, scalar = 2 / a^2
    np.testing.assert_allclose(rep.ricci, m.components / a ** 2, rtol=1e-12, atol=1e-14)
    assert rep.scalar == pytest.approx(2.0 / a ** 2, rel=1e-12)


def test_christoffel_symmetry_on_assembled_metrics():
    spec = surfaces.scherk()
    cfg = assembly.AssemblyConfig(2, (1, -1), 0.3, 1.0, 0.25)
    rng = np.random.default_rng(5)
    for _ in range(5):
        p = rng.uniform(-1.2, 1.2, size=2)
        gam = christoffel(assembly.assemble(spec, cfg, p))
        np.testing.assert_allclose(gam, np.swapaxes(gam, 1, 2), atol=1e-14)


def test_ricci_report_symmetry_and_normalization():
    spec = surfaces.catenoid()
    cfg = assembly.AssemblyConfig(3, (1, 1, -1), 0.3, 1.0, 0.5)
    rep = ricci(assembly.assemble(spec, cfg, (1.6, 0.2)))
    np.testing.assert_allclose(rep.ricci, rep.ricci.T, atol=1e-12)
    assert rep.normalized_ricci <= rep.max_abs_ricci


def test_ricci_fd_richardson_on_sphere():
    m = sphere_metric((1.1, 0.2), a=1.3)
    exact = ricci(m).ricci

    def field(x, y):
        return sphere_metric((x, y), a=1.3).components

    e1 = np.abs(ricci_fd(field, (1.1, 0.2), 1e-3) - exact).max()
    e2 = np.abs(ricci_fd(field, (1.1, 0.2), 5e-4) - exact).max()
    assert 3.5 <= e1 / e2 <= 4.5


def test_ricci_fd_flat_below_step_squared():
    step = 1e-3
    fd = ricci_fd(lambda x, y: np.eye(4), (0.0, 0.0), step)
    assert np.abs(fd).max() < step ** 2


def test_ricci_fd_scherk_instanton():
    spec = surfaces.scherk()
    cfg = assembly.AssemblyConfig(1, (1,), 0.0, 0.0, 0.0)
    fd = ricci_fd(assembled_field(spec, cfg), (0.3, 0.2), 1e-3)
    assert np.abs(fd).max() < 1e-4  # exact flatness + O(step^2) truncation budget


def test_contracted_bianchi_diagnostic():
    """div(R_ab - R/2 g_ab) ~ 0, one more FD layer on a curved assembled
    metric (the non-minimal control has nonzero Ricci).  Loose bound."""
    spec = surfaces.nonminimal_x2()
    cfg = assembly.AssemblyConfig(1, (1,), 0.0, 0.0, 0.0)
    field = assembled_field(spec, cfg)
    p = (0.4, 0.3)

    def einstein(x, y):
        m = assembly.assemble(spec, cfg, (x, y))
        rep = ricci(m)
        return rep.ricci - 0.5 * rep.scalar * m.components

    m0 = assembly.assemble(spec, cfg, p)
    gi = np.linalg.inv(m0.components)
    gam = christoffel(m0)
    s = 1e-4
    dT = np.zeros((4, 4, 4))
    dT[0] = (einstein(p[0] + s, p[1]) - einstein(p[0] - s, p[1])) / (2 * s)
    dT[1] = (einstein(p[0], p[1] + s) - einstein(p[0], p[1] - s)) / (2 * s)
    T = einstein(*p)
    cov = dT - np.einsum("dca,db->cab", gam, T) - np.einsum("dcb,ad->cab", gam, T)
    div = np.einsum("ca,cab->b", gi, cov)
    assert np.abs(div).max() < 1e-3


def test_singular_metric_raises():
    bad = MetricJet(2, np.zeros((2, 2)), np.zeros((2, 2, 2)), np.zeros((2, 2, 2, 2)))
    with pytest.raises(SingularMetric):
        ricci(bad)


# ---------------------------------------------------------------------------
# byte identity of the live-index, blocked engine
# ---------------------------------------------------------------------------

def padded_ricci(comp, d1, d2):
    """Reference engine: d g and d^2 g padded out to all dim derivative
    directions, (..., dim, dim, dim, dim) intermediates, one pass over the
    whole batch.  ricci_arrays must reproduce it bit for bit."""
    dim = comp.shape[-1]
    gi = np.linalg.inv(comp)
    dfull = np.zeros(comp.shape[:-2] + (dim, dim, dim))
    dfull[..., :2, :, :] = d1
    d2full = np.zeros(comp.shape[:-2] + (dim, dim, dim, dim))
    d2full[..., :2, :2, :, :] = d2
    S = (np.einsum("...bdc->...dbc", dfull) + np.einsum("...cdb->...dbc", dfull) - dfull)
    gamma = 0.5 * np.einsum("...ad,...dbc->...abc", gi, S)
    dgi = -np.einsum("...ab,...ebc,...cd->...ead", gi, dfull, gi)
    dS = (np.einsum("...ebdc->...edbc", d2full) + np.einsum("...ecdb->...edbc", d2full) - d2full)
    dgamma = 0.5 * (np.einsum("...ead,...dbc->...eabc", dgi, S)
                    + np.einsum("...ad,...edbc->...eabc", gi, dS))
    ric = (np.einsum("...iidb->...bd", dgamma)
           - np.einsum("...diib->...bd", dgamma)
           + np.einsum("...iie,...edb->...bd", gamma, gamma)
           - np.einsum("...ide,...eib->...bd", gamma, gamma))
    scalar = np.einsum("...bd,...bd->...", gi, ric)
    denom = (1.0 + np.abs(d2).max(axis=(-4, -3, -2, -1))
             + np.abs(gamma).max(axis=(-3, -2, -1)) ** 2)
    return gamma, ric, scalar, denom


def assert_bits_equal(got, want):
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def sampled_frame(name, cfg, samples, seed=7):
    spec = surfaces.get(name)
    x, y, _, _ = cli.draw_points(spec, cfg, samples, seed)
    return geometry2d.SurfaceFrame(spec, x, y)


MIXED_CONFIGS = [
    ("scherk", assembly.AssemblyConfig(1, (-1,), 0.0, 0.0, 0.0)),
    ("catenoid", assembly.AssemblyConfig(2, (1, -1), 0.3, 1.0, 0.25)),
    ("bi_wave", assembly.AssemblyConfig(2, (-1, 1), 0.0, 0.5, 0.0)),
    ("scherk", assembly.AssemblyConfig(3, (1, -1, 1), 0.3, 1.0, 0.5)),
    ("nonminimal_x2", assembly.AssemblyConfig(3, (-1, -1, 1), 0.1, 0.0, 1.0)),
]


@pytest.mark.parametrize("name,cfg", MIXED_CONFIGS)
def test_ricci_arrays_bits_match_padded_reference(name, cfg):
    fr = sampled_frame(name, cfg, 40)
    comp, d1, d2 = assembly.assemble_arrays(fr, cfg)
    want = padded_ricci(comp, d1, d2)
    assert_bits_equal(curvature.ricci_arrays(comp, d1, d2), want)
    assert_bits_equal([curvature.christoffel_arrays(comp, d1)], want[:1])
    assert_bits_equal(curvature.ricci_arrays(comp[3], d1[3], d2[3]),
                      padded_ricci(comp[3], d1[3], d2[3]))
    # the dim-2 conformal call of the identity suite
    g = geometry2d.matrix_jets_to_arrays(fr.g)
    assert_bits_equal(curvature.ricci_arrays(*g), padded_ricci(*g))


def test_blocked_ricci_equals_one_block(monkeypatch):
    cfg = assembly.AssemblyConfig(2, (1, -1), 0.3, 1.0, 0.25)
    fr = sampled_frame("scherk", cfg, 700)
    # the dim-6 assembled metric and the identity suite's dim-2 conformal
    # metric, tiled past their block sizes (the points need not differ)
    for arrays in (assembly.assemble_arrays(fr, cfg), geometry2d.matrix_jets_to_arrays(fr.g)):
        block = curvature.block_points(arrays[0].shape[-1])
        comp, d1, d2 = (np.resize(a, (2 * block + 5,) + a.shape[1:]) for a in arrays)
        for P in (1, block, block + 1, 2 * block + 5):
            blocked = curvature.ricci_arrays(comp[:P], d1[:P], d2[:P])
            with monkeypatch.context() as m:
                m.setattr(curvature, "block_points", lambda dim: P)
                assert_bits_equal(blocked, curvature.ricci_arrays(comp[:P], d1[:P], d2[:P]))


def test_block_points_keep_dim8_temporaries():
    assert curvature.block_points(8) == curvature.RICCI_BLOCK
    for dim in (2, 4, 6, 14):
        size = curvature.block_points(dim) * dim ** 3
        assert curvature.RICCI_BLOCK * 8 ** 3 - dim ** 3 < size <= curvature.RICCI_BLOCK * 8 ** 3


def test_batched_ricci_fd_equals_pointwise_loop():
    spec = surfaces.scherk()
    cfg = assembly.AssemblyConfig(3, (1, -1, 1), 0.3, 1.0, 0.5)
    x, y, _, _ = cli.draw_points(spec, cfg, 10, seed=11)
    field = cli._metric_field(spec, cfg)
    calls = []

    def counted(px, py):
        calls.append(np.shape(px))
        return field(px, py)

    batched = ricci_fd(counted, (x, y), cli.ORACLE_STEP)
    assert calls == [(10,)] * 9  # one evaluation per stencil offset
    loop = [ricci_fd(field, (x[k], y[k]), cli.ORACLE_STEP) for k in range(x.size)]
    assert_bits_equal([batched], [np.array(loop)])
    grid = ricci_fd(field, (x.reshape(2, 5), y.reshape(2, 5)), cli.ORACLE_STEP)
    assert_bits_equal([grid], [batched.reshape(2, 5, cfg.dim, cfg.dim)])
