import itertools
import tracemalloc

import numpy as np
import pytest

from minsurf import assembly, cli, curvature, geometry2d, surfaces
from minsurf.curvature import (SingularMetric, christoffel_arrays, flat_metric, polar_metric,
                               ricci_arrays, ricci_fd, sphere_metric)
from minsurf.geometry2d import frame_at


def assembled(spec, cfg, p):
    """Dense (comp, d1, d2) of the assembled metric at the one point p."""
    return tuple(a.dense()[0] for a in assembly.assemble_arrays(frame_at(spec, p), cfg))


def assembled_field(spec, cfg):
    def field(x, y):
        return assembly.assemble_arrays(frame_at(spec, (x, y)), cfg)[0].dense()
    return field


def test_flat_metric_zero_curvature():
    comp, d1, d2 = flat_metric((0.0, 0.0), signs=(1, 1, -1, 1))
    ric, scalar, _ = ricci_arrays(comp, d1, d2)
    assert np.abs(christoffel_arrays(comp, d1)).max() == 0.0
    assert np.abs(ric.dense()).max() == 0.0
    assert scalar == 0.0


def test_polar_metric_textbook_christoffel():
    x = 1.7
    comp, d1, d2 = polar_metric((x, 0.3))
    gam = christoffel_arrays(comp, d1)
    expected = np.zeros((2, 2, 2))
    expected[0, 1, 1] = -x        # Gamma^1_{22} = -x
    expected[1, 0, 1] = expected[1, 1, 0] = 1.0 / x  # Gamma^2_{12} = 1/x
    np.testing.assert_allclose(gam, expected, atol=1e-15)
    assert np.abs(ricci_arrays(comp, d1, d2)[0].dense()).max() < 1e-12


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_sphere_ricci_and_scalar(a):
    comp, d1, d2 = sphere_metric((1.0, 0.4), a=a)
    ric, scalar, _ = ricci_arrays(comp, d1, d2)
    # textbook: Ricci = metric / a^2, scalar = 2 / a^2
    np.testing.assert_allclose(ric.dense(), comp / a ** 2, rtol=1e-12, atol=1e-14)
    assert scalar == pytest.approx(2.0 / a ** 2, rel=1e-12)


def test_christoffel_symmetry_on_assembled_metrics():
    spec = surfaces.scherk()
    cfg = assembly.AssemblyConfig(2, (1, -1), 0.3, 1.0, 0.25)
    rng = np.random.default_rng(5)
    for _ in range(5):
        p = rng.uniform(-1.2, 1.2, size=2)
        comp, d1, _ = assembled(spec, cfg, p)
        gam = christoffel_arrays(comp, d1)
        np.testing.assert_allclose(gam, np.swapaxes(gam, 1, 2), atol=1e-14)


def test_ricci_report_symmetry_and_normalization():
    spec = surfaces.catenoid()
    cfg = assembly.AssemblyConfig(3, (1, 1, -1), 0.3, 1.0, 0.5)
    ric, _, denom = ricci_arrays(*assembled(spec, cfg, (1.6, 0.2)))
    ric = ric.dense()
    np.testing.assert_allclose(ric, ric.T, atol=1e-12)
    max_abs = np.abs(ric).max()
    assert max_abs / denom <= max_abs


def test_ricci_fd_richardson_on_sphere():
    exact = ricci_arrays(*sphere_metric((1.1, 0.2), a=1.3))[0].dense()

    def field(x, y):  # the oracle passes a (3, 3) batch
        return sphere_metric((x, y), a=1.3)[0]

    e1 = np.abs(ricci_fd(field, (1.1, 0.2), 1e-3).dense() - exact).max()
    e2 = np.abs(ricci_fd(field, (1.1, 0.2), 5e-4).dense() - exact).max()
    assert 3.5 <= e1 / e2 <= 4.5


def test_ricci_fd_flat_below_step_squared():
    step = 1e-3
    fd = ricci_fd(lambda x, y: np.broadcast_to(np.eye(4), np.shape(x) + (4, 4)), (0.0, 0.0), step)
    assert np.abs(fd.dense()).max() < step ** 2


def test_ricci_fd_scherk_instanton():
    spec = surfaces.scherk()
    cfg = assembly.AssemblyConfig(1, (1,), 0.0, 0.0, 0.0)
    fd = ricci_fd(assembled_field(spec, cfg), (0.3, 0.2), 1e-3)
    assert np.abs(fd.dense()).max() < 1e-4  # exact flatness + O(step^2) truncation budget


def test_contracted_bianchi_diagnostic():
    """div(R_ab - R/2 g_ab) ~ 0, one more FD layer on a curved assembled
    metric (the non-minimal control has nonzero Ricci).  Loose bound."""
    spec = surfaces.nonminimal_x2()
    cfg = assembly.AssemblyConfig(1, (1,), 0.0, 0.0, 0.0)
    field = assembled_field(spec, cfg)
    p = (0.4, 0.3)

    def einstein(x, y):
        comp, d1, d2 = assembled(spec, cfg, (x, y))
        ric, scalar, _ = ricci_arrays(comp, d1, d2)
        return ric.dense() - 0.5 * scalar * comp

    comp0, d1_0, _ = assembled(spec, cfg, p)
    gi = np.linalg.inv(comp0)
    gam = christoffel_arrays(comp0, d1_0)
    s = 1e-4
    dT = np.zeros((4, 4, 4))
    dT[0] = (einstein(p[0] + s, p[1]) - einstein(p[0] - s, p[1])) / (2 * s)
    dT[1] = (einstein(p[0], p[1] + s) - einstein(p[0], p[1] - s)) / (2 * s)
    T = einstein(*p)
    cov = dT - np.einsum("dca,db->cab", gam, T) - np.einsum("dcb,ad->cab", gam, T)
    div = np.einsum("ca,cab->b", gi, cov)
    assert np.abs(div).max() < 1e-3


def test_singular_metric_raises():
    with pytest.raises(SingularMetric):
        ricci_arrays(np.zeros((2, 2)), np.zeros((2, 2, 2)), np.zeros((2, 2, 2, 2)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_derivatives_raise(bad):
    # a skipped product 0 * inf would have been nan, so the engine refuses them
    comp, d1, d2 = sphere_metric((1.0, 0.4))
    for which in (1, 2):
        d = [d1.copy(), d2.copy()]
        d[which - 1].flat[-1] = bad
        with pytest.raises(SingularMetric, match="derivatives are not finite"):
            ricci_arrays(comp, *d)
    d1[0, 0, 0] = bad
    with pytest.raises(SingularMetric, match="derivatives are not finite"):
        christoffel_arrays(comp, d1)


@pytest.mark.parametrize("scale", [1e-40, 1e-12, 1.0, 1e40])
def test_singularity_rule_is_scale_free(scale):
    comp, d1, d2 = flat_metric((0.0, 0.0), signs=(1, 1, -1, 1, 1, 1, -1, 1))
    comp = scale * comp
    ric, scalar, _ = ricci_arrays(comp, d1, d2)
    assert np.abs(ric.dense()).max() == 0.0 and scalar == 0.0
    assert assembly.signature_values(comp) == 4
    # rank-deficient at the same scale: one y-block repeats the x-block's first row
    rank3 = scale * np.array([[1.0, 2.0, 0.0, 0.0], [2.0, 4.0, 0.0, 0.0],
                              [0.0, 0.0, -1.0, 0.3], [0.0, 0.0, 0.3, 1.0]])
    for bad in (np.zeros((8, 8)), rank3):
        dim = bad.shape[0]
        with pytest.raises(SingularMetric):
            ricci_arrays(bad, np.zeros((2, dim, dim)), np.zeros((2, 2, dim, dim)))
        with pytest.raises(SingularMetric):
            assembly.signature_values(bad)


def test_singularity_rule_is_relative():
    assert curvature.as_blocks(np.diag([1.0, 2e-10])).eigenvalues.tolist() == [2e-10, 1.0]
    with pytest.raises(SingularMetric):
        curvature.as_blocks(np.diag([1.0, curvature.SINGULAR_RCOND])).eigenvalues
    with pytest.raises(SingularMetric):
        curvature.as_blocks(np.diag([1.0, np.inf])).eigenvalues
    # per block: each block is regular, though the whole metric's ratio is 1e-12
    blocks = curvature.BlockDiagonal([1e-6 * np.eye(2), 1e6 * np.eye(2)], ((0, 1), (1, -1)))
    np.testing.assert_allclose(blocks.eigenvalues, [1e-6, 1e-6, -1e6, -1e6])
    with pytest.raises(SingularMetric):
        curvature.as_blocks(blocks.dense()).eigenvalues
    with pytest.raises(SingularMetric):
        curvature.BlockDiagonal([np.eye(2), np.diag([1.0, 1e-10])], ((0, 1), (1, 1))).eigenvalues


# ---------------------------------------------------------------------------
# byte identity of the live-index, blocked engine
# ---------------------------------------------------------------------------

def padded_ricci(comp, d1, d2):
    """Reference engine: d g and d^2 g padded out to all dim derivative
    directions, (..., dim, dim, dim, dim) intermediates, one pass over the
    whole batch.  ricci_arrays must reproduce its last three outputs bit
    for bit, and christoffel_arrays its gamma."""
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


def dense_assemble_arrays(fr, cfg):
    """Reference assembly: the dense (..., dim, dim) comp, d1 and d2, each
    y-block filled as eps_i * g.  assemble_arrays(...).dense() must
    reproduce it bit for bit."""
    e2 = assembly.conformal_factor_jet(fr, cfg)
    out = []
    for xa, ga in zip(geometry2d.matrix_jets_to_arrays(e2 * fr.g), fr.g_arrays):
        a = np.zeros(xa.shape[:-2] + (cfg.dim, cfg.dim))
        a[..., :2, :2] = xa
        for i, e in enumerate(cfg.eps_blocks):
            a[..., 2 + 2 * i:4 + 2 * i, 2 + 2 * i:4 + 2 * i] = e * ga
        out.append(a)
    return tuple(out)


def each_part(fn, a):
    """A BlockDiagonal of fn applied to each part of a (a dense array is one part)."""
    a = curvature.as_blocks(a)
    return curvature.BlockDiagonal([fn(p) for p in a.parts], a.layout)


def dense_ricci(comp, d1, d2):
    """ricci_arrays with R as its dense array, after checking R's form: one
    part per diagonal block of comp, laid out ((0, 1), (1, 1), ...)."""
    ricci, scalar, denom = curvature.ricci_arrays(comp, d1, d2)
    comp = curvature.as_blocks(comp)
    assert [p.shape[-1] for p in ricci.parts] == [comp.parts[i].shape[-1] for i, _ in comp.layout]
    assert ricci.layout == tuple((j, 1) for j in range(len(comp.layout)))
    return ricci.dense(), scalar, denom


def assert_bits_equal(got, want):
    """Equal as int64 views: every bit, signed zeros and nan payloads included."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def sampled_frame(name, cfg, samples, seed=7):
    spec = surfaces.get(name)
    phi = cli.draw_points(spec, cfg, samples, seed)[4]
    return geometry2d.SurfaceFrame(spec.ambient, phi)


MIXED_CONFIGS = [
    ("scherk", assembly.AssemblyConfig(1, (-1,), 0.0, 0.0, 0.0)),
    ("catenoid", assembly.AssemblyConfig(2, (1, -1), 0.3, 1.0, 0.25)),
    ("bi_wave", assembly.AssemblyConfig(2, (-1, 1), 0.0, 0.5, 0.0)),
    ("scherk", assembly.AssemblyConfig(3, (1, -1, 1), 0.3, 1.0, 0.5)),
    ("nonminimal_x2", assembly.AssemblyConfig(3, (-1, -1, 1), 0.1, 0.0, 1.0)),
]


#: n = 1..4, mixed block signs, e0, m1 and n1 all non-zero
WIDE_CONSTANTS = [assembly.AssemblyConfig(n, signs, e0, 1.0, n1)
                  for n, signs, e0, n1 in [(1, (-1,), 0.3, 0.5), (2, (1, -1), 0.2, 0.25),
                                           (3, (-1, 1, -1), 0.1, 1.0), (4, (1, -1, -1, 1), 0.3, 0.5)]]

#: the wide constants on five surfaces
WIDE_CONFIGS = [(name, cfg) for name in ("scherk", "catenoid", "bi_wave", "helicoid", "nonminimal_x2")
                for cfg in WIDE_CONSTANTS]


def assert_engine_matches_padded(comp, d1, d2):
    want = padded_ricci(*(curvature.as_blocks(a).dense() for a in (comp, d1, d2)))
    assert_bits_equal(dense_ricci(comp, d1, d2), want[1:])
    assert_bits_equal([curvature.christoffel_arrays(comp, d1)], want[:1])


#: n = 5 and 6 (dim 12 and 14), mixed block signs, e0, m1 and n1 all non-zero
LARGE_N_CONFIGS = [(name, assembly.AssemblyConfig(n, signs, e0, m1, n1))
                   for name in ("scherk", "catenoid", "bi_wave", "helicoid", "nonminimal_x2")
                   for n, signs, e0, m1, n1 in [(5, (1, -1, -1, 1, -1), 0.2, 0.5, 0.75),
                                                (6, (-1, 1, 1, -1, 1, -1), 0.1, 1.0, 1.5)]]


@pytest.mark.parametrize("name,cfg", MIXED_CONFIGS + WIDE_CONFIGS + LARGE_N_CONFIGS)
def test_ricci_arrays_bits_match_padded_reference(name, cfg):
    fr = sampled_frame(name, cfg, 40)
    comp, d1, d2 = assembly.assemble_arrays(fr, cfg)
    # the whole batch, one point, and the identity suite's dim-2 conformal call
    for comp, d1, d2 in [(comp, d1, d2), [each_part(lambda p: p[3], a) for a in (comp, d1, d2)],
                         geometry2d.matrix_jets_to_arrays(fr.g)]:
        assert_engine_matches_padded(comp, d1, d2)


#: the wide constants on every catalog surface
CATALOG_CONFIGS = [(spec.name, cfg) for spec in surfaces.catalog() for cfg in WIDE_CONSTANTS]


@pytest.mark.parametrize("name,cfg", CATALOG_CONFIGS)
def test_block_form_matches_dense_form_bit_for_bit(name, cfg):
    """The engine on the assembled blocks, two 2x2 inverses and eigenvalue
    sets, gives the bits it gives on the dense reference assembly: Ricci,
    scalar, denom, Gamma and the signature, signed zeros included."""
    fr = sampled_frame(name, cfg, 40)
    blocks = assembly.assemble_arrays(fr, cfg)
    dense = dense_assemble_arrays(fr, cfg)
    assert_bits_equal([a.dense() for a in blocks], dense)
    got = (*dense_ricci(*blocks), curvature.christoffel_arrays(*blocks[:2]),
           assembly.signature_values(blocks[0]))
    want = (*dense_ricci(*dense), curvature.christoffel_arrays(*dense[:2]),
            assembly.signature_values(dense[0]))
    assert_bits_equal(got, want)


BUILTINS = [
    ("flat", lambda p: flat_metric(p, signs=(1, 1, -1, 1))),
    ("polar", polar_metric),
    ("sphere", lambda p: sphere_metric(p, a=1.3)),
]


@pytest.mark.parametrize("name,metric", BUILTINS)
def test_builtin_metrics_bits_match_padded_reference(name, metric):
    dim = metric((0.5, 0.0))[0].shape[-1]
    block = curvature.block_points(dim)
    for P in (1, 40, block + 1):
        assert_engine_matches_padded(*metric((np.linspace(0.4, 2.6, P), 0.2)))
    assert_engine_matches_padded(*metric((1.1, 0.2)))  # one point, no batch axis


@pytest.mark.parametrize("name,metric", BUILTINS)
def test_builtin_metrics_batch_equals_points(name, metric):
    xs = np.linspace(0.4, 2.6, 12).reshape(3, 4)
    ys = np.linspace(-0.5, 0.5, 4)  # broadcast against xs
    batch = metric((xs, ys))
    dim = batch[0].shape[-1]
    assert [a.shape for a in batch] == [(3, 4, dim, dim), (3, 4, 2, dim, dim), (3, 4, 2, 2, dim, dim)]
    for i, j in np.ndindex(xs.shape):
        one = metric((float(xs[i, j]), float(ys[j])))
        assert [a.shape for a in one] == [a.shape[2:] for a in batch]
        assert_bits_equal([a[i, j] for a in batch], one)


@pytest.fixture
def fresh_plans():
    curvature._cached_plan.cache_clear()
    yield
    curvature._cached_plan.cache_clear()


def test_bit_check_fails_when_one_summation_order_changes(monkeypatch, fresh_plans):
    """The bit check can fail: summing Gamma^i_{de} Gamma^e_{ib} with i
    outer and e inner, where einsum takes e outer, changes R's last bits,
    and adding the scalar's rows in decreasing b changes the scalar's."""
    contractions = curvature._contractions

    def swapped(*terms):
        return contractions(*((subs, order[::-1] if subs == "ide,eib->bd" else order, *luts)
                              for subs, order, *luts in terms))

    def reversed_rows(*terms):
        lut, tables = contractions(*terms)
        if terms[0][0] == "bd,bd->b":
            tables = [[t[:, ::-1] for t in ts] for ts in tables]
        return lut, tables

    cfg = assembly.AssemblyConfig(3, (1, -1, 1), 0.3, 1.0, 0.5)
    comp, d1, d2 = assembly.assemble_arrays(sampled_frame("scherk", cfg, 40), cfg)
    want = padded_ricci(comp.dense(), d1.dense(), d2.dense())
    assert_engine_matches_padded(comp, d1, d2)
    for mutant, output in ((swapped, 0), (reversed_rows, 1)):  # ricci, scalar
        with monkeypatch.context() as m:
            m.setattr(curvature, "_contractions", mutant)
            curvature._cached_plan.cache_clear()
            got = dense_ricci(comp, d1, d2)
        with pytest.raises(AssertionError):
            assert_bits_equal(got[output:output + 1], want[output + 1:output + 2])


def test_plan_memory_at_n40_stays_small(fresh_plans):
    # the plan's tables join index lists, so building it at dim 82 needs no
    # dim^4 lookup or mask (a (dim,)^4 int64 array alone is 0.34 GiB)
    cfg = assembly.AssemblyConfig(40, (1, -1) * 20, 0.3, 1.0, 0.5)
    arrays = assembly.assemble_arrays(sampled_frame("scherk", cfg, 4), cfg)
    tracemalloc.start()
    try:
        curvature.ricci_arrays(*arrays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curvature._cached_plan.cache_info().currsize == 1
    assert peak < 20 * 2 ** 20


def test_blocked_ricci_equals_one_block(monkeypatch):
    cfg = assembly.AssemblyConfig(2, (1, -1), 0.3, 1.0, 0.25)
    fr = sampled_frame("scherk", cfg, 700)
    # the dim-6 assembled metric and the identity suite's dim-2 conformal
    # metric, tiled past their block sizes (the points need not differ)
    for arrays in (assembly.assemble_arrays(fr, cfg), geometry2d.matrix_jets_to_arrays(fr.g)):
        block = curvature.block_points(arrays[0].shape[-1])
        tiled = [each_part(lambda p: np.resize(p, (2 * block + 5,) + p.shape[1:]), a) for a in arrays]
        for P in (1, block, block + 1, 2 * block + 5):
            comp, d1, d2 = (each_part(lambda p: p[:P], a) for a in tiled)
            blocked = dense_ricci(comp, d1, d2)
            with monkeypatch.context() as m:
                m.setattr(curvature, "block_points", lambda dim: P)
                assert_bits_equal(blocked, dense_ricci(comp, d1, d2))


def test_ricci_arrays_memory_grows_with_its_output_only():
    # the per-block temporaries are bounded by block_points; past them the
    # peak should grow by the returned arrays, R's 2x2 blocks, the scalar and
    # denom, and by g^{-1}'s parts, not by a (P, dim, dim) R
    cfg = assembly.AssemblyConfig(3, (1, -1, 1), 0.3, 1.0, 0.5)
    arrays = assembly.assemble_arrays(sampled_frame("scherk", cfg, 40), cfg)
    peaks = []
    for P in (512, 4096):
        comp, d1, d2 = (each_part(lambda p: np.resize(p, (P,) + p.shape[1:]), a) for a in arrays)
        tracemalloc.start()
        try:
            curvature.ricci_arrays(comp, d1, d2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 2 * 4096 * (4 * (cfg.n + 1) + 2) * 8


def test_block_points_bound_the_per_block_temporaries():
    # a block holds about 2048 / dim points, so its value arrays (about 20 dim
    # rows each) keep their size up to dim 16; past it a block stays at 128
    # points, because _sum makes one numpy call per table round, so the
    # per-block temporaries grow at most linearly in dim
    for dim in (2, 4, 6, 8, 14, 16):
        assert 2048 - dim < curvature.block_points(dim) * dim <= 2048
    assert [curvature.block_points(dim) for dim in (18, 62, 202)] == [128] * 3
    temporaries = {}
    for n in (1, 3, 6, 20):
        cfg = assembly.AssemblyConfig(n, (1, -1) * (n // 2) + (1,) * (n % 2), 0.3, 1.0, 0.5)
        arrays = assembly.assemble_arrays(sampled_frame("scherk", cfg, 40), cfg)
        P = curvature.block_points(cfg.dim)
        comp, d1, d2 = (each_part(lambda p: np.resize(p, (P,) + p.shape[1:]), a) for a in arrays)
        curvature.ricci_arrays(comp, d1, d2)  # the plan is cached, not a temporary
        tracemalloc.start()
        try:
            curvature.ricci_arrays(comp, d1, d2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        temporaries[cfg.dim] = peak - P * (4 * (n + 1) + 2) * 8  # less the returned arrays
    for dim, size in temporaries.items():
        assert size <= 1.5 * temporaries[8] * max(1.0, dim / 8), (dim, temporaries)


def test_ricci_arrays_at_n100_holds_no_dense_ricci():
    """One verify chunk of 1024 points at n = 100 (dim 202): the dense R alone
    would be 319 MiB; its 101 2x2 blocks and the block temporaries are not."""
    cfg = assembly.AssemblyConfig(100, (1,) * 100)
    arrays = assembly.assemble_arrays(sampled_frame("scherk", cfg, cli.VERIFY_CHUNK), cfg)
    tracemalloc.start()
    try:
        ricci = curvature.ricci_arrays(*arrays)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ricci.parts) == 101 and ricci.shape == (cli.VERIFY_CHUNK, 202, 202)
    assert peak < 80 * 2 ** 20


def test_ricci_off_the_blocks_is_refused(fresh_plans):
    # a d^2 g that couples two of comp's blocks makes R do so too: the plan
    # refuses it rather than drop those entries
    _, d1, d2 = flat_metric((0.0, 0.0), signs=(1, 1, 1, 1))
    comp = curvature.BlockDiagonal([np.eye(2)], ((0, 1), (0, 1)))
    d2[0, 0, 1, 2] = d2[0, 0, 2, 1] = 0.1
    with pytest.raises(ValueError, match="off comp's diagonal blocks"):
        curvature.ricci_arrays(comp, d1, d2)


#: the verify-deep configuration, and two surfaces whose off-diagonal jets
#: are not bitwise symmetric
FD_CONFIGS = [("scherk", assembly.AssemblyConfig(3, (1, -1, 1), 0.3, 1.0, 0.5)),
              ("helicoid", assembly.AssemblyConfig(2, (1, -1), 0.2, 1.0, 0.25)),
              ("catenoid", assembly.AssemblyConfig(2, (1, -1), 0.3, 1.0, 0.25))]


def test_batched_ricci_fd_equals_pointwise_loop():
    """ricci_fd calls the field once on all nine stencil points and gives the
    bits of a pointwise loop, of a grid batch and of the field's dense form."""
    for name, cfg in FD_CONFIGS:
        spec = surfaces.get(name)
        x, y, _, _, _ = cli.draw_points(spec, cfg, 10, seed=11)
        calls = []

        def field(px, py):
            fr = geometry2d.SurfaceFrame(spec.ambient, spec.phi_jet(px, py))
            return assembly.assemble_arrays(fr, cfg)[0]

        def counted(px, py):
            calls.append((px, py))
            return field(px, py)

        batched = ricci_fd(counted, (x, y), cli.ORACLE_STEP).dense()
        assert [np.shape(px) for px, _ in calls] == [(3, 3, 10)]  # one evaluation, all nine offsets
        X, Y = calls[0]
        for i, j in itertools.product((-1, 0, 1), repeat=2):  # the stencil point (x + i step, y + j step)
            assert_bits_equal([X[i + 1, j + 1], Y[i + 1, j + 1]],
                              [x + i * cli.ORACLE_STEP, y + j * cli.ORACLE_STEP])
        loop = [ricci_fd(field, (x[k], y[k]), cli.ORACLE_STEP).dense() for k in range(x.size)]
        assert_bits_equal([batched], [np.array(loop)])
        grid = ricci_fd(field, (x.reshape(2, 5), y.reshape(2, 5)), cli.ORACLE_STEP).dense()
        assert_bits_equal([grid], [batched.reshape(2, 5, cfg.dim, cfg.dim)])
        dense = ricci_fd(lambda px, py: field(px, py).dense(), (x, y), cli.ORACLE_STEP).dense()
        assert_bits_equal([batched], [dense])
