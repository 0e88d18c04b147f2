import math
import zlib

import numpy as np
import pytest
from conftest import CLOSED_FORMS, central_partial, interior_points

from minsurf import jets, surfaces
from minsurf.jets import DomainError, Jet3, deriv


def random_jet(rng, shift=0.0):
    return Jet3(rng.uniform(-1.0, 1.0, size=jets.NSLOTS)) + shift


def test_variable_seeds():
    j = Jet3.variable("x", 0.5)
    assert j.value == 0.5 and j.partial(1, 0) == 1.0
    assert np.count_nonzero(j.c) == 2

    j = Jet3.variable("y", -2.0)
    assert j.value == -2.0 and j.partial(0, 1) == 1.0
    assert np.count_nonzero(j.c) == 2

    j = Jet3.variable("x", 0.0)
    assert j.value == 0.0 and j.partial(1, 0) == 1.0
    assert np.count_nonzero(j.c) == 1


def test_mul_square_of_variable():
    X = Jet3.variable("x", 2.0)
    sq = X * X
    assert sq.value == 4.0
    assert sq.partial(1, 0) == 4.0
    assert sq.partial(2, 0) == 2.0
    assert sq.partial(3, 0) == 0.0


def test_mul_unit_identity():
    rng = np.random.default_rng(3)
    a = random_jet(rng)
    one = Jet3.constant(1.0)
    np.testing.assert_array_equal((a * one).c, a.c)


def test_mul_bilinear():
    prod = Jet3.variable("x", 1.0) * Jet3.variable("y", 3.0)
    assert prod.value == 3.0
    assert prod.partial(1, 0) == 3.0
    assert prod.partial(0, 1) == 1.0
    assert prod.partial(1, 1) == 1.0
    assert np.count_nonzero(prod.c) == 4


def test_sqrt_of_constant():
    s = jets.sqrt(Jet3.constant(4.0))
    assert s.value == 2.0
    assert np.count_nonzero(s.c) == 1


def test_log_exp_roundtrips():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a = random_jet(rng)
        back = jets.log(jets.exp(a))
        np.testing.assert_allclose(back.c, a.c, rtol=1e-12, atol=1e-12)
        pos = a + 3.0  # value > 0 needed for the other direction
        back = jets.exp(jets.log(pos))
        np.testing.assert_allclose(back.c, pos.c, rtol=1e-12, atol=1e-12)


def test_mul_commutative_associative():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b, c = (random_jet(rng) for _ in range(3))
        np.testing.assert_allclose((a * b).c, (b * a).c, atol=1e-14)
        np.testing.assert_allclose(((a * b) * c).c, (a * (b * c)).c, atol=1e-14)


def test_division_roundtrip():
    rng = np.random.default_rng(19)
    for _ in range(25):
        a = random_jet(rng)
        b = random_jet(rng, shift=2.5)  # bounded away from zero
        np.testing.assert_allclose(((a / b) * b).c, a.c, atol=1e-12)


def test_powr_integer_negative_base():
    j = jets.powr(Jet3.variable("x", -2.0), 3)
    assert j.value == -8.0 and j.partial(1, 0) == 12.0
    assert j.partial(2, 0) == -12.0 and j.partial(3, 0) == 6.0


def test_powr_domain_errors():
    with pytest.raises(DomainError):
        jets.powr(Jet3.variable("x", -1.0), 0.5)
    with pytest.raises(DomainError):
        jets.powr(Jet3.variable("x", 0.0), -1)
    with pytest.raises(DomainError):
        jets.log(Jet3.variable("x", 0.0))
    with pytest.raises(DomainError):
        jets.sqrt(Jet3.variable("x", -4.0))


def test_deriv_shifts_and_drops_top_order():
    rng = np.random.default_rng(23)
    a = random_jet(rng)
    d = deriv(a, 0)
    assert d.order == 2 and len(d.c) == 6
    assert d.value == a.partial(1, 0)
    assert d.partial(1, 1) == a.partial(2, 1)
    assert deriv(a, 1).partial(0, 2) == a.partial(0, 3)
    with pytest.raises(IndexError):
        d.partial(3, 0)
    dd = deriv(deriv(deriv(a, 0), 1), 0)
    assert dd.order == 0 and dd.value == a.partial(2, 1)
    with pytest.raises(IndexError):
        dd.partial(1, 0)
    with pytest.raises(ValueError):
        deriv(dd, 0)


# ---------------------------------------------------------------------------
# bit oracle: the truncated arithmetic against the full-order reference
# ---------------------------------------------------------------------------

def leibniz_table():
    """The order-3 product's terms (out, a slot, b slot, weight), in the order
    the full-order product added them."""
    table = []
    for (i, j), o in jets.IDX.items():
        for p in range(i + 1):
            for q in range(j + 1):
                w = math.comb(i, p) * math.comb(j, q)
                table.append((o, jets.IDX[(p, q)], jets.IDX[(i - p, j - q)], float(w)))
    return table


REFERENCE_TABLE = leibniz_table()


def reference_mul(a, b, table):
    """The full-order product: every one of the 35 terms, on 10-slot arrays."""
    out = np.zeros((jets.NSLOTS,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]))
    for o, ia, ib, w in table:
        out[o] += w * a[ia] * b[ib] if w != 1.0 else a[ia] * b[ib]
    return out


def reference_deriv(a, axis):
    """The full-order deriv: shifted slots, the top order zero-filled."""
    out = np.zeros_like(a)
    for (i, j), k in jets.IDX.items():
        src = (i + 1, j) if axis == 0 else (i, j + 1)
        if sum(src) <= jets.ORDER:
            out[k] = a[jets.IDX[src]]
    return out


def reference_compose(a, f0, f1, f2, f3, table):
    delta = a.copy()
    delta[0] = np.zeros_like(delta[0])
    out = delta * (f3 / 6.0)
    out[0] = out[0] + f2 / 2.0
    out = reference_mul(out, delta, table)
    out[0] = out[0] + f1
    out = reference_mul(out, delta, table)
    out[0] = out[0] + f0
    return out


LENGTHS = sorted(jets.ORDER_OF)  # 1, 3, 6, 10 coefficients: orders 0..3
ORDER_PAIRS = [(m, n) for m in LENGTHS for n in LENGTHS]


def jet_pair(rng, m, n, points=64, positive=False):
    """Order-truncated jets of m and n slots and their 10-slot extensions,
    whose slots above each order hold garbage.  About one coefficient in six
    is a signed zero; with ``positive`` the values are in [0.5, 1.5], except
    the first, 1e-110, where the third derivative of log, sqrt and the
    negative powers overflows."""
    full = rng.uniform(-1.0, 1.0, size=(2, jets.NSLOTS, points))
    zero = rng.random(full.shape) < 1.0 / 6.0
    full[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
    if positive:
        full[:, 0] = np.abs(full[:, 0]) + 0.5
        full[:, 0, 0] = 1e-110
    return (Jet3(full[0, :m].copy()), Jet3(full[1, :n].copy())), (full[0], full[1])


def composed(fn, a, monkeypatch):
    """fn(a), and the (f0, f1, f2, f3) it handed to _compose."""
    seen = []
    compose = jets._compose

    def spy(jet, *fs):
        seen.append(fs)
        return compose(jet, *fs)

    with monkeypatch.context() as mp:
        mp.setattr(jets, "_compose", spy)
        out = fn(a)
    (fs,) = seen
    return out, fs


#: name -> (function through _compose, whether it needs positive values)
COMPOSED = {"exp": (jets.exp, False), "atan": (jets.atan, False), "powr3": (lambda a: jets.powr(a, 3), False),
            "log": (jets.log, True), "sqrt": (jets.sqrt, True), "powr-1": (lambda a: jets.powr(a, -1), True),
            "powr-2.5": (lambda a: jets.powr(a, -2.5), True), "powr0.5": (lambda a: jets.powr(a, 0.5), True)}


def bit_mismatches(table, monkeypatch, seed=29):
    """Every operation whose truncated result differs from the full-order
    reference (with the given product table) in any bit of a kept slot."""
    rng = np.random.default_rng(seed)
    bad = []

    def check(name, got, ref):
        ref = np.ascontiguousarray(ref[:len(got.c)])
        if not np.array_equal(np.ascontiguousarray(got.c).view(np.int64), ref.view(np.int64)):
            bad.append(name)

    for m, n in ORDER_PAIRS:
        (a, b), (fa, fb) = jet_pair(rng, m, n)
        assert len((a * b).c) == len((a + b).c) == len((a - b).c) == min(m, n)
        check(f"{m}*{n}", a * b, reference_mul(fa, fb, table))
        check(f"{m}+{n}", a + b, fa + fb)
        check(f"{m}-{n}", a - b, fa + (-fb))
        check(f"{m}+scalar", a + 0.25, fa + np.float64(0.25) * (np.arange(jets.NSLOTS) == 0)[:, None])
        for axis in (0, 1):
            if m > 1:
                check(f"deriv{axis}({m})", deriv(a, axis), reference_deriv(fa, axis))
        (pa, _), (fpa, _) = jet_pair(rng, m, n, positive=True)
        for name, (fn, positive) in COMPOSED.items():
            src, fsrc = (pa, fpa) if positive else (a, fa)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                got, fs = composed(fn, src, monkeypatch)
                check(f"{name}({m})", got, reference_compose(fsrc, *fs, table))
    return bad


def test_truncated_arithmetic_matches_full_order_bits(monkeypatch):
    """Every slot a truncated jet keeps has the bits the full-order arithmetic
    gives it, signbits included, for every pair of orders."""
    assert bit_mismatches(REFERENCE_TABLE, monkeypatch) == []


def test_bit_oracle_fails_when_one_term_order_changes(monkeypatch):
    """Swap the second and third terms of d_xd_y's four in the reference: the
    sum's rounding changes, so the oracle must see it."""
    table = list(REFERENCE_TABLE)
    slot = [k for k, t in enumerate(table) if t[0] == jets.IDX[(1, 1)]]
    table[slot[1]], table[slot[2]] = table[slot[2]], table[slot[1]]
    bad = bit_mismatches(table, monkeypatch)
    assert "6*6" in bad and "10*10" in bad and "3*3" not in bad


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_jets_match_finite_differences(name):
    """Every catalog surface's jet agrees with central differences of its
    closed form: orders <= 2 to 1e-6 relative (step 1e-4), order 3 to 1e-4.

    Third-order stencils use step 1e-3: at 1e-4 their round-off floor
    (~|f| eps / 2h^3) already exceeds the tolerance being verified.
    """
    spec = surfaces.get(name)
    f = CLOSED_FORMS[name]
    for x, y in interior_points(spec, 3, seed=zlib.crc32(name.encode())):
        jet = spec.phi_jet(np.array([x]), np.array([y]))
        for (i, j), slot in jets.IDX.items():
            if i + j <= 2:
                fd, tol = central_partial(f, x, y, i, j, h=1e-4), 1e-6
            else:
                fd, tol = central_partial(f, x, y, i, j, h=1e-3), 1e-4
            assert abs(jet.c[slot][0] - fd) <= tol * max(1.0, abs(fd)), (i, j, name)
