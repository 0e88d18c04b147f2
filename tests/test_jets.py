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


def test_deriv_shifts_and_zeroes_top_order():
    rng = np.random.default_rng(23)
    a = random_jet(rng)
    d = deriv(a, 0)
    assert d.value == a.partial(1, 0)
    assert d.partial(1, 1) == a.partial(2, 1)
    assert d.partial(3, 0) == 0.0 and d.partial(2, 1) == 0.0


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
