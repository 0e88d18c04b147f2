"""Property tests for the jet algebra: ring laws on mixed orders, the chain
rule against ``_compose``, and exp/log and powr(., p)/powr(., 1/p) as inverses.

Coefficients are drawn from [-1, 1] (values of log and power bases from
[0.5, 2]), so no term of a product of three jets exceeds about 30 in
magnitude; the ring laws hold to 1e-12 absolute, about 30 ulps of that.
The inverse pairs lose a few more digits through the powers of 1/v in
their derivatives and hold to 1e-10 relative.  The profile is derandomized
and bounded, so the suite stays deterministic and fast.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from minsurf import jets  # noqa: E402
from minsurf.jets import Jet3, deriv  # noqa: E402

settings.register_profile("jets", derandomize=True, max_examples=60, deadline=None, database=None)
JETS = settings.get_profile("jets")

RING_ATOL = 1e-12
INVERSE_RTOL = 1e-10

coefficient = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
base_value = st.floats(0.5, 2.0)


@st.composite
def jet(draw, order=st.integers(0, jets.ORDER), value=coefficient):
    """A jet of a drawn order: value from ``value``, the rest from [-1, 1]."""
    k = draw(order)
    n = (k + 1) * (k + 2) // 2
    c = [draw(value)] + draw(st.lists(coefficient, min_size=n - 1, max_size=n - 1))
    return Jet3(np.array(c))


def close(a, b, atol=RING_ATOL, rtol=0.0):
    assert a.order == b.order
    np.testing.assert_allclose(a.c, b.c, atol=atol, rtol=rtol)


@JETS
@given(jet(), jet(), jet())
def test_ring_laws_on_mixed_orders(a, b, c):
    lowest = min(a.order, b.order, c.order)
    assert (a * b).order == (a + b).order == (a - b).order == min(a.order, b.order)
    assert (a * b * c).order == lowest
    np.testing.assert_array_equal((a + b).c, (b + a).c)
    close(a * b, b * a)
    close((a * b) * c, a * (b * c))
    close(a * (b + c), a * b + a * c)
    close((a + b) - b, Jet3(a.c[:min(len(a.c), len(b.c))]))
    np.testing.assert_array_equal((a * Jet3.constant(1.0)).c, a.c)


def _pow_derivative(p):
    return lambda a: p * jets.powr(a, p - 1.0)


#: name -> (F through _compose, its derivative F')
CHAIN = {
    "exp": (jets.exp, jets.exp),
    "sin": (jets.sin, jets.cos),
    "atan": (jets.atan, lambda a: 1.0 / (1.0 + a * a)),
    "log": (jets.log, lambda a: 1.0 / a),
    "sqrt": (jets.sqrt, lambda a: 0.5 / jets.sqrt(a)),
    "powr(1.5)": (lambda a: jets.powr(a, 1.5), _pow_derivative(1.5)),
    "powr(-2)": (lambda a: jets.powr(a, -2), _pow_derivative(-2.0)),
}


@JETS
@given(st.sampled_from(sorted(CHAIN)), jet(order=st.integers(1, jets.ORDER), value=base_value),
       st.sampled_from([0, 1]))
def test_chain_rule_against_compose(name, a, axis):
    """d F(a) = F'(a) d a, to the order the derivative keeps."""
    f, fprime = CHAIN[name]
    lhs, rhs = deriv(f(a), axis), fprime(a) * deriv(a, axis)
    close(lhs, rhs, atol=RING_ATOL, rtol=INVERSE_RTOL)


@JETS
@given(jet())
def test_log_inverts_exp(a):
    close(jets.log(jets.exp(a)), a, atol=RING_ATOL, rtol=INVERSE_RTOL)


@JETS
@given(jet(value=base_value))
def test_exp_inverts_log(a):
    close(jets.exp(jets.log(a)), a, atol=RING_ATOL, rtol=INVERSE_RTOL)


@JETS
@given(jet(value=base_value), st.sampled_from([-3.0, -2.0, -0.5, 0.5, 1.5, 2.0, 3.0]))
def test_powr_inverts_its_reciprocal_power(a, p):
    close(jets.powr(jets.powr(a, p), 1.0 / p), a, atol=RING_ATOL, rtol=INVERSE_RTOL)
