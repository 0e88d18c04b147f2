"""Bivariate Taylor jets of order at most 3: exact differentiation through third order.

A Jet3 carries the value and the partial derivatives d^i_x d^j_y f with
i + j <= k, the order the jet is valid to.  Its length says k: 10, 6, 3 or
1 coefficients for order 3, 2, 1 or 0.  Seeds (``constant``, ``variable``)
are order 3, and ``deriv`` returns a jet one order lower.  An operation on
two jets of different orders truncates to the lower one (truncated Taylor
arithmetic), and reading a partial above a jet's order raises IndexError.
Truncation keeps the bits of every kept coefficient: an order-k product
adds the same terms, in the same order, as the order-3 product does for
its slots of order <= k.  Coefficients may be scalars or numpy arrays of
sample points, so a single jet expression evaluates a whole batch at once.
"""

from __future__ import annotations

import math

import numpy as np

ORDER = 3

# slot layout: one entry per (i, j) with i + j <= ORDER
SLOTS = [(i, j) for s in range(ORDER + 1) for i in range(s, -1, -1) for j in [s - i]]
IDX = {ij: k for k, ij in enumerate(SLOTS)}
NSLOTS = len(SLOTS)
#: jet length -> the order it is valid to; the slots of order <= k come first
ORDER_OF = {(k + 1) * (k + 2) // 2: k for k in range(ORDER + 1)}

# Leibniz product table: (out_slot, a_slot, b_slot, binomial weight), sorted
# by output slot, so the product of length-n jets runs its first _MUL_TERMS[n]
# entries: 1, 5, 15 or 35 terms for order 0, 1, 2 or 3
_MUL_TABLE = []
for (i, j), o in IDX.items():
    for p in range(i + 1):
        for q in range(j + 1):
            w = math.comb(i, p) * math.comb(j, q)
            _MUL_TABLE.append((o, IDX[(p, q)], IDX[(i - p, j - q)], float(w)))
_MUL_TERMS = {n: sum(o < n for o, *_ in _MUL_TABLE) for n in ORDER_OF}


class DomainError(ValueError):
    """A jet operation hit a point outside its real domain (log of a
    non-positive value, fractional power of a non-positive base, ...)."""


class Jet3:
    """Truncated bivariate Taylor expansion, of order 3 or lower.

    ``c`` has shape ``(n,) + batch_shape`` with n in ``ORDER_OF`` (10 for
    order 3); ``c[IDX[(i, j)]]`` is the partial derivative d^i_x d^j_y at
    the (implicit) expansion point, for i + j up to the jet's order.  The
    expansion point itself is not stored: evaluation contexts own it.
    """

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    @classmethod
    def constant(cls, value):
        value = np.asarray(value, dtype=float)
        c = np.zeros((NSLOTS,) + value.shape)
        c[0] = value
        return cls(c)

    @classmethod
    def variable(cls, axis, value):
        """Seed jet for the coordinate ``axis`` ('x'/'y' or 0/1) at ``value``."""
        axis = {"x": 0, "y": 1, 0: 0, 1: 1}[axis]
        out = cls.constant(value)
        out.c[IDX[(1, 0)] if axis == 0 else IDX[(0, 1)]] = 1.0
        return out

    @property
    def order(self):
        return ORDER_OF[len(self.c)]

    @property
    def value(self):
        return self.c[0]

    def partial(self, i, j):
        """Partial derivative d^i_x d^j_y of the represented function;
        IndexError above the jet's order."""
        if i + j > self.order:
            raise IndexError(f"partial of order {i + j} read from an order-{self.order} jet")
        return self.c[IDX[(i, j)]]

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet3):
            n = min(len(self.c), len(other.c))
            return Jet3(self.c[:n] + other.c[:n])
        other = np.asarray(other, dtype=float)
        shape = np.broadcast_shapes(self.c.shape[1:], other.shape)
        out = np.zeros(self.c.shape[:1] + shape)
        out += self.c
        out[0] += other
        return Jet3(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet3) else -np.asarray(other))

    def __neg__(self):
        return Jet3(-self.c)

    def __mul__(self, other):
        if not isinstance(other, Jet3):
            return Jet3(self.c * np.asarray(other))
        a, b = self.c, other.c
        n = min(len(a), len(b))
        out = np.zeros((n,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]))
        for o, ia, ib, w in _MUL_TABLE[:_MUL_TERMS[n]]:
            out[o] += w * a[ia] * b[ib] if w != 1.0 else a[ia] * b[ib]
        return Jet3(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * powr(other, -1)

    def __rtruediv__(self, other):
        return powr(self, -1) * other


def deriv(a: Jet3, axis) -> Jet3:
    """Jet of the partial derivative of ``a`` along ``axis``, one order lower.

    The top order of ``a`` is dropped rather than filled: its derivative
    would need data above ``a``'s order.  An order-0 jet has no derivative
    (ValueError).
    """
    axis = {"x": 0, "y": 1, 0: 0, 1: 1}[axis]
    order = a.order - 1
    if order < 0:
        raise ValueError("deriv of an order-0 jet")
    return Jet3(a.c[[IDX[(i + 1, j) if axis == 0 else (i, j + 1)] for i, j in SLOTS if i + j <= order]])


def _compose(a: Jet3, f0, f1, f2, f3) -> Jet3:
    """Jet of F(a) given the 1-D derivatives F, F', F'', F''' at a.value.

    Horner evaluation of the cubic Taylor polynomial of F in delta = a - a0;
    delta**(k+1) vanishes in the algebra of order-k jets, so this is exact to
    a's order.  f3 stays in below order 3: its product with delta's zero
    value reaches every slot, as nan wherever f3 is not finite.
    """
    delta = Jet3(a.c.copy())
    delta.c[0] = np.zeros_like(delta.c[0])
    out = delta * (f3 / 6.0)
    out.c[0] = out.c[0] + f2 / 2.0
    out = out * delta
    out.c[0] = out.c[0] + f1
    out = out * delta
    out.c[0] = out.c[0] + f0
    return out


def sin(a: Jet3) -> Jet3:
    s, c = np.sin(a.value), np.cos(a.value)
    return _compose(a, s, c, -s, -c)


def cos(a: Jet3) -> Jet3:
    s, c = np.sin(a.value), np.cos(a.value)
    return _compose(a, c, -s, -c, s)


def exp(a: Jet3) -> Jet3:
    e = np.exp(a.value)
    return _compose(a, e, e, e, e)


def log(a: Jet3) -> Jet3:
    v = a.value
    if np.any(v <= 0.0):
        raise DomainError("log of a non-positive value")
    return _compose(a, np.log(v), 1.0 / v, -1.0 / v ** 2, 2.0 / v ** 3)


def sqrt(a: Jet3) -> Jet3:
    v = a.value
    if np.any(v <= 0.0):
        raise DomainError("sqrt of a non-positive value")
    s = np.sqrt(v)
    return _compose(a, s, 0.5 / s, -0.25 / (s * v), 0.375 / (s * v * v))


def atan(a: Jet3) -> Jet3:
    v = a.value
    u = 1.0 + v * v
    return _compose(a, np.arctan(v), 1.0 / u, -2.0 * v / u ** 2, (6.0 * v * v - 2.0) / u ** 3)


def sinh(a: Jet3) -> Jet3:
    s, c = np.sinh(a.value), np.cosh(a.value)
    return _compose(a, s, c, s, c)


def is_integer(p: float) -> bool:
    """Whether powr treats the exponent p as an integer (any base allowed)."""
    return abs(p - round(p)) < 1e-12


def powr(a: Jet3, p: float) -> Jet3:
    """Real power a**p.

    Integer p works for any base (non-zero when p < 0); fractional p
    requires a strictly positive base.
    """
    v = a.value
    if is_integer(p):
        pint = round(p)
        p = float(pint)
        if pint < 0 and np.any(v == 0.0):
            raise DomainError("negative integer power of zero")
        zero = np.zeros_like(v)
        f0 = np.power(v, pint, dtype=float)
        f1 = p * np.power(v, pint - 1) if pint != 0 else zero
        f2 = p * (p - 1.0) * np.power(v, pint - 2) if pint not in (0, 1) else zero
        f3 = p * (p - 1.0) * (p - 2.0) * np.power(v, pint - 3) if pint not in (0, 1, 2) else zero
        return _compose(a, f0, f1, f2, f3)
    if np.any(v <= 0.0):
        raise DomainError("fractional power of a non-positive base")
    f0 = v ** p
    return _compose(a, f0, p * f0 / v, p * (p - 1.0) * f0 / v ** 2, p * (p - 1.0) * (p - 2.0) * f0 / v ** 3)
