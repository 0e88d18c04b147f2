"""Order-3 bivariate Taylor jets: exact differentiation through third order.

A Jet3 carries the value and all partial derivatives d^i_x d^j_y f with
i + j <= 3 (10 coefficients).  Arithmetic reproduces the calculus of the
represented functions through total order 3; higher-order information is
truncated.  Coefficients may be scalars or numpy arrays of sample points,
so a single jet expression evaluates a whole batch at once.
"""

from __future__ import annotations

import math

import numpy as np

ORDER = 3

# slot layout: one entry per (i, j) with i + j <= ORDER
SLOTS = [(i, j) for s in range(ORDER + 1) for i in range(s, -1, -1) for j in [s - i]]
IDX = {ij: k for k, ij in enumerate(SLOTS)}
NSLOTS = len(SLOTS)

# Leibniz product table: (out_slot, a_slot, b_slot, binomial weight)
_MUL_TABLE = []
for (i, j), o in IDX.items():
    for p in range(i + 1):
        for q in range(j + 1):
            w = math.comb(i, p) * math.comb(j, q)
            _MUL_TABLE.append((o, IDX[(p, q)], IDX[(i - p, j - q)], float(w)))


class DomainError(ValueError):
    """A jet operation hit a point outside its real domain (log of a
    non-positive value, fractional power of a non-positive base, ...)."""


class Jet3:
    """Truncated bivariate Taylor expansion, order 3.

    ``c`` has shape ``(10,) + batch_shape``; ``c[IDX[(i, j)]]`` is the
    partial derivative d^i_x d^j_y at the (implicit) expansion point.
    The expansion point itself is not stored: evaluation contexts own it.
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
    def value(self):
        return self.c[0]

    def partial(self, i, j):
        """Partial derivative d^i_x d^j_y of the represented function."""
        return self.c[IDX[(i, j)]]

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet3):
            return Jet3(self.c + other.c)
        other = np.asarray(other, dtype=float)
        shape = np.broadcast_shapes(self.c.shape[1:], other.shape)
        out = np.zeros((NSLOTS,) + shape)
        out += self.c
        out[0] += other
        return Jet3(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet3) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Jet3(-self.c)

    def __mul__(self, other):
        if not isinstance(other, Jet3):
            return Jet3(self.c * np.asarray(other))
        shape = np.broadcast_shapes(self.c.shape[1:], other.c.shape[1:])
        out = np.zeros((NSLOTS,) + shape)
        a, b = self.c, other.c
        for o, ia, ib, w in _MUL_TABLE:
            out[o] += w * a[ia] * b[ib] if w != 1.0 else a[ia] * b[ib]
        return Jet3(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet3):
            return self * powr(other, -1)
        return Jet3(self.c / np.asarray(other))

    def __rtruediv__(self, other):
        return powr(self, -1) * other

    def __pow__(self, p):
        return powr(self, p)

    def __repr__(self):
        return f"Jet3({self.c!r})"


def deriv(a: Jet3, axis) -> Jet3:
    """Jet of the partial derivative of ``a`` along ``axis``.

    The result's third-order coefficients are zeroed: they would need
    order-4 data of ``a``.  Consumers must only read orders <= 2 of a
    once-differentiated jet (and so on down the chain).
    """
    axis = {"x": 0, "y": 1, 0: 0, 1: 1}[axis]
    out = np.zeros_like(a.c)
    for (i, j), k in IDX.items():
        src = (i + 1, j) if axis == 0 else (i, j + 1)
        if sum(src) <= ORDER:
            out[k] = a.c[IDX[src]]
    return Jet3(out)


def _compose(a: Jet3, f0, f1, f2, f3) -> Jet3:
    """Jet of F(a) given the 1-D derivatives F, F', F'', F''' at a.value.

    Horner evaluation of the cubic Taylor polynomial of F in delta = a - a0;
    delta**4 vanishes in the truncated algebra, so this is exact to order 3.
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


def tan(a: Jet3) -> Jet3:
    if np.any(np.cos(a.value) == 0.0):
        raise DomainError("tan at a pole of cos")
    t = np.tan(a.value)
    u = 1.0 + t * t
    return _compose(a, t, u, 2.0 * t * u, u * (2.0 + 6.0 * t * t))


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
