"""Catalog of exact minimal graph surfaces x3 = phi(x1, x2) in flat 3-space.

Each entry bundles the graph function (as a jet evaluator), the constant
ambient 2-metric block g0 together with the sign eps of the (dx3)^2 term,
a rectangular parameter domain, and an admissibility predicate that keeps
sample points away from singular loci.  All catalog entries except the
deliberately non-minimal control satisfy the minimal-surface equation
exactly.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import jets
from .jets import Jet3

#: catalog domains stay this far away from every singular locus
MARGIN = 0.1


class InadmissiblePoint(ValueError):
    """Requested point lies outside the surface's admissible set."""


@dataclass(frozen=True)
class AmbientMetric:
    """Constant flat 2-metric g0 = [[k1, k0], [k0, k2]] plus the x3 sign.

    ``raised``, ``rho``, ``weights`` and ``pde_coefficients`` take the
    gradient (phi_x, phi_y) as value arrays or as jets.
    """

    k1: float
    k2: float
    k0: float
    eps: int

    def __post_init__(self):
        if self.eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")
        try:
            det = self.det
        except OverflowError:  # k0 ** 2 beyond the float range
            det = math.inf
        if not (all(map(math.isfinite, (self.k1, self.k2, self.k0, det))) and det != 0.0):
            raise ValueError("the ambient 2-metric needs finite k1, k2, k0 and a finite non-zero determinant "
                             f"k1 k2 - k0^2, got {self.k1:g},{self.k2:g},{self.k0:g}")

    @property
    def det(self) -> float:
        return self.k1 * self.k2 - self.k0 ** 2

    @property
    def g0(self) -> np.ndarray:
        return np.array([[self.k1, self.k0], [self.k0, self.k2]])

    @property
    def g0_inv(self) -> np.ndarray:
        return np.array([[self.k2, -self.k0], [-self.k0, self.k1]]) / self.det

    def raised(self, px, py):
        """The raised gradient (phi^x, phi^y), phi^mu = g0^{mu nu} phi_nu."""
        gi = self.g0_inv
        return gi[0, 0] * px + gi[0, 1] * py, gi[1, 0] * px + gi[1, 1] * py

    def rho(self, px, py):
        """rho = 1 + eps * phi^mu phi_mu; a jet's value is rho of its values, bit for bit."""
        ux, uy = self.raised(px, py)
        return 1.0 + self.eps * (ux * px + uy * py)

    def weights(self, px, py):
        """(w1, w2) = (k1 + eps phi_x^2, k2 + eps phi_y^2)."""
        return self.k1 + self.eps * px * px, self.k2 + self.eps * py * py

    def pde_coefficients(self, px, py):
        """(A, B, C) = (w2, -2 (k0 + eps phi_x phi_y), w1) of the minimal-surface
        equation A phi_xx + B phi_xy + C phi_yy = 0."""
        w1, w2 = self.weights(px, py)
        return w2, -2.0 * (self.k0 + self.eps * px * py), w1


EUCLIDEAN = AmbientMetric(1.0, 1.0, 0.0, 1)
LORENTZIAN = AmbientMetric(1.0, -1.0, 0.0, 1)


@dataclass(frozen=True)
class SurfaceSpec:
    """A graph surface with its ambient data and admissible domain.

    ``phi`` maps coordinate arrays (x, y) to the order-3 jet of the graph
    function evaluated at each point.
    """

    name: str
    phi: Callable[[np.ndarray, np.ndarray], Jet3]
    ambient: AmbientMetric
    domain: tuple  # (x0, x1, y0, y1)
    admissible: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(
        default=lambda x, y: np.ones(np.shape(x), dtype=bool))
    non_minimal: bool = False

    def phi_jet(self, x, y) -> Jet3:
        return self.phi(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def in_domain(self, x, y):
        x0, x1, y0, y1 = self.domain
        return (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)


def plane(a=0.5, b=-0.25, c=1.0) -> SurfaceSpec:
    """Tilted plane phi = a*x + b*y + c in Euclidean ambient."""

    def phi(x, y):
        return a * Jet3.variable("x", x) + b * Jet3.variable("y", y) + c

    return SurfaceSpec("plane", phi, EUCLIDEAN, (-1.0, 1.0, -1.0, 1.0))


def scherk() -> SurfaceSpec:
    """Scherk's surface phi = log(cos y) - log(cos x)."""
    half = np.pi / 2.0 - MARGIN

    def phi(x, y):
        return jets.log(jets.cos(Jet3.variable("y", y))) - jets.log(jets.cos(Jet3.variable("x", x)))

    return SurfaceSpec("scherk", phi, EUCLIDEAN, (-half, half, -half, half))


def helicoid(pitch=1.0) -> SurfaceSpec:
    """Helicoid graph phi = pitch * arctan(y/x) on the half plane x > 0."""

    def phi(x, y):
        return pitch * jets.atan(Jet3.variable("y", y) / Jet3.variable("x", x))

    return SurfaceSpec("helicoid", phi, EUCLIDEAN, (MARGIN, 2.0, -1.5, 1.5))


def catenoid() -> SurfaceSpec:
    """Upper catenoid sheet phi = arccosh(r), r = sqrt(x^2 + y^2) > 1."""
    rmin = 1.0 + MARGIN

    def phi(x, y):
        X, Y = Jet3.variable("x", x), Jet3.variable("y", y)
        r = jets.sqrt(X * X + Y * Y)
        return jets.log(r + jets.sqrt(r * r - 1.0))

    def admissible(x, y):
        return x * x + y * y >= rmin ** 2

    return SurfaceSpec("catenoid", phi, EUCLIDEAN, (1.2, 2.5, -0.8, 0.8), admissible)


def _wave(name, direction, domain):
    """The catalog factory of the travelling wave phi = F(x + direction*y) in
    the Lorentzian ambient, F(u) = sinh(u) or slope * u.

    Every smooth F solves the minimal-surface (Born-Infeld) equation for this
    ambient only when direction = +-1, so a wave's name fixes its direction.
    The admissible strip keeps w2 = F'(u)^2 - 1 bounded away from zero for
    the sinh profile (w2 = sinh(u)^2 vanishes at u = 0).
    """

    def factory(profile="sinh", slope=2.0) -> SurfaceSpec:
        """The wave with F = sinh or, for profile='linear', F(u) = slope * u."""
        if profile not in ("sinh", "linear"):
            raise ValueError(f"unknown wave profile {profile!r}")
        if profile == "sinh" and slope != 2.0:  # the default
            raise ValueError(f"slope applies to the linear profile only, got slope={slope!r} with profile='sinh'")

        def phi(x, y):
            u = Jet3.variable("x", x) + direction * Jet3.variable("y", y)
            return slope * u if profile == "linear" else jets.sinh(u)

        def admissible(x, y):
            return np.abs(x + direction * y) >= 0.5

        return SurfaceSpec(name, phi, LORENTZIAN, domain, admissible)
    return factory


bi_wave = _wave("bi_wave", 1.0, (0.3, 1.3, 0.3, 1.3))
bi_wave_minus = _wave("bi_wave_minus", -1.0, (1.0, 2.0, -0.4, 0.4))


def nonminimal_x2() -> SurfaceSpec:
    """Control surface phi = x^2: not minimal, used as a failing input."""

    def phi(x, y):
        X = Jet3.variable("x", x)
        return X * X + 0.0 * Jet3.variable("y", y)

    return SurfaceSpec("nonminimal_x2", phi, EUCLIDEAN, (-1.0, 1.0, -1.0, 1.0), non_minimal=True)


_FACTORIES = {
    "plane": plane,
    "scherk": scherk,
    "helicoid": helicoid,
    "catenoid": catenoid,
    "bi_wave": bi_wave,
    "bi_wave_minus": bi_wave_minus,
    "nonminimal_x2": nonminimal_x2,
}


def catalog() -> list[SurfaceSpec]:
    """Every catalog surface with its default parameters, in registry order."""
    return [factory() for factory in _FACTORIES.values()]


def get(name: str, params: dict | None = None) -> SurfaceSpec:
    """Look up a catalog surface by name, with optional factory parameters.

    A parameter must be one the factory takes, and a finite number where
    the factory's default is a number; anything else raises ValueError.
    """
    if name not in _FACTORIES:
        raise ValueError(f"unknown surface {name!r} (have: {', '.join(sorted(_FACTORIES))})")
    factory, params = _FACTORIES[name], params or {}
    defaults = {k: p.default for k, p in inspect.signature(factory).parameters.items()}
    for key, val in params.items():
        if key not in defaults:
            have = ", ".join(defaults) or "none"
            raise ValueError(f"surface {name!r} has no parameter {key!r} (have: {have})")
        numeric = isinstance(val, (int, float)) and math.isfinite(val)
        if isinstance(defaults[key], (int, float)) and not numeric:
            raise ValueError(f"parameter {key!r} of surface {name!r} must be a finite number, got {val!r}")
    return factory(**params)


def residual_values(spec: SurfaceSpec, x, y) -> np.ndarray:
    """Minimal-surface residual at each point (arrays in, array out)."""
    f = spec.phi_jet(x, y)
    A, B, C = spec.ambient.pde_coefficients(f.partial(1, 0), f.partial(0, 1))
    return A * f.partial(2, 0) + B * f.partial(1, 1) + C * f.partial(0, 2)

