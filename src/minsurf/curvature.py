"""Generic curvature engine: Christoffel symbols, Ricci tensor and scalar
curvature of a metric known together with its first and second derivatives
along the first two coordinates (all remaining directions are flat by
construction), plus an independent finite-difference Ricci oracle.

Index conventions: R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb}
+ Gamma^a_{ce} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{cb}, Ricci contracted on
the first and third slots.  The round sphere then has positive scalar
curvature (2/a^2), which the test suite pins.

Only x^1 and x^2 carry derivatives, so the derivative index of d g^{-1},
d S and d Gamma runs over those two live directions, giving shapes
(..., 2, dim, dim, dim): the term d_a Gamma^a_{db} sums over a < 2 and
-d_d Gamma^a_{ab} fills only the columns d < 2.  S itself still needs
d g in all dim directions, the dead ones zero, because its derivative
index is contracted with metric indices.  ricci_arrays works through a
batch in blocks of block_points(dim) points, so its temporaries do not
grow with the batch.  Both choices leave every result bit for bit the same:
the plain einsum calls keep their subscripts and summation order, and
tests/test_curvature.py compares against the padded reference engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SingularMetric(ValueError):
    """Metric is not invertible (or numerically indistinguishable from it)."""


@dataclass(frozen=True)
class MetricJet:
    """A metric at one point with derivatives along x^1, x^2.

    components: (dim, dim) symmetric; d1[e] = d_e g; d2[e1, e2] = d_e1 d_e2 g.
    Derivatives along all other coordinate directions vanish.
    """

    dim: int
    components: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    point: tuple = (0.0, 0.0)


@dataclass(frozen=True)
class CurvatureReport:
    christoffel: np.ndarray  # Gamma^a_{bc}, shape (dim, dim, dim)
    ricci: np.ndarray        # R_{ab}, shape (dim, dim)
    scalar: float
    max_abs_ricci: float
    normalized_ricci: float
    point: tuple


#: points per block of the batched Ricci computation at dim 8; bounds its peak memory
RICCI_BLOCK = 512


def block_points(dim):
    """Block size at dim: the (block, 2, dim, dim, dim) temporaries keep their dim-8 size."""
    return max(1, RICCI_BLOCK * 8 ** 3 // dim ** 3)


def _pad(d):
    """Embed derivatives along x^1, x^2 (axis -3) into all dim directions."""
    dim = d.shape[-1]
    full = np.zeros(d.shape[:-3] + (dim, dim, dim))
    full[..., :2, :, :] = d
    return full


def _inverse(comp):
    det = np.linalg.det(comp)
    if not np.all(np.isfinite(det)) or np.any(np.abs(det) < 1e-300):
        raise SingularMetric("metric determinant vanishes")
    return np.linalg.inv(comp)


def _christoffel(gi, dfull):
    """(S, Gamma) with S_{dbc} = d_b g_{dc} + d_c g_{db} - d_d g_{bc} and
    Gamma^a_{bc} = 1/2 g^{ad} S_{dbc}."""
    S = (np.einsum("...bdc->...dbc", dfull) + np.einsum("...cdb->...dbc", dfull) - dfull)
    return S, 0.5 * np.einsum("...ad,...dbc->...abc", gi, S)


def christoffel_arrays(comp, d1):
    """Batched Gamma^a_{bc} = 1/2 g^{ad} (d_b g_{dc} + d_c g_{db} - d_d g_{bc})."""
    return _christoffel(_inverse(comp), _pad(d1))[1]


def _ricci_block(comp, d1, d2):
    """ricci_arrays on one block of points."""
    gi = _inverse(comp)
    dfull = _pad(d1)
    S, gamma = _christoffel(gi, dfull)
    # the derivative index e of dgi, dS and dgamma runs over x^1, x^2 only
    dgi = -np.einsum("...ab,...ebc,...cd->...ead", gi, dfull[..., :2, :, :], gi)
    d2full = _pad(d2)  # d_e d_f g with f over all dim directions
    dS = (np.einsum("...ebdc->...edbc", d2full) + np.einsum("...ecdb->...edbc", d2full) - d2full)
    dgamma = 0.5 * (np.einsum("...ead,...dbc->...eabc", dgi, S)
                    + np.einsum("...ad,...edbc->...eabc", gi, dS))
    # R_{bd} = d_a Gamma^a_{db} - d_d Gamma^a_{ab} + Gamma^a_{ae} Gamma^e_{db}
    #          - Gamma^a_{de} Gamma^e_{ab}; d_a vanishes for a >= 2, so the
    # first term sums over a < 2 and the second fills the columns d < 2
    div_a = np.einsum("...iidb->...bd", dgamma[..., :2, :, :])
    # zeros_like keeps div_a's memory layout, on which the summation
    # order of the scalar's einsum, and so its last bits, depend
    div_d = np.zeros_like(div_a)
    div_d[..., :2] = np.einsum("...diib->...bd", dgamma)
    ricci = (div_a
             - div_d
             + np.einsum("...iie,...edb->...bd", gamma, gamma)
             - np.einsum("...ide,...eib->...bd", gamma, gamma))
    scalar = np.einsum("...bd,...bd->...", gi, ricci)
    batch_axes = tuple(range(-4, 0)), tuple(range(-3, 0))
    denom = (1.0 + np.abs(d2).max(axis=batch_axes[0])
             + np.abs(gamma).max(axis=batch_axes[1]) ** 2)
    return gamma, ricci, scalar, denom


def ricci_arrays(comp, d1, d2):
    """Batched Ricci computation over any leading batch shape.

    comp is (..., dim, dim), d1 (..., 2, dim, dim) and d2 (..., 2, 2, dim, dim).
    Returns (gamma, ricci, scalar, denom) where denom is the conditioning
    scale 1 + max|d2 g| + max|Gamma|^2 used for normalized residuals.
    """
    lead, dim = comp.shape[:-2], comp.shape[-1]
    comp = comp.reshape((-1, dim, dim))
    d1 = d1.reshape((-1, 2, dim, dim))
    d2 = d2.reshape((-1, 2, 2, dim, dim))
    P, step = comp.shape[0], block_points(dim)
    gamma, ricci = np.empty((P, dim, dim, dim)), np.empty((P, dim, dim))
    scalar, denom = np.empty(P), np.empty(P)
    for start in range(0, P, step):
        blk = slice(start, start + step)
        gamma[blk], ricci[blk], scalar[blk], denom[blk] = _ricci_block(comp[blk], d1[blk], d2[blk])
    return tuple(a.reshape(lead + a.shape[1:]) for a in (gamma, ricci, scalar, denom))


def christoffel(m: MetricJet) -> np.ndarray:
    return christoffel_arrays(m.components, m.d1)


def ricci(m: MetricJet) -> CurvatureReport:
    """Full curvature report for one metric point."""
    gamma, ric, scalar, denom = ricci_arrays(m.components, m.d1, m.d2)
    max_abs = float(np.abs(ric).max())
    return CurvatureReport(
        christoffel=gamma,
        ricci=ric,
        scalar=float(scalar),
        max_abs_ricci=max_abs,
        normalized_ricci=max_abs / float(denom),
        point=m.point,
    )


# ---------------------------------------------------------------------------
# built-in test metrics with textbook curvature
# ---------------------------------------------------------------------------

def flat_metric(p, signs=(1, 1)) -> MetricJet:
    """Constant diagonal metric; identically zero curvature."""
    dim = len(signs)
    return MetricJet(dim, np.diag(np.asarray(signs, dtype=float)),
                     np.zeros((2, dim, dim)), np.zeros((2, 2, dim, dim)), tuple(p))


def polar_metric(p) -> MetricJet:
    """diag(1, x^2): flat plane in polar form, x playing the radius."""
    x, _ = p
    comp = np.diag([1.0, x ** 2])
    d1 = np.zeros((2, 2, 2))
    d1[0, 1, 1] = 2.0 * x
    d2 = np.zeros((2, 2, 2, 2))
    d2[0, 0, 1, 1] = 2.0
    return MetricJet(2, comp, d1, d2, tuple(p))


def sphere_metric(p, a=1.0) -> MetricJet:
    """diag(a^2, a^2 sin^2 x): round sphere of radius a; scalar 2/a^2."""
    x, _ = p
    comp = np.diag([a ** 2, (a * np.sin(x)) ** 2])
    d1 = np.zeros((2, 2, 2))
    d1[0, 1, 1] = a ** 2 * np.sin(2.0 * x)
    d2 = np.zeros((2, 2, 2, 2))
    d2[0, 0, 1, 1] = 2.0 * a ** 2 * np.cos(2.0 * x)
    return MetricJet(2, comp, d1, d2, tuple(p))


def ricci_fd(metric_field, p, step: float) -> np.ndarray:
    """Independent Ricci oracle: second-order central differences of the
    metric components, fed through the same tensor algebra.

    ``p = (x, y)`` holds scalars or equal-shape coordinate arrays, and
    ``metric_field(x, y)`` must return the component matrices with shape
    ``shape(x) + (dim, dim)``; the metric may depend on the first two
    coordinates only.  The field is evaluated once per stencil offset.
    """
    x, y = p
    s = float(step)
    g = {(dx, dy): np.asarray(metric_field(x + dx, y + dy), dtype=float)
         for dx in (-s, 0.0, s) for dy in (-s, 0.0, s)}
    g0 = g[0.0, 0.0]
    d1 = np.stack([(g[s, 0.0] - g[-s, 0.0]) / (2 * s),
                   (g[0.0, s] - g[0.0, -s]) / (2 * s)], axis=-3)
    dxx = (g[s, 0.0] - 2 * g0 + g[-s, 0.0]) / s ** 2
    dyy = (g[0.0, s] - 2 * g0 + g[0.0, -s]) / s ** 2
    dxy = (g[s, s] - g[s, -s] - g[-s, s] + g[-s, -s]) / (4 * s ** 2)
    d2 = np.stack([np.stack([dxx, dxy], axis=-3), np.stack([dxy, dyy], axis=-3)], axis=-4)
    _, ric, _, _ = ricci_arrays(g0, d1, d2)
    return ric
