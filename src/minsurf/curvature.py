"""Generic curvature engine: Christoffel symbols, Ricci tensor and scalar
curvature of a metric known together with its first and second derivatives
along the first two coordinates (all remaining directions are flat by
construction), plus an independent finite-difference Ricci oracle.

A metric with derivatives is one format throughout: the arrays (comp, d1,
d2) of shapes (..., dim, dim), (..., 2, dim, dim) and (..., 2, 2, dim, dim)
that ``assembly.assemble_arrays`` and the built-in test metrics return and
``christoffel_arrays`` and ``ricci_arrays`` read.

``central_differences`` is the one 9-point stencil of the oracle and the
solver; ``metric_eigenvalues`` is the one singularity rule.

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

import numpy as np


class SingularMetric(ValueError):
    """Metric is not invertible (or numerically indistinguishable from it)."""


#: smallest |eigenvalue| / largest of a regular metric.  Past a condition
#: number of 1e10, g^{-1} may carry a relative error of 1e10 * 2.2e-16 =
#: 2.2e-6, more than the 1e-7 Ricci tolerance can resolve; the acceptance
#: sweep's worst ratio, 2.8e-8, keeps a factor of 280 above it
SINGULAR_RCOND = 1e-10

#: points per block of the batched Ricci computation at dim 8, small enough that
#: its temporaries stay in the heap: 4 MiB blocks of 512 were faulted in again on
#: every call (38k minor faults per 5000 points); 64 takes ~600 and 15% less time
RICCI_BLOCK = 64


def block_points(dim):
    """Block size at dim: the (block, 2, dim, dim, dim) temporaries keep their dim-8 size."""
    return max(1, RICCI_BLOCK * 8 ** 3 // dim ** 3)


def _pad(d):
    """Embed derivatives along x^1, x^2 (axis -3) into all dim directions."""
    dim = d.shape[-1]
    full = np.zeros(d.shape[:-3] + (dim, dim, dim))
    full[..., :2, :, :] = d
    return full


def metric_eigenvalues(comp):
    """Eigenvalues of the symmetric metrics comp (..., dim, dim), ascending.

    Raises SingularMetric when any metric is singular: an entry or an
    eigenvalue is not finite, or min|lambda| <= SINGULAR_RCOND max|lambda|.
    The rule is scale-free, so c g is singular exactly when g is.
    """
    ev = np.linalg.eigvalsh(comp)
    size = np.abs(ev)
    if (not (np.all(np.isfinite(comp)) and np.all(np.isfinite(ev)))
            or np.any(size.min(axis=-1) <= SINGULAR_RCOND * size.max(axis=-1))):
        raise SingularMetric("metric is singular: smallest |eigenvalue| vanishes next to the largest")
    return ev


def _inverse(comp):
    metric_eigenvalues(comp)
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
    return ricci, scalar, denom


def ricci_arrays(comp, d1, d2):
    """Batched Ricci computation over any leading batch shape.

    comp is (..., dim, dim), d1 (..., 2, dim, dim) and d2 (..., 2, 2, dim, dim).
    Returns (ricci, scalar, denom) where denom is the conditioning scale
    1 + max|d2 g| + max|Gamma|^2 used for normalized residuals; Gamma
    itself comes from christoffel_arrays.
    """
    lead, dim = comp.shape[:-2], comp.shape[-1]
    comp = comp.reshape((-1, dim, dim))
    d1 = d1.reshape((-1, 2, dim, dim))
    d2 = d2.reshape((-1, 2, 2, dim, dim))
    P, step = comp.shape[0], block_points(dim)
    ricci, scalar, denom = np.empty((P, dim, dim)), np.empty(P), np.empty(P)
    for start in range(0, P, step):
        blk = slice(start, start + step)
        ricci[blk], scalar[blk], denom[blk] = _ricci_block(comp[blk], d1[blk], d2[blk])
    return tuple(a.reshape(lead + a.shape[1:]) for a in (ricci, scalar, denom))


# ---------------------------------------------------------------------------
# built-in test metrics with textbook curvature
# ---------------------------------------------------------------------------

def flat_metric(p, signs=(1, 1)):
    """Constant diagonal metric, the same at every p; identically zero curvature."""
    dim = len(signs)
    return (np.diag(np.asarray(signs, dtype=float)),
            np.zeros((2, dim, dim)), np.zeros((2, 2, dim, dim)))


def polar_metric(p):
    """diag(1, x^2): flat plane in polar form, x playing the radius."""
    x, _ = p
    comp = np.diag([1.0, x ** 2])
    d1 = np.zeros((2, 2, 2))
    d1[0, 1, 1] = 2.0 * x
    d2 = np.zeros((2, 2, 2, 2))
    d2[0, 0, 1, 1] = 2.0
    return comp, d1, d2


def sphere_metric(p, a=1.0):
    """diag(a^2, a^2 sin^2 x): round sphere of radius a; scalar 2/a^2."""
    x, _ = p
    comp = np.diag([a ** 2, (a * np.sin(x)) ** 2])
    d1 = np.zeros((2, 2, 2))
    d1[0, 1, 1] = a ** 2 * np.sin(2.0 * x)
    d2 = np.zeros((2, 2, 2, 2))
    d2[0, 0, 1, 1] = 2.0 * a ** 2 * np.cos(2.0 * x)
    return comp, d1, d2


def central_differences(at, hx, hy):
    """(D_x, D_y, D_xx, D_yy, D_xy) by second-order central differences,
    where ``at(i, j)`` is the field shifted by (i hx, j hy), i, j in {-1, 0, 1}."""
    return ((at(1, 0) - at(-1, 0)) / (2 * hx),
            (at(0, 1) - at(0, -1)) / (2 * hy),
            (at(1, 0) - 2 * at(0, 0) + at(-1, 0)) / hx ** 2,
            (at(0, 1) - 2 * at(0, 0) + at(0, -1)) / hy ** 2,
            (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4 * hx * hy))


def ricci_fd(metric_field, p, step: float) -> np.ndarray:
    """Independent Ricci oracle: ``central_differences`` of the metric
    components at spacing ``step``, fed through the same tensor algebra.

    ``p = (x, y)`` holds scalars or equal-shape coordinate arrays.  The
    field is called once, on all nine stencil points: ``metric_field(X, Y)``
    gets X[i + 1, j + 1] = x + i step and Y[i + 1, j + 1] = y + j step, of
    shape (3, 3) + shape(x), and returns the components, shape(X) + (dim, dim);
    the metric may depend on the first two coordinates only.
    """
    x, y = (np.asarray(c, dtype=float) for c in p)
    s = float(step)
    off = np.arange(-1, 2) * s
    ox, oy = (o[(...,) + (None,) * x.ndim] for o in np.meshgrid(off, off, indexing="ij"))
    g = np.asarray(metric_field(x + ox, y + oy), dtype=float)
    gx, gy, gxx, gyy, gxy = central_differences(lambda i, j: g[i + 1, j + 1], s, s)
    d1 = np.stack([gx, gy], axis=-3)
    d2 = np.stack([np.stack([gxx, gxy], axis=-3), np.stack([gxy, gyy], axis=-3)], axis=-4)
    return ricci_arrays(g[1, 1], d1, d2)[0]
