"""Pointwise geometry of a graph surface and its conformal partner.

From the order-3 jet of phi this module builds every 2-surface quantity:
the induced metric h, rho, the conformal metric g = h / sqrt(rho), the
Ricci tensor r of h, the curvatures K and H, the weights w1, w2 and their
duals xi1, xi2, and psi0 = -(1/4) log rho.  On top of those it evaluates
the full identity suite (17 named checks) whose simultaneous vanishing on
minimal surfaces is what the Ricci-flat construction rests on.

``SurfaceFrame`` is the one owner of these quantities for a batch of
points: built from the ambient metric and phi's jet alone, it holds the
jets and computes the shared plain arrays once, and the identity suite and
assembly take them from it.  ``frame_at`` is the screened entry point: it
checks that every point is admissible, evaluates phi and builds the frame;
a single point is a batch of one, and callers read its fields (``K``,
``H``, ``r``, ``lambda0``, ...) at index 0.

All divergence- and Laplacian-type checks are evaluated by jet propagation
of the bracketed expressions, never by numerical differentiation; the
finite-difference oracle lives in the tests.

Residuals are reported raw and normalized by the largest magnitude among
the terms that enter them (floored at 1); pass/fail decisions use the
normalized value so that steep surface regions keep a meaningful scale.

Checks that take logarithms of w1, w2 or xi1, xi2 are masked rather than
split: they run over the whole batch, with each invalid log base replaced
by 1, and report NaN (invalid) at the points where a base is not positive.
No sub-frame is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .curvature import SingularMetric, engine_arrays, ricci_arrays
from .jets import DomainError, Jet3, deriv
from .surfaces import AmbientMetric, InadmissiblePoint, SurfaceSpec

#: names of every identity check, in reporting order
CHECK_NAMES = ("P1", "C1", "C2a", "C2b", "P2a", "P2b", "P3a", "P3b", "P3c",
               "P4a", "P4b", "P4c", "MU", "CC1", "XW", "P5", "PHI-H")


@dataclass(frozen=True)
class CheckConstants:
    """Arbitrary constants entering the auxiliary-function identities."""

    a0: float = 1.0
    a1: float = 1.0
    a2: float = 1.0
    b1: float = 1.0
    b2: float = -1.0


class SurfaceFrame:
    """Batched jet workspace for a surface at an array of sample points,
    from the ambient metric and the order-3 jet of phi at those points.

    It also owns the plain arrays that the identity suite and assembly
    share, each computed once here: the values of h and h^{-1}, g's engine
    arrays, the Hessian of phi, lambda0, K, H and r.  Callers must have
    screened the points already (``frame_at`` does); rho <= 0 raises
    DomainError.
    """

    def __init__(self, ambient: AmbientMetric, phi: Jet3):
        self.ambient = amb = ambient
        self.phi = f = phi
        self.p = [deriv(f, 0), deriv(f, 1)]  # jets of phi_{,mu}, valid to order 2
        up = amb.raised(*self.p)  # phi^mu
        self.rho = amb.rho(*self.p)
        if np.any(self.rho.value <= 0.0):
            raise DomainError("rho <= 0 in SurfaceFrame")
        self.log_rho = jets.log(self.rho)
        self.sr = jets.sqrt(self.rho)
        g0, gi = amb.g0, amb.g0_inv
        eps_p = [amb.eps * q for q in self.p]
        self.h = [[g0[m, n] + eps_p[m] * self.p[n] for n in range(2)] for m in range(2)]
        eps_rho = amb.eps / self.rho
        eps_up = [eps_rho * u for u in up]
        self.h_inv = [[gi[m, n] - eps_up[m] * up[n] for n in range(2)] for m in range(2)]
        inv_sr = jets.powr(self.sr, -1)
        self.g = [[self.h[m][n] * inv_sr for n in range(2)] for m in range(2)]
        self.sqrt_det_g, self.g_inv = _inverse(self.g)
        self.w = (self.h[0][0], self.h[1][1])  # w1 = k1 + eps phi_x^2, w2 = k2 + eps phi_y^2
        self.xi = [self.g_inv[0][0], self.g_inv[1][1]]
        self.psi0 = -0.25 * self.log_rho

        # plain arrays shared by the identity suite and assembly
        self.g_arrays = matrix_jets_to_arrays(self.g)  # (comp, d1, d2) for the Ricci engine
        self.h_values, self.h_inv_values = _grab(self.h, 0, 0), _grab(self.h_inv, 0, 0)
        self.hess = np.stack([np.stack([f.partial(2, 0), f.partial(1, 1)], axis=-1),
                              np.stack([f.partial(1, 1), f.partial(0, 2)], axis=-1)], axis=-2)
        rho = self.rho.value
        M = np.einsum("mk,...kn->...mn", gi, self.hess)
        # phi^a_a and phi_{,ma} g0^{ab} phi_{,bn}, which r and C1 share
        self.trace_hess = np.einsum("...mm->...", M)
        self.hess_sq = np.einsum("...ma,ab,...bn->...mn", self.hess, gi, self.hess)
        trM2 = np.einsum("...mk,...km->...", M, M)
        self.lambda0 = 0.5 * (trM2 - self.trace_hess ** 2)
        self.K = (amb.eps / rho ** 2) * (self.trace_hess ** 2 - trM2)
        lap_h_phi = np.einsum("...mn,...mn->...", self.h_inv_values, self.hess)
        self.H = lap_h_phi / np.sqrt(rho)
        drho = np.stack([self.rho.partial(1, 0), self.rho.partial(0, 1)], axis=-1)
        c = (amb.eps / rho)[..., None, None]
        self.r = (c * lap_h_phi[..., None, None] * self.hess - c * self.hess_sq
                  + (0.25 / rho ** 2)[..., None, None] * np.einsum("...m,...n->...mn", drho, drho))


def _grab(m, i, j):
    """Partial d^i_x d^j_y of a 2x2 matrix of jets, shape (..., 2, 2)."""
    return np.stack([np.stack([m[0][0].partial(i, j), m[0][1].partial(i, j)], axis=-1),
                     np.stack([m[1][0].partial(i, j), m[1][1].partial(i, j)], axis=-1)], axis=-2)


def matrix_jets_to_arrays(m):
    """Convert a 2x2 matrix of jets into (comp, d1, d2) engine arrays."""
    return engine_arrays(*(_grab(m, i, j) for i, j in ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1))))


def _inverse(m):
    """(sqrt|det|, inverse) of a symmetric 2x2 matrix of jets."""
    det = m[0][0] * m[1][1] - m[0][1] * m[0][1]
    if np.any(det.value == 0.0):
        raise SingularMetric("metric determinant vanishes")
    inv_det = jets.powr(det, -1)
    return jets.sqrt(det * np.sign(det.value)), [[m[1][1] * inv_det, -m[0][1] * inv_det],
                                                 [-m[0][1] * inv_det, m[0][0] * inv_det]]


def _divergence(flux):
    """(d_a flux^a, max_a |d_a flux^a|) of a jet vector field, as value arrays."""
    terms = np.stack([flux[0].partial(1, 0), flux[1].partial(0, 1)])
    return terms.sum(axis=0), np.abs(terms).max(axis=0)


def _laplace_terms(s, inv, f: Jet3):
    """(value, term scale) of the Laplace-Beltrami |det|^{-1/2} d_a(|det|^{1/2}
    m^{ab} d_b f) for a jet metric m given as (s = |det|^{1/2}, m^{-1})."""
    df = [deriv(f, 0), deriv(f, 1)]
    div, scale = _divergence([s * (inv[a][0] * df[0] + inv[a][1] * df[1]) for a in range(2)])
    return div / s.value, scale / np.abs(s.value)


def frame_at(spec: SurfaceSpec, p) -> SurfaceFrame:
    """The frame at p = (x, y), scalars or equal-shape arrays, once every
    point is in the surface's domain and admissible set (InadmissiblePoint
    otherwise, for the whole batch)."""
    x, y = (np.atleast_1d(np.asarray(c, dtype=float)) for c in p)
    bad = ~(spec.in_domain(x, y) & spec.admissible(x, y))
    if np.any(bad):
        raise InadmissiblePoint(
            "point ({:g}, {:g}) is outside the domain or admissible set of {}; its domain is x in "
            "[{:g}, {:g}], y in [{:g}, {:g}]".format(x[bad][0], y[bad][0], spec.name, *spec.domain))
    return SurfaceFrame(spec.ambient, spec.phi_jet(x, y))


# ---------------------------------------------------------------------------
# batched identity suite
# ---------------------------------------------------------------------------

@dataclass
class BatchCheck:
    """Per-point residuals of one identity over a frame's batch."""

    raw: np.ndarray
    normalized: np.ndarray
    valid: np.ndarray

    @classmethod
    def dense(cls, raw, scale):
        raw = np.abs(np.asarray(raw))
        normalized = raw / np.maximum(1.0, scale)
        return cls(raw, normalized, np.ones(raw.shape, dtype=bool))

    @classmethod
    def masked(cls, raw, scale, valid):
        """Like ``dense``, with NaN written where a point is invalid."""
        out = cls.dense(raw, scale)
        return cls(np.where(valid, out.raw, np.nan), np.where(valid, out.normalized, np.nan), valid)


def _abs_max(*arrays):
    return np.max(np.stack([np.abs(np.asarray(a)) for a in arrays]), axis=0)


def _tensor_check(*terms, rank=2):
    """BatchCheck of sum(terms) = 0 for tensors of the given rank: per point, the
    max over the tensor axes of |sum| and of the elementwise largest |term|."""
    axes = tuple(range(-rank, 0))
    return BatchCheck.dense(np.abs(sum(terms[1:], terms[0])).max(axis=axes),
                            _abs_max(*terms).max(axis=axes))


def _masked_log(j: Jet3, ok) -> Jet3:
    """log of a jet whose base is replaced by 1 wherever ``ok`` is False."""
    return jets.log(Jet3(np.where(ok, j.c, 1.0)))


def run_identity_checks(fr: SurfaceFrame, consts: CheckConstants) -> dict:
    """Evaluate all identity checks over the frame's point batch."""
    amb = fr.ambient
    eps, g0, D = amb.eps, amb.g0, amb.det
    rho, sr = fr.rho.value, fr.sr.value
    hess, lambda0, K, r = fr.hess, fr.lambda0, fr.K, fr.r
    R_ab, R, _ = ricci_arrays(*fr.g_arrays)  # the conformal metric's Ricci tensor and scalar
    s, ginv = fr.sqrt_det_g, fr.g_inv  # the conformal metric g, for every Laplacian
    checks = {}

    # P1: 2D Hessian pair identity (all 16 index combinations)
    A = np.einsum("...am,...bg->...ambg", hess, hess)
    B = np.einsum("...ab,...mg->...ambg", hess, hess)
    C = lambda0[..., None, None, None, None] * (np.einsum("am,bg->ambg", g0, g0)
                                                - np.einsum("ab,gm->ambg", g0, g0))
    checks["P1"] = _tensor_check(A, -B, C, rank=4)

    # C1: phi^a_m phi_{,a n} - phi^a_a phi_{,m n} = lambda0 g0
    checks["C1"] = _tensor_check(fr.hess_sq, -fr.trace_hess[..., None, None] * hess,
                                 -lambda0[..., None, None] * g0)

    # C2a: r = (K/2) h ; C2b: lambda0 = -(eps/2) rho^2 K
    checks["C2a"] = _tensor_check(r, -0.5 * K[..., None, None] * fr.h_values)
    T = 0.5 * eps * rho ** 2 * K
    checks["C2b"] = BatchCheck.dense(lambda0 + T, _abs_max(lambda0, T))

    # P2a/P2b: conservation of the weighted gradient and of the weighted
    # inverse metric on minimal graphs, by jet propagation
    checks["P2a"] = BatchCheck.dense(*_divergence(
        [fr.sr * (fr.h_inv[a][0] * fr.p[0] + fr.h_inv[a][1] * fr.p[1]) for a in range(2)]))
    raws, scales = zip(*(_divergence([fr.sr * fr.h_inv[a][b] for a in range(2)]) for b in range(2)))
    checks["P2b"] = BatchCheck.dense(np.max(np.abs(raws), axis=0), np.max(scales, axis=0))

    # P3a: R + (1/4) g^{ab} tr[d_a g^{-1} d_b g], the scalar condition
    # defining the admissible 2-metric class
    ginv_v, dginv, _ = matrix_jets_to_arrays(ginv)
    trterm = 0.25 * np.einsum("...ab,...aij,...bji->...", ginv_v, dginv, fr.g_arrays[1])
    checks["P3a"] = BatchCheck.dense(R + trterm, _abs_max(R, trterm))

    # P3b: R_ab = -((rho-1)/2) r_ab
    checks["P3b"] = _tensor_check(R_ab, 0.5 * (rho - 1.0)[..., None, None] * r)

    # P3c: R = sqrt(rho) r - 2 lap_g psi0 (trace of the conformal relation)
    r_scalar = np.einsum("...mn,...mn->...", fr.h_inv_values, r)
    lap_psi0, lap_psi0_scale = _laplace_terms(s, ginv, fr.psi0)
    checks["P3c"] = BatchCheck.dense(R - sr * r_scalar + 2.0 * lap_psi0,
                                     _abs_max(R, sr * r_scalar, 2.0 * lap_psi0_scale))

    # P4a: lap_g zeta - a0 R + a0 sqrt(rho) K, zeta = (a0/2) log rho
    a0, a1, a2, b1, b2 = consts.a0, consts.a1, consts.a2, consts.b1, consts.b2
    zeta = (a0 / 2.0) * fr.log_rho
    lap_zeta, lz_scale = _laplace_terms(s, ginv, zeta)
    checks["P4a"] = BatchCheck.dense(lap_zeta - a0 * R + a0 * sr * K,
                                     _abs_max(lz_scale, a0 * R, a0 * sr * K))

    # P4b and the psi1 branch of CC1 need xi1, xi2 > 0; P4c, MU and the mu
    # branch need w1, w2 > 0 (Lorentzian ambients can violate either).
    xi_ok = (fr.xi[0].value > 0.0) & (fr.xi[1].value > 0.0)
    w_ok = (fr.w[0].value > 0.0) & (fr.w[1].value > 0.0)

    psi1 = a1 * _masked_log(fr.xi[0], xi_ok) + a2 * _masked_log(fr.xi[1], xi_ok)
    lap, lap_scale = _laplace_terms(s, ginv, psi1)
    checks["P4b"] = BatchCheck.masked(lap - (a1 + a2) * R, _abs_max(lap_scale, (a1 + a2) * R), xi_ok)
    cc1_psi1 = BatchCheck.masked(lap + (a1 + a2) * trterm,
                                 _abs_max(lap_scale, (a1 + a2) * trterm), xi_ok)

    psi2 = b1 * _masked_log(fr.w[0], w_ok) + b2 * _masked_log(fr.w[1], w_ok)
    lap2, lap2_scale = _laplace_terms(s, ginv, psi2)
    checks["P4c"] = BatchCheck.masked(
        lap2 - 2.0 * (b1 + b2) * R + (b1 + b2) * sr * K,
        _abs_max(lap2_scale, 2.0 * (b1 + b2) * R, (b1 + b2) * sr * K), w_ok)
    # mu = (b1+b2) zeta - a0 psi2 satisfies lap_g mu = -a0 (b1+b2) R
    mu = (b1 + b2) * (a0 / 2.0) * fr.log_rho - a0 * psi2
    lap_mu, lap_mu_scale = _laplace_terms(s, ginv, mu)
    checks["MU"] = BatchCheck.masked(lap_mu + a0 * (b1 + b2) * R,
                                     _abs_max(lap_mu_scale, a0 * (b1 + b2) * R), w_ok)
    cc1_mu = BatchCheck.masked(lap_mu + (-a0 * (b1 + b2)) * trterm,
                               _abs_max(lap_mu_scale, a0 * (b1 + b2) * trterm), w_ok)

    # CC1 holds for either sigma branch; report the worse available one
    checks["CC1"] = BatchCheck(np.fmax(cc1_psi1.raw, cc1_mu.raw),
                               np.fmax(cc1_psi1.normalized, cc1_mu.normalized),
                               cc1_psi1.valid | cc1_mu.valid)

    # XW: xi1 = w2 / (det g0 sqrt(rho)) and xi2 = w1 / (...)
    t1 = fr.w[1].value / (D * sr)
    t2 = fr.w[0].value / (D * sr)
    raw = np.maximum(np.abs(fr.xi[0].value - t1), np.abs(fr.xi[1].value - t2))
    checks["XW"] = BatchCheck.dense(raw, _abs_max(fr.xi[0].value, t1, fr.xi[1].value, t2))

    # P5: sigma-model equation d_a [g^{ab} g^{-1} d_b g] = 0, the matrix
    # condition defining the admissible 2-metric class
    dgmat = [[[deriv(fr.g[i][j], e) for j in range(2)] for i in range(2)] for e in range(2)]
    inner = [[[ginv[i][0] * dgmat[b][0][j] + ginv[i][1] * dgmat[b][1][j] for b in range(2)]
              for j in range(2)] for i in range(2)]
    raws, scales = zip(*(_divergence([ginv[a][0] * v[0] + ginv[a][1] * v[1] for a in range(2)])
                         for row in inner for v in row))
    checks["P5"] = BatchCheck.dense(np.max(np.abs(raws), axis=0), np.max(scales, axis=0))

    # PHI-H: phi itself is g-harmonic on minimal surfaces
    lap_phi, lap_phi_scale = _laplace_terms(s, ginv, fr.phi)
    checks["PHI-H"] = BatchCheck.dense(lap_phi, lap_phi_scale)

    return checks
