"""Pointwise geometry of a graph surface and its conformal partner.

From the order-3 jet of phi this module builds every 2-surface quantity:
the induced metric h, rho, the conformal metric g = h / sqrt(rho), the
Ricci tensor r of h, the curvatures K and H, the weights w1, w2 and their
duals xi1, xi2, and psi0 = -(1/4) log rho.  On top of those it evaluates
the full identity suite (17 named checks) whose simultaneous vanishing on
minimal surfaces is what the Ricci-flat construction rests on.

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
from .curvature import SingularMetric, ricci_arrays
from .jets import DomainError, Jet3, deriv
from .surfaces import SurfaceSpec, _as_batch, _require_admissible

#: names of every identity check, in reporting order
CHECK_NAMES = ("P1", "C1", "C2a", "C2b", "P2a", "P2b", "P3a", "P3b", "P3c",
               "P4a", "P4b", "P4c", "MU", "CC1", "XW", "P5", "PHI-H")

SKIP_LOG_DOMAIN = "LOG_DOMAIN"


@dataclass(frozen=True)
class CheckConstants:
    """Arbitrary constants entering the auxiliary-function identities."""

    a0: float = 1.0
    a1: float = 1.0
    a2: float = 1.0
    b1: float = 1.0
    b2: float = -1.0


@dataclass(frozen=True)
class CheckResult:
    normalized: float | None
    raw: float | None
    skipped: str | None = None


@dataclass(frozen=True)
class TwoMetricSample:
    """All 2-surface quantities at one point."""

    h: np.ndarray
    rho: float
    h_inv: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    r: np.ndarray
    K: float
    H: float
    lambda0: float
    xi1: float
    xi2: float
    w1: float
    w2: float
    psi0: float


class SurfaceFrame:
    """Batched jet workspace for a surface at an array of sample points.

    Callers must have screened the points already: admissible and rho > 0.
    """

    def __init__(self, spec: SurfaceSpec, x, y):
        amb = spec.ambient
        self.spec = spec
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.g0 = amb.g0
        self.g0_inv = amb.g0_inv
        self.det_g0 = amb.det
        self.eps = amb.eps

        f = spec.phi_jet(self.x, self.y)
        self.phi = f
        self.p = [deriv(f, 0), deriv(f, 1)]  # jets of phi_{,mu}, valid to order 2
        gi = self.g0_inv
        self.up = [gi[m, 0] * self.p[0] + gi[m, 1] * self.p[1] for m in range(2)]  # phi^mu
        self.rho = 1.0 + amb.eps * (self.up[0] * self.p[0] + self.up[1] * self.p[1])
        if np.any(self.rho.value <= 0.0):
            raise DomainError("rho <= 0 in SurfaceFrame")
        self.log_rho = jets.log(self.rho)
        self.sr = jets.sqrt(self.rho)
        self.h = [[self.g0[m, n] + amb.eps * self.p[m] * self.p[n] for n in range(2)] for m in range(2)]
        self.h_inv = [[gi[m, n] - (amb.eps / self.rho) * self.up[m] * self.up[n] for n in range(2)] for m in range(2)]
        inv_sr = jets.powr(self.sr, -1)
        self.g = [[self.h[m][n] * inv_sr for n in range(2)] for m in range(2)]
        self.sqrt_det_g, self.g_inv = _inverse(self.g)
        self.w = amb.weights(self.p[0], self.p[1])
        self.xi = [self.g_inv[0][0], self.g_inv[1][1]]
        self.psi0 = -0.25 * self.log_rho

    # -- plain-array views ----------------------------------------------

    def hessian(self):
        """phi_{,mu nu} values, shape (P, 2, 2)."""
        f = self.phi
        return np.stack([np.stack([f.partial(2, 0), f.partial(1, 1)], axis=-1),
                         np.stack([f.partial(1, 1), f.partial(0, 2)], axis=-1)], axis=-2)

    def matrix_values(self, m):
        return _grab(m, 0, 0)

    def curvature_quantities(self):
        """(lambda0, K, H, r, lap_h_phi) as plain arrays."""
        hess = self.hessian()
        rho = self.rho.value
        M = np.einsum("mk,...kn->...mn", self.g0_inv, hess)
        trM = np.einsum("...mm->...", M)
        trM2 = np.einsum("...mk,...km->...", M, M)
        lambda0 = 0.5 * (trM2 - trM ** 2)
        K = (self.eps / rho ** 2) * (trM ** 2 - trM2)
        hinv_v = self.matrix_values(self.h_inv)
        lap_h_phi = np.einsum("...mn,...mn->...", hinv_v, hess)
        H = lap_h_phi / np.sqrt(rho)
        drho = np.stack([self.rho.partial(1, 0), self.rho.partial(0, 1)], axis=-1)
        r = ((self.eps / rho)[..., None, None] * lap_h_phi[..., None, None] * hess
             - (self.eps / rho)[..., None, None] * np.einsum("...ma,ab,...bn->...mn", hess, self.g0_inv, hess)
             + (0.25 / rho ** 2)[..., None, None] * np.einsum("...m,...n->...mn", drho, drho))
        return lambda0, K, H, r, lap_h_phi

    def conformal_curvature(self):
        """Ricci tensor and scalar of g from the generic curvature engine."""
        comp, d1, d2 = matrix_jets_to_arrays(self.g)
        _, ric, scal, _ = ricci_arrays(comp, d1, d2)
        return ric, scal


def _grab(m, i, j):
    """Partial d^i_x d^j_y of a 2x2 matrix of jets, shape (..., 2, 2)."""
    return np.stack([np.stack([m[0][0].partial(i, j), m[0][1].partial(i, j)], axis=-1),
                     np.stack([m[1][0].partial(i, j), m[1][1].partial(i, j)], axis=-1)], axis=-2)


def matrix_jets_to_arrays(m):
    """Convert a 2x2 matrix of jets into (comp, d1, d2) engine arrays."""
    comp = _grab(m, 0, 0)
    d1 = np.stack([_grab(m, 1, 0), _grab(m, 0, 1)], axis=-3)
    d2 = np.stack([np.stack([_grab(m, 2, 0), _grab(m, 1, 1)], axis=-3),
                   np.stack([_grab(m, 1, 1), _grab(m, 0, 2)], axis=-3)], axis=-4)
    return comp, d1, d2


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


def laplace_beltrami(metric, f: Jet3):
    """Laplace-Beltrami of f w.r.t. a 2x2 jet metric (value array)."""
    return _laplace_terms(*_inverse(metric), f)[0]


# ---------------------------------------------------------------------------
# public single-point operations
# ---------------------------------------------------------------------------

def _frame_at(spec: SurfaceSpec, p) -> SurfaceFrame:
    x, y = _as_batch(p)
    _require_admissible(spec, x, y)
    return SurfaceFrame(spec, x, y)


def sample(spec: SurfaceSpec, p) -> TwoMetricSample:
    """Every 2-surface quantity at one admissible point."""
    fr = _frame_at(spec, p)
    lambda0, K, H, r, _ = fr.curvature_quantities()
    return TwoMetricSample(
        h=fr.matrix_values(fr.h)[0],
        rho=float(fr.rho.value[0]),
        h_inv=fr.matrix_values(fr.h_inv)[0],
        g=fr.matrix_values(fr.g)[0],
        g_inv=fr.matrix_values(fr.g_inv)[0],
        r=r[0],
        K=float(K[0]),
        H=float(H[0]),
        lambda0=float(lambda0[0]),
        xi1=float(fr.xi[0].value[0]),
        xi2=float(fr.xi[1].value[0]),
        w1=float(fr.w[0].value[0]),
        w2=float(fr.w[1].value[0]),
        psi0=float(fr.psi0.value[0]),
    )


def gaussian_K(spec: SurfaceSpec, p) -> float:
    return float(_frame_at(spec, p).curvature_quantities()[1][0])


def mean_curvature(spec: SurfaceSpec, p) -> float:
    """H = rho^{-1/2} h^{mu nu} phi_{,mu nu}; zero exactly on minimal graphs."""
    return float(_frame_at(spec, p).curvature_quantities()[2][0])


def ricci_two(spec: SurfaceSpec, p) -> np.ndarray:
    """Ricci tensor of the induced metric h at p."""
    return _frame_at(spec, p).curvature_quantities()[3][0]


def check_identities(spec: SurfaceSpec, p, consts: CheckConstants | None = None) -> dict:
    """Residuals of the full identity suite at one point.

    Checks whose logarithms are undefined at p (non-positive w or xi) come
    back skipped rather than failed.
    """
    fr = _frame_at(spec, p)
    batch = run_identity_checks(fr, consts or CheckConstants())
    out = {}
    for name in CHECK_NAMES:
        res = batch[name]
        if not bool(res.valid[0]):
            out[name] = CheckResult(None, None, skipped=SKIP_LOG_DOMAIN)
        else:
            out[name] = CheckResult(float(res.normalized[0]), float(res.raw[0]))
    return out


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


def _masked_log(j: Jet3, ok) -> Jet3:
    """log of a jet whose base is replaced by 1 wherever ``ok`` is False."""
    return jets.log(Jet3(np.where(ok, j.c, 1.0)))


def run_identity_checks(fr: SurfaceFrame, consts: CheckConstants) -> dict:
    """Evaluate all identity checks over the frame's point batch."""
    eps, g0, g0i, D = fr.eps, fr.g0, fr.g0_inv, fr.det_g0
    rho, sr = fr.rho.value, fr.sr.value
    hess = fr.hessian()
    hv = fr.matrix_values(fr.h)
    hinv_v = fr.matrix_values(fr.h_inv)
    lambda0, K, _H, r, _ = fr.curvature_quantities()
    R_ab, R = fr.conformal_curvature()
    s, ginv = fr.sqrt_det_g, fr.g_inv  # the conformal metric g, for every Laplacian
    checks = {}

    # P1: 2D Hessian pair identity (all 16 index combinations)
    A = np.einsum("...am,...bg->...ambg", hess, hess)
    B = np.einsum("...ab,...mg->...ambg", hess, hess)
    C = lambda0[..., None, None, None, None] * (np.einsum("am,bg->ambg", g0, g0)
                                                - np.einsum("ab,gm->ambg", g0, g0))
    axes = (-4, -3, -2, -1)
    checks["P1"] = BatchCheck.dense(np.abs(A - B + C).max(axis=axes),
                                    _abs_max(A, B, C).max(axis=axes))

    # C1: phi^a_m phi_{,a n} - phi^a_a phi_{,m n} = lambda0 g0
    M = np.einsum("mk,...kn->...mn", g0i, hess)
    trM = np.einsum("...mm->...", M)
    T1 = np.einsum("...ma,ab,...bn->...mn", hess, g0i, hess)
    T2 = trM[..., None, None] * hess
    T3 = lambda0[..., None, None] * g0
    checks["C1"] = BatchCheck.dense(np.abs(T1 - T2 - T3).max(axis=(-2, -1)),
                                    _abs_max(T1, T2, T3).max(axis=(-2, -1)))

    # C2a: r = (K/2) h ; C2b: lambda0 = -(eps/2) rho^2 K
    T = 0.5 * K[..., None, None] * hv
    checks["C2a"] = BatchCheck.dense(np.abs(r - T).max(axis=(-2, -1)),
                                     _abs_max(r, T).max(axis=(-2, -1)))
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
    dg = matrix_jets_to_arrays(fr.g)[1]
    trterm = 0.25 * np.einsum("...ab,...aij,...bji->...", ginv_v, dginv, dg)
    checks["P3a"] = BatchCheck.dense(R + trterm, _abs_max(R, trterm))

    # P3b: R_ab = -((rho-1)/2) r_ab
    T = 0.5 * (rho - 1.0)[..., None, None] * r
    checks["P3b"] = BatchCheck.dense(np.abs(R_ab + T).max(axis=(-2, -1)),
                                     _abs_max(R_ab, T).max(axis=(-2, -1)))

    # P3c: R = sqrt(rho) r - 2 lap_g psi0 (trace of the conformal relation)
    r_scalar = np.einsum("...mn,...mn->...", hinv_v, r)
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
