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
assembly take them from it.  Its 2 x 2 matrices h, h^{-1}, g and g^{-1}
are each one Jet3 with leading (2, 2) batch axes, so one jet operation
covers the four entries, and each entry runs the operations, in order, of
its own scalar jet.  ``frame_at`` is the screened entry point: it
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
by 1, and report NaN (invalid) at the points where a base is not positive,
so the suite never splits its frame.  ``verify`` builds one frame per chunk
of its sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .curvature import engine_arrays, ricci_arrays
from .jets import Jet3, deriv
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

    ``p`` stacks the gradient jets phi_{,mu} on a leading axis, and ``h``,
    ``h_inv``, ``g`` and ``g_inv`` are jets with leading (2, 2) matrix axes
    (h's (0, 1) entry is (eps phi_x) phi_y and its (1, 0) entry
    (eps phi_y) phi_x, which can differ in the last bit); ``w`` and ``xi``
    are the jets of h's and g^{-1}'s diagonal entries.
    It also owns the plain arrays that the identity suite and assembly
    share, each computed once here: the values of h and h^{-1}, g's engine
    arrays, the Hessian of phi, lambda0, K, H and r.  Callers must have
    screened the points already (``frame_at`` does); rho <= 0 raises
    DomainError.
    """

    def __init__(self, ambient: AmbientMetric, phi: Jet3):
        self.ambient = amb = ambient
        self.phi = f = phi
        self.p = p = _gradient(f)  # phi_{,mu} along the leading axis, valid to order 2
        px_py = Jet3(p.c[:, 0]), Jet3(p.c[:, 1])
        self.rho = amb.rho(*px_py)
        self.log_rho = jets.log(self.rho)
        self.sr = jets.sqrt(self.rho)
        gi = amb.g0_inv
        g0_b, gi_b = (m.reshape((2, 2) + (1,) * f.value.ndim) for m in (amb.g0, gi))  # over the batch
        up = Jet3(np.stack([u.c for u in amb.raised(*px_py)], axis=1))  # phi^mu
        # eps phi_m phi_n + g0 and g0^{-1} - (eps / rho) phi^m phi^n, the constant added last
        self.h = Jet3((amb.eps * p).c[:, :, None]) * Jet3(p.c[:, None]) + g0_b
        self.h_inv = -(Jet3(((amb.eps / self.rho) * up).c[:, :, None]) * Jet3(up.c[:, None])) + gi_b
        self.g = self.h * jets.powr(self.sr, -1)
        self.sqrt_det_g, self.g_inv = _inverse(self.g)
        # w1 = k1 + eps phi_x^2 and w2 = k2 + eps phi_y^2
        self.w = [Jet3(self.h.c[:, i, i]) for i in range(2)]
        self.xi = [Jet3(self.g_inv.c[:, i, i]) for i in range(2)]
        self.psi0 = -0.25 * self.log_rho

        # plain arrays shared by the identity suite and assembly
        self.g_arrays = matrix_jets_to_arrays(self.g)  # (comp, d1, d2) for the Ricci engine
        self.h_values, self.h_inv_values = _matrix(self.h.value), _matrix(self.h_inv.value)
        self.hess = _matrix(np.stack([p.partial(1, 0), p.partial(0, 1)], axis=1))
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


def _gradient(f: Jet3) -> Jet3:
    """Jet of (d_x f, d_y f), stacked along a new leading batch axis."""
    return Jet3(np.stack([deriv(f, 0).c, deriv(f, 1).c], axis=1))


def _contract(a: Jet3, b: Jet3, axis) -> Jet3:
    """Jet of a * b summed over its batch axis ``axis`` of length 2,
    index 0 first: a 2x2 matrix times a vector or a matrix."""
    c = np.moveaxis((a * b).c, axis + 1, 0)
    return Jet3(c[0] + c[1])


def _matrix(a):
    """An array with leading (2, 2) matrix axes, as a C-ordered (..., 2, 2)
    array: einsum's summation order follows the memory layout."""
    return np.ascontiguousarray(np.moveaxis(a, (0, 1), (-2, -1)))


def matrix_jets_to_arrays(m: Jet3):
    """(comp, d1, d2) engine arrays of a jet matrix with leading (2, 2) batch axes."""
    return engine_arrays(*(_matrix(m.partial(i, j))
                           for i, j in ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1))))


def _inverse(m: Jet3):
    """(sqrt|det|, inverse) of a symmetric 2x2 jet matrix; both off-diagonal
    entries of the inverse are read from the (0, 1) entry."""
    a, b, d = Jet3(m.c[:, 0, 0]), Jet3(m.c[:, 0, 1]), Jet3(m.c[:, 1, 1])
    det = a * d - b * b
    adj = Jet3(np.stack([np.stack([d.c, -b.c], axis=1), np.stack([-b.c, a.c], axis=1)], axis=1))
    return jets.sqrt(det * np.sign(det.value)), adj * jets.powr(det, -1)


def _divergence(flux: Jet3):
    """(d_a flux^a, max_a |d_a flux^a|) of a jet vector field on the leading
    batch axis, as value arrays over the remaining axes."""
    terms = np.stack([flux.partial(1, 0)[0], flux.partial(0, 1)[1]])
    return terms.sum(axis=0), np.abs(terms).max(axis=0)


def _laplace_terms(s, inv, fs):
    """(value, term scale) of the Laplace-Beltrami |det|^{-1/2} d_a(|det|^{1/2}
    m^{ab} d_b f) for a jet metric m given as (s = |det|^{1/2}, m^{-1}), as
    arrays with one leading entry per jet f of the list fs.  The jets are
    stacked at their lowest order, which keeps the bits of the order-1 flux."""
    n = min(len(f.c) for f in fs)
    df = _gradient(Jet3(np.stack([f.c[:n] for f in fs], axis=1)))
    div, scale = _divergence(s * _contract(Jet3(inv.c[:, :, :, None]), df, 1))
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


def run_identity_checks(fr: SurfaceFrame, consts: CheckConstants) -> dict:
    """Evaluate all identity checks over the frame's point batch."""
    amb = fr.ambient
    eps, g0, D = amb.eps, amb.g0, amb.det
    rho, sr = fr.rho.value, fr.sr.value
    hess, lambda0, K, r = fr.hess, fr.lambda0, fr.K, fr.r
    R_ab, R, _ = ricci_arrays(*fr.g_arrays)  # the conformal metric's Ricci tensor, one part, and scalar
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
    checks["P2a"] = BatchCheck.dense(*_divergence(fr.sr * _contract(fr.h_inv, fr.p, 1)))
    raw, scale = _divergence(fr.sr * fr.h_inv)  # the divergence over a of each column b
    checks["P2b"] = BatchCheck.dense(np.abs(raw).max(axis=0), scale.max(axis=0))

    # P3a: R + (1/4) g^{ab} tr[d_a g^{-1} d_b g], the scalar condition
    # defining the admissible 2-metric class
    ginv_v, dginv, _ = matrix_jets_to_arrays(ginv)
    trterm = 0.25 * np.einsum("...ab,...aij,...bji->...", ginv_v, dginv, fr.g_arrays[1])
    checks["P3a"] = BatchCheck.dense(R + trterm, _abs_max(R, trterm))

    # P3b: R_ab = -((rho-1)/2) r_ab
    checks["P3b"] = _tensor_check(R_ab.parts[0], 0.5 * (rho - 1.0)[..., None, None] * r)

    # P4b and the psi1 branch of CC1 need xi1, xi2 > 0; P4c, MU and the mu
    # branch need w1, w2 > 0 (Lorentzian ambients can violate either).
    a0, a1, a2, b1, b2 = consts.a0, consts.a1, consts.a2, consts.b1, consts.b2
    xi_ok = (fr.xi[0].value > 0.0) & (fr.xi[1].value > 0.0)
    w_ok = (fr.w[0].value > 0.0) & (fr.w[1].value > 0.0)
    # log xi1, log xi2, log w1 and log w2 in one call, each invalid base replaced by 1
    ok = np.stack([xi_ok, xi_ok, w_ok, w_ok])
    logs = jets.log(Jet3(np.where(ok, np.stack([j.c for j in (*fr.xi, *fr.w)], axis=1), 1.0))).c
    zeta = (a0 / 2.0) * fr.log_rho
    psi1 = a1 * Jet3(logs[:, 0]) + a2 * Jet3(logs[:, 1])
    psi2 = b1 * Jet3(logs[:, 2]) + b2 * Jet3(logs[:, 3])
    # mu = (b1+b2) zeta - a0 psi2 satisfies lap_g mu = -a0 (b1+b2) R
    mu = (b1 + b2) * (a0 / 2.0) * fr.log_rho - a0 * psi2
    laps, scales = _laplace_terms(s, ginv, [fr.psi0, zeta, psi1, psi2, mu, fr.phi])
    lap_psi0, lap_zeta, lap, lap2, lap_mu, lap_phi = laps
    lap_psi0_scale, lz_scale, lap_scale, lap2_scale, lap_mu_scale, lap_phi_scale = scales

    # P3c: R = sqrt(rho) r - 2 lap_g psi0 (trace of the conformal relation)
    r_scalar = np.einsum("...mn,...mn->...", fr.h_inv_values, r)
    checks["P3c"] = BatchCheck.dense(R - sr * r_scalar + 2.0 * lap_psi0,
                                     _abs_max(R, sr * r_scalar, 2.0 * lap_psi0_scale))

    # P4a: lap_g zeta - a0 R + a0 sqrt(rho) K, zeta = (a0/2) log rho
    checks["P4a"] = BatchCheck.dense(lap_zeta - a0 * R + a0 * sr * K,
                                     _abs_max(lz_scale, a0 * R, a0 * sr * K))

    checks["P4b"] = BatchCheck.masked(lap - (a1 + a2) * R, _abs_max(lap_scale, (a1 + a2) * R), xi_ok)
    cc1_psi1 = BatchCheck.masked(lap + (a1 + a2) * trterm,
                                 _abs_max(lap_scale, (a1 + a2) * trterm), xi_ok)
    checks["P4c"] = BatchCheck.masked(
        lap2 - 2.0 * (b1 + b2) * R + (b1 + b2) * sr * K,
        _abs_max(lap2_scale, 2.0 * (b1 + b2) * R, (b1 + b2) * sr * K), w_ok)
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
    dg = _gradient(fr.g)  # d_b g_{kj}, axes (b, k, j)
    inner = _contract(Jet3(ginv.c[:, None, :, :, None]), Jet3(dg.c[:, :, None]), 2)  # (g^{-1} d_b g)_{ij}
    raw, scale = _divergence(_contract(Jet3(ginv.c[:, :, :, None, None]), inner, 1))  # axes (i, j)
    checks["P5"] = BatchCheck.dense(np.abs(raw).max(axis=(0, 1)), scale.max(axis=(0, 1)))

    # PHI-H: phi itself is g-harmonic on minimal surfaces
    checks["PHI-H"] = BatchCheck.dense(lap_phi, lap_phi_scale)

    return checks
