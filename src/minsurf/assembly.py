"""Assembly of the even-dimensional block metrics from a 2-surface.

The 2+2n dimensional candidate metric is e^{2 Phi} g on the x-block plus n
copies of eps_i * g on the y-blocks, with the conformal factor

    e^{2 Phi} = e^{2 e0 phi} w1^{-2(m1+n1)} w2^{-2(m2+n2)} rho^{n1+n2},

where m2 = -m1 and n1 + n2 = (n-1)/2 are enforced by the configuration.
For minimal surfaces the result is Ricci flat for every admissible choice
of the constants; n = 1 with e0 = m1 = 0 is the instanton special case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .curvature import MetricJet, SingularMetric
from .geometry2d import SurfaceFrame, TwoMetricSample, _frame_at, matrix_jets_to_arrays
from .jets import DomainError, Jet3
from .surfaces import SurfaceSpec

#: eigenvalues closer to zero than this are treated as singular
EIGENVALUE_TOLERANCE = 1e-10


@dataclass(frozen=True)
class AssemblyConfig:
    """Block count, block signs and conformal-factor exponents.

    The dependent exponents are not stored: m2 = -m1 always, and n2 is
    fixed by the dimension constraint n1 + n2 = (n - 1) / 2.
    """

    n: int = 1
    eps_blocks: tuple = (1,)
    e0: float = 0.0
    m1: float = 0.0
    n1: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if len(self.eps_blocks) != self.n:
            raise ValueError(f"need exactly {self.n} block signs, got {len(self.eps_blocks)}")
        if any(e not in (1, -1) for e in self.eps_blocks):
            raise ValueError("block signs must be +1 or -1")

    @property
    def m2(self) -> float:
        return -self.m1

    @property
    def n2(self) -> float:
        return (self.n - 1) / 2.0 - self.n1

    @property
    def dim(self) -> int:
        return 2 + 2 * self.n

    @property
    def exponents(self):
        """(w1, w2, rho) exponents of the conformal factor."""
        return (-2.0 * (self.m1 + self.n1), -2.0 * (self.m2 + self.n2), self.n1 + self.n2)


def conformal_factor(sample: TwoMetricSample, cfg: AssemblyConfig, phi_value: float) -> float:
    """e^{2 Phi} from an already-computed 2-surface sample."""
    w1, w2, rho, phi = (Jet3.constant(v) for v in (sample.w1, sample.w2, sample.rho, phi_value))
    out = _conformal_jet(w1, w2, rho, phi, cfg).value
    if not np.all(np.isfinite(out)):
        raise DomainError("conformal factor is not finite")
    return float(out)


def log_domain_ok(rho, w1, w2, cfg: AssemblyConfig):
    """Pointwise mask: every base raised to a non-integer exponent is positive."""
    ew1, ew2, erho = cfg.exponents
    ok = np.ones(np.shape(rho), dtype=bool)
    for base, p in ((w1, ew1), (w2, ew2), (rho, erho)):
        if not jets.is_integer(p):
            ok &= np.asarray(base) > 0.0
    return ok


def conformal_factor_jet(fr: SurfaceFrame, cfg: AssemblyConfig):
    return _conformal_jet(fr.w[0], fr.w[1], fr.rho, fr.phi, cfg)


def _conformal_jet(w1, w2, rho, phi, cfg: AssemblyConfig):
    ew1, ew2, erho = cfg.exponents
    out = jets.powr(w1, ew1) * jets.powr(w2, ew2) * jets.powr(rho, erho)
    if cfg.e0 != 0.0:
        out = out * jets.exp((2.0 * cfg.e0) * phi)
    return out


def assemble_arrays(fr: SurfaceFrame, cfg: AssemblyConfig):
    """Batched (components, d1, d2) of the assembled metric over a frame."""
    e2 = conformal_factor_jet(fr, cfg)
    xblock = [[e2 * fr.g[a][b] for b in range(2)] for a in range(2)]
    cx, d1x, d2x = matrix_jets_to_arrays(xblock)
    cg, d1g, d2g = matrix_jets_to_arrays(fr.g)
    P = cx.shape[0]
    dim = cfg.dim
    comp = np.zeros((P, dim, dim))
    d1 = np.zeros((P, 2, dim, dim))
    d2 = np.zeros((P, 2, 2, dim, dim))
    comp[:, :2, :2] = cx
    d1[:, :, :2, :2] = d1x
    d2[:, :, :, :2, :2] = d2x
    for i, e in enumerate(cfg.eps_blocks):
        lo, hi = 2 + 2 * i, 4 + 2 * i
        comp[:, lo:hi, lo:hi] = e * cg
        d1[:, :, lo:hi, lo:hi] = e * d1g
        d2[:, :, :, lo:hi, lo:hi] = e * d2g
    return comp, d1, d2


def assemble(spec: SurfaceSpec, cfg: AssemblyConfig, p) -> MetricJet:
    """Assembled 2+2n metric with exact jet derivatives at one point."""
    fr = _frame_at(spec, p)
    comp, d1, d2 = assemble_arrays(fr, cfg)
    return MetricJet(dim=cfg.dim, components=comp[0], d1=d1[0], d2=d2[0],
                     point=(float(fr.x[0]), float(fr.y[0])))


def signature_values(comp) -> np.ndarray:
    """Batched metric signature: (# positive - # negative eigenvalues)."""
    ev = np.linalg.eigvalsh(comp)
    if np.any(np.abs(ev) < EIGENVALUE_TOLERANCE):
        raise SingularMetric("eigenvalue within tolerance of zero")
    return (ev > 0).sum(axis=-1) - (ev < 0).sum(axis=-1)


def signature(spec: SurfaceSpec, cfg: AssemblyConfig, p) -> int:
    m = assemble(spec, cfg, p)
    return int(signature_values(m.components))
