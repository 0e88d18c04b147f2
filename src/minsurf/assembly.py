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
from .curvature import BlockDiagonal, as_blocks
from .geometry2d import SurfaceFrame, matrix_jets_to_arrays


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
        for name, value in (("e0", self.e0), ("m1", self.m1), ("n1", self.n1)):
            if not np.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")

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


def log_domain_ok(rho, w1, w2, cfg: AssemblyConfig):
    """Pointwise mask: every base raised to a non-integer exponent is positive."""
    ew1, ew2, erho = cfg.exponents
    ok = np.ones(np.shape(rho), dtype=bool)
    for base, p in ((w1, ew1), (w2, ew2), (rho, erho)):
        if not jets.is_integer(p):
            ok &= np.asarray(base) > 0.0
    return ok


def conformal_factor_jet(fr: SurfaceFrame, cfg: AssemblyConfig):
    """Jet of e^{2 Phi} over the frame's batch."""
    ew1, ew2, erho = cfg.exponents
    out = jets.powr(fr.w[0], ew1) * jets.powr(fr.w[1], ew2) * jets.powr(fr.rho, erho)
    if cfg.e0 != 0.0:
        out = out * jets.exp((2.0 * cfg.e0) * fr.phi)
    return out


def assemble_arrays(fr: SurfaceFrame, cfg: AssemblyConfig):
    """(comp, d1, d2) of the assembled metric over a frame of any batch
    shape, as BlockDiagonal arrays of two parts: the x-block e^{2 Phi} g
    and g, which the y-blocks repeat with their signs eps_i."""
    e2 = conformal_factor_jet(fr, cfg)
    xblock = matrix_jets_to_arrays(e2 * fr.g)
    layout = ((0, 1),) + tuple((1, e) for e in cfg.eps_blocks)
    return tuple(BlockDiagonal((xa, ga), layout) for xa, ga in zip(xblock, fr.g_arrays))


def signature_values(comp) -> np.ndarray:
    """Batched metric signature: (# positive - # negative eigenvalues).  A
    BlockDiagonal comp that the Ricci engine has read keeps its eigenvalues."""
    ev = as_blocks(comp).eigenvalues
    return (ev > 0).sum(axis=-1) - (ev < 0).sum(axis=-1)

