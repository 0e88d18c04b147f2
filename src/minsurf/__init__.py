"""Ricci-flat block metrics from minimal graph surfaces, with numerical
verification of the construction and of every supporting identity."""

import importlib

from .assembly import AssemblyConfig, assemble_arrays, conformal_factor_jet, signature_values
from .curvature import BlockDiagonal, SingularMetric, christoffel_arrays, ricci_arrays, ricci_fd
from .geometry2d import CheckConstants, SurfaceFrame, frame_at, run_identity_checks
from .jets import DomainError, Jet3
from .surfaces import AmbientMetric, InadmissiblePoint, SurfaceSpec, catalog, residual_values

__version__ = "0.1.0"

#: the solver's names; the solver imports scipy.sparse, so it loads on first use
_SOLVER_NAMES = frozenset({
    "GridSolution", "NoConvergence", "SingularJacobian", "TooCloseToBoundary",
    "grid_jets", "load_solution", "save_solution", "solve_minimal",
})

__all__ = [
    "AmbientMetric", "AssemblyConfig", "BlockDiagonal", "CheckConstants", "DomainError",
    "GridSolution", "InadmissiblePoint", "Jet3", "NoConvergence", "SingularJacobian", "SingularMetric",
    "SurfaceFrame", "SurfaceSpec", "TooCloseToBoundary", "assemble_arrays", "catalog",
    "christoffel_arrays", "conformal_factor_jet", "frame_at", "grid_jets", "load_solution",
    "ricci_arrays", "ricci_fd", "residual_values", "run_identity_checks", "save_solution",
    "signature_values", "solve_minimal",
]


def __getattr__(name):
    if name == "solver" or name in _SOLVER_NAMES:
        solver = importlib.import_module(f"{__name__}.solver")
        return solver if name == "solver" else getattr(solver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
