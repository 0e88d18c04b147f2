"""Ricci-flat block metrics from minimal graph surfaces, with numerical
verification of the construction and of every supporting identity."""

from .assembly import AssemblyConfig, assemble, conformal_factor, signature
from .curvature import CurvatureReport, MetricJet, SingularMetric, christoffel, ricci, ricci_fd
from .geometry2d import (CheckConstants, CheckResult, TwoMetricSample, check_identities,
                         gaussian_K, laplace_beltrami, mean_curvature, ricci_two, sample)
from .jets import DomainError, Jet3
from .solver import (GridSolution, NoConvergence, SingularJacobian, TooCloseToBoundary,
                     grid_jets, load_solution, save_solution, solve_minimal)
from .surfaces import AmbientMetric, InadmissiblePoint, SurfaceSpec, catalog, minimal_residual

__version__ = "0.1.0"

__all__ = [
    "AmbientMetric", "AssemblyConfig", "CheckConstants", "CheckResult",
    "CurvatureReport", "DomainError", "GridSolution", "InadmissiblePoint",
    "Jet3", "MetricJet", "NoConvergence", "SingularJacobian", "SingularMetric",
    "SurfaceSpec", "TooCloseToBoundary", "TwoMetricSample", "assemble",
    "catalog", "check_identities", "christoffel", "conformal_factor",
    "gaussian_K", "grid_jets", "laplace_beltrami", "load_solution",
    "mean_curvature", "minimal_residual", "ricci", "ricci_fd", "ricci_two",
    "sample", "save_solution", "signature", "solve_minimal",
]
