"""Damped Newton finite-difference solver for the minimal-surface equation.

Solves the quasilinear equation

    [k2 + eps phi_y^2] phi_xx - 2 [k0 + eps phi_x phi_y] phi_xy
        + [k1 + eps phi_x^2] phi_yy = 0

on a rectangle with Dirichlet data, using second-order central stencils
(9-point), an analytically assembled sparse Jacobian, direct sparse solves
and Armijo backtracking; a line search stalled at the operator's rounding
floor ends converged.  Solutions serialize to the plain-text ``minsurf v1``
format and feed the verification pipeline through ``grid_jets``, the
finite-difference jets at the nodes nearest to arrays of points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as splinalg

from .jets import IDX, NSLOTS, Jet3
from .surfaces import AmbientMetric, SurfaceSpec

FORMAT_MAGIC = "minsurf v1"

#: Armijo sufficient-decrease constant and halving budget
ARMIJO_C = 1e-4
MAX_HALVINGS = 20


class NoConvergence(RuntimeError):
    """Iteration budget exhausted; carries the partial solution."""

    def __init__(self, message, solution):
        super().__init__(message)
        self.solution = solution


class SingularJacobian(RuntimeError):
    """Discrete rho degenerated (Lorentzian ambients) or the linear solve failed."""


class TooCloseToBoundary(ValueError):
    """Jet extraction needs a 5x5 node neighbourhood inside the grid."""


@dataclass
class GridSolution:
    nx: int
    ny: int
    x_range: tuple
    y_range: tuple
    values: np.ndarray
    ambient: AmbientMetric
    residual_history: list = field(default_factory=list)
    converged: bool = False

    @property
    def hx(self):
        return (self.x_range[1] - self.x_range[0]) / (self.nx - 1)

    @property
    def hy(self):
        return (self.y_range[1] - self.y_range[0]) / (self.ny - 1)

    @property
    def xs(self):
        return np.linspace(*self.x_range, self.nx)

    @property
    def ys(self):
        return np.linspace(*self.y_range, self.ny)

    def nearest_node(self, x, y):
        """Integer indices (i, j) of the node nearest to (x, y), elementwise."""
        return (np.rint((np.asarray(x) - self.x_range[0]) / self.hx).astype(int),
                np.rint((np.asarray(y) - self.y_range[0]) / self.hy).astype(int))


def _coons_patch(bound, xs, ys):
    """Transfinite interpolation of the four boundary edges (exact on edges)."""
    x0, x1, y0, y1 = xs[0], xs[-1], ys[0], ys[-1]
    s = ((xs - x0) / (x1 - x0))[:, None]
    t = ((ys - y0) / (y1 - y0))[None, :]
    left = bound(np.full_like(ys, x0), ys)[None, :]
    right = bound(np.full_like(ys, x1), ys)[None, :]
    bottom = bound(xs, np.full_like(xs, y0))[:, None]
    top = bound(xs, np.full_like(xs, y1))[:, None]
    c00, c10 = bound(x0, y0), bound(x1, y0)
    c01, c11 = bound(x0, y1), bound(x1, y1)
    return ((1 - s) * left + s * right + (1 - t) * bottom + t * top
            - ((1 - s) * (1 - t) * c00 + s * (1 - t) * c10
               + (1 - s) * t * c01 + s * t * c11))


def _interior_derivs(U, hx, hy):
    Ux = (U[2:, 1:-1] - U[:-2, 1:-1]) / (2 * hx)
    Uy = (U[1:-1, 2:] - U[1:-1, :-2]) / (2 * hy)
    Uxx = (U[2:, 1:-1] - 2 * U[1:-1, 1:-1] + U[:-2, 1:-1]) / hx ** 2
    Uyy = (U[1:-1, 2:] - 2 * U[1:-1, 1:-1] + U[1:-1, :-2]) / hy ** 2
    Uxy = (U[2:, 2:] - U[2:, :-2] - U[:-2, 2:] + U[:-2, :-2]) / (4 * hx * hy)
    return Ux, Uy, Uxx, Uyy, Uxy


def _residual(U, amb, hx, hy):
    Ux, Uy, Uxx, Uyy, Uxy = _interior_derivs(U, hx, hy)
    A, B, C = amb.pde_coefficients(Ux, Uy)
    return A * Uxx + B * Uxy + C * Uyy


def _rounding_floor(U, amb, hx, hy):
    """Round-off bound of the residual on U: eps_mach times its terms in absolute value."""
    Ux, Uy, _, _, _ = _interior_derivs(U, hx, hy)
    A, B, C = amb.pde_coefficients(Ux, Uy)
    a = np.abs(U)
    terms = (np.abs(A) * (a[2:, 1:-1] + 2 * a[1:-1, 1:-1] + a[:-2, 1:-1]) / hx ** 2
             + np.abs(B) * (a[2:, 2:] + a[2:, :-2] + a[:-2, 2:] + a[:-2, :-2]) / (4 * hx * hy)
             + np.abs(C) * (a[1:-1, 2:] + 2 * a[1:-1, 1:-1] + a[1:-1, :-2]) / hy ** 2)
    return np.finfo(float).eps * float(terms.max())


def _check_rho(U, amb, hx, hy):
    Ux, Uy, _, _, _ = _interior_derivs(U, hx, hy)
    rho = amb.rho(Ux, Uy)
    if rho.size and ((rho.min() <= 0.0 < rho.max()) or np.abs(rho).min() < 1e-12):
        raise SingularJacobian("discrete rho changes sign (degenerate induced metric)")


def _jacobian(U, amb, hx, hy):
    """Sparse Jacobian of the interior residual, assembled analytically."""
    nx, ny = U.shape
    mi, mj = nx - 2, ny - 2
    Ux, Uy, Uxx, Uyy, Uxy = _interior_derivs(U, hx, hy)
    A, B, C = amb.pde_coefficients(Ux, Uy)
    I, J = np.meshgrid(np.arange(1, nx - 1), np.arange(1, ny - 1), indexing="ij")
    rows_all = (I - 1) * mj + (J - 1)

    rows, cols, data = [], [], []
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            wx = di / (2 * hx) if dj == 0 else 0.0
            wy = dj / (2 * hy) if di == 0 else 0.0
            wxx = (1.0 / hx ** 2 if di != 0 else -2.0 / hx ** 2) if dj == 0 else 0.0
            wyy = (1.0 / hy ** 2 if dj != 0 else -2.0 / hy ** 2) if di == 0 else 0.0
            wxy = di * dj / (4 * hx * hy)
            coeff = (A * wxx + B * wxy + C * wyy
                     + (2 * amb.eps * Uy * wy) * Uxx
                     + (-2 * amb.eps * (Uy * wx + Ux * wy)) * Uxy
                     + (2 * amb.eps * Ux * wx) * Uyy)
            ni, nj = I + di, J + dj
            interior = (ni >= 1) & (ni <= nx - 2) & (nj >= 1) & (nj <= ny - 2)
            rows.append(rows_all[interior])
            cols.append(((ni - 1) * mj + (nj - 1))[interior])
            data.append(coeff[interior])
    mat = sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mi * mj, mi * mj))
    return mat.tocsr()


def solve_minimal(boundary, ambient: AmbientMetric, grid=(65, 65),
                  domain=(-1.0, 1.0, -1.0, 1.0), tol=1e-10, max_iter=25) -> GridSolution:
    """Damped Newton iteration from the Coons-patch initial guess.

    ``boundary(x, y)`` supplies Dirichlet values on the rectangle edge
    (vectorized).  Residual history records the interior max norm.  A line
    search that stalls at the operator's rounding floor also converges.
    """
    nx, ny = grid
    if nx < 3 or ny < 3:
        raise ValueError("grid must be at least 3x3")
    if tol <= 0:
        raise ValueError("tol must be positive")
    x0, x1, y0, y1 = domain
    sol = GridSolution(nx, ny, (x0, x1), (y0, y1),
                       np.zeros((nx, ny)), ambient)
    xs, ys = sol.xs, sol.ys
    U = _coons_patch(lambda a, b: np.asarray(boundary(a, b), dtype=float), xs, ys)
    hx, hy = sol.hx, sol.hy

    _check_rho(U, ambient, hx, hy)
    F = _residual(U, ambient, hx, hy)
    history = [float(np.abs(F).max())]
    at_floor = False
    for _ in range(max_iter):
        if history[-1] < tol:
            break
        J = _jacobian(U, ambient, hx, hy)
        try:
            delta = splinalg.spsolve(J, -F.ravel())
        except Exception as exc:
            raise SingularJacobian(f"sparse solve failed: {exc}") from exc
        if not np.all(np.isfinite(delta)):
            raise SingularJacobian("sparse solve produced non-finite step")
        delta = delta.reshape(F.shape)

        f0 = float((F ** 2).sum())
        lam = 1.0
        for _halving in range(MAX_HALVINGS + 1):
            U_try = U.copy()
            U_try[1:-1, 1:-1] += lam * delta
            F_try = _residual(U_try, ambient, hx, hy)
            if float((F_try ** 2).sum()) <= (1.0 - ARMIJO_C * lam) * f0:
                break
            lam *= 0.5
        else:
            at_floor = history[-1] <= _rounding_floor(U, ambient, hx, hy)
            if at_floor:
                break
            sol.values, sol.residual_history = U, history
            raise NoConvergence("line search stalled", sol)
        U, F = U_try, F_try
        _check_rho(U, ambient, hx, hy)
        history.append(float(np.abs(F).max()))

    sol.values, sol.residual_history = U, history
    sol.converged = at_floor or history[-1] < tol
    if not sol.converged:
        raise NoConvergence(f"residual {history[-1]:.3e} after {max_iter} iterations", sol)
    return sol


# ---------------------------------------------------------------------------
# serialization: the `minsurf v1` text format
# ---------------------------------------------------------------------------

def save_solution(sol: GridSolution, path):
    amb = sol.ambient
    header = " ".join([FORMAT_MAGIC, str(sol.nx), str(sol.ny)]
                      + [format(v, ".17g") for v in (*sol.x_range, *sol.y_range,
                                                     amb.k1, amb.k2, amb.k0)]
                      + [str(amb.eps)])
    lines = [header]
    for i in range(sol.nx):
        lines.append(" ".join(format(v, ".17g") for v in sol.values[i]))
    if not sol.converged:
        lines.append("# converged=false")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_solution(path) -> GridSolution:
    with open(path) as fh:
        raw = fh.read().splitlines()
    if not raw or not raw[0].startswith(FORMAT_MAGIC):
        raise ValueError(f"not a {FORMAT_MAGIC} file: {path}")
    head = raw[0].split()
    nx, ny = int(head[2]), int(head[3])
    x0, x1, y0, y1, k1, k2, k0 = (float(v) for v in head[4:11])
    eps = int(head[11])
    converged = True
    numbers = []
    for line in raw[1:]:
        if line.startswith("#"):
            converged = "converged=false" not in line
            continue
        numbers.extend(float(v) for v in line.split())
    if len(numbers) != nx * ny:
        raise ValueError(f"expected {nx * ny} values, found {len(numbers)}")
    values = np.array(numbers).reshape(nx, ny)
    return GridSolution(nx, ny, (x0, x1), (y0, y1), values,
                        AmbientMetric(k1, k2, k0, eps), converged=converged)


# ---------------------------------------------------------------------------
# bridging grid solutions into the jet pipeline
# ---------------------------------------------------------------------------

# 1-D central stencils over offsets -2..2 for derivative orders 0..3
_STENCILS = (
    np.array([0.0, 0.0, 1.0, 0.0, 0.0]),
    np.array([0.0, -0.5, 0.0, 0.5, 0.0]),
    np.array([0.0, 1.0, -2.0, 1.0, 0.0]),
    np.array([-0.5, 1.0, 0.0, -1.0, 0.5]),
)


def grid_jets(sol: GridSolution, p) -> Jet3:
    """Order-3 jets of the discrete solution at the nodes nearest to p = (x, y),
    scalars or equal-shape arrays.  Orders 1-2 are O(h^2) accurate, order 3
    is O(h^2) as well (the stated contract only requires O(h)).  Every
    nearest node must be at least two nodes away from the boundary.
    """
    i, j = sol.nearest_node(*p)
    far = (2 <= i) & (i <= sol.nx - 3) & (2 <= j) & (j <= sol.ny - 3)
    if not far.all():
        raise TooCloseToBoundary(f"node ({i[~far][0]}, {j[~far][0]}) lacks a 5x5 interior neighbourhood")
    off = np.arange(-2, 3)
    block = sol.values[(i[..., None] + off)[..., :, None], (j[..., None] + off)[..., None, :]]
    # stacked matmuls make the BLAS calls of a single node's dx @ block @ dy
    # (vector-matrix, then dot) node by node, so the bits match it exactly
    rows = [st / sol.hx ** a @ block for a, st in enumerate(_STENCILS)]
    c = np.empty((NSLOTS,) + i.shape)
    for (a, b), slot in IDX.items():
        c[slot] = (rows[a][..., None, :] @ (_STENCILS[b] / sol.hy ** b)[:, None])[..., 0, 0]
    return Jet3(c)


def as_surface(sol: GridSolution, name=None) -> SurfaceSpec:
    """Wrap a grid solution as a surface usable by the verification pipeline.

    phi evaluations snap to the nearest grid node; the advertised domain is
    shrunk so every point in it has the required stencil neighbourhood.
    """
    x0, x1 = sol.x_range
    y0, y1 = sol.y_range
    domain = (x0 + 2 * sol.hx, x1 - 2 * sol.hx, y0 + 2 * sol.hy, y1 - 2 * sol.hy)
    return SurfaceSpec(name or "grid", lambda x, y: grid_jets(sol, (np.atleast_1d(x), np.atleast_1d(y))),
                       sol.ambient, domain)
