"""Damped Newton finite-difference solver for the minimal-surface equation.

Solves the quasilinear equation

    [k2 + eps phi_y^2] phi_xx - 2 [k0 + eps phi_x phi_y] phi_xy
        + [k1 + eps phi_x^2] phi_yy = 0

on a rectangle with Dirichlet data: ``curvature.central_differences`` once
per grid function, a sparse Jacobian weighted by that stencil's response to
unit impulses and numbered in nested-dissection order, direct sparse solves
and Armijo backtracking; an iterate whose residual is at its rounding floor
ends converged.  Solutions serialize to the plain-text ``minsurf v1``
format and feed the verification pipeline through ``grid_jets``, the
finite-difference jets at the nodes nearest to arrays of points.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as splinalg

from .curvature import central_differences
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
        return _spacing(self.x_range, self.nx)

    @property
    def hy(self):
        return _spacing(self.y_range, self.ny)

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


def _spacing(bounds, n):
    return (bounds[1] - bounds[0]) / (n - 1)


def _check_grid(nx, ny, domain):
    """Raise ValueError unless an nx x ny grid is at least 3x3 over a finite
    domain (x0, x1, y0, y1) with x0 < x1 and y0 < y1 whose spacings square
    to a positive finite number: the one rule for solved and loaded grids."""
    if nx < 3 or ny < 3:
        raise ValueError("grid must be at least 3x3")
    x0, x1, y0, y1 = domain
    if not (-np.inf < x0 < x1 < np.inf and -np.inf < y0 < y1 < np.inf):
        raise ValueError(f"domain needs finite x0 < x1 and y0 < y1, got {x0:g},{x1:g},{y0:g},{y1:g}")
    hx, hy = _spacing((x0, x1), nx), _spacing((y0, y1), ny)
    if not (0.0 < hx * hx < np.inf and 0.0 < hy * hy < np.inf):
        raise ValueError(f"domain {x0:g},{x1:g},{y0:g},{y1:g} on a {nx}x{ny} grid gives spacing "
                         f"{hx:g},{hy:g}, whose square is zero or not finite")


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


def _operator(U, amb, hx, hy):
    """At the interior nodes: the derivatives (U_x, U_y, U_xx, U_yy, U_xy),
    the PDE coefficients (A, B, C) and the residual A U_xx + B U_xy + C U_yy."""
    nx, ny = U.shape
    Ux, Uy, Uxx, Uyy, Uxy = d = central_differences(
        lambda i, j: U[1 + i:nx - 1 + i, 1 + j:ny - 1 + j], hx, hy)
    A, B, C = amb.pde_coefficients(Ux, Uy)
    return d, (A, B, C), A * Uxx + B * Uxy + C * Uyy


def _rounding_floor(U, coeffs, hx, hy):
    """Round-off bound of the residual on U: eps_mach times its terms in absolute value."""
    A, B, C = coeffs
    a = np.abs(U)
    terms = (np.abs(A) * (a[2:, 1:-1] + 2 * a[1:-1, 1:-1] + a[:-2, 1:-1]) / hx ** 2
             + np.abs(B) * (a[2:, 2:] + a[2:, :-2] + a[:-2, 2:] + a[:-2, :-2]) / (4 * hx * hy)
             + np.abs(C) * (a[1:-1, 2:] + 2 * a[1:-1, 1:-1] + a[1:-1, :-2]) / hy ** 2)
    return np.finfo(float).eps * float(terms.max())


def _check_rho(d, amb):
    rho = amb.rho(d[0], d[1])
    if rho.size and ((rho.min() <= 0.0 < rho.max()) or np.abs(rho).min() < 1e-12):
        raise SingularJacobian("discrete rho changes sign (degenerate induced metric)")


@functools.lru_cache(maxsize=None)
def _dissection(rows, cols):
    """Row-major indices of a rows x cols grid in nested-dissection order
    (A. George, SIAM J. Numer. Anal. 10 (1973) 345): the two halves of the
    longer side, each numbered the same way, then the line between them.
    The returned array is shared between calls and read-only."""
    if rows < cols:
        t = _dissection(cols, rows)
        order = t % rows * cols + t // rows
    elif rows < 3:
        order = np.arange(rows * cols)
    else:
        m = rows // 2
        order = np.concatenate([_dissection(m, cols), (m + 1) * cols + _dissection(rows - m - 1, cols),
                                np.arange(m * cols, (m + 1) * cols)])
    order.flags.writeable = False
    return order


def _jacobian(d, coeffs, amb, hx, hy, rank):
    """Sparse Jacobian of the interior residual, with the node at interior
    index (i, j) numbered ``rank[i, j]`` in both rows and columns: each
    offset's stencil weights are ``central_differences`` of a unit impulse there."""
    Ux, Uy, Uxx, Uyy, Uxy = d
    A, B, C = coeffs
    mi, mj = rank.shape
    padded = np.pad(rank, 1, constant_values=-1)

    rows, cols, data = [], [], []
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            wx, wy, wxx, wyy, wxy = central_differences(lambda i, j: float((i, j) == (di, dj)), hx, hy)
            coeff = (A * wxx + B * wxy + C * wyy
                     + (2 * amb.eps * Uy * wy) * Uxx
                     + (-2 * amb.eps * (Uy * wx + Ux * wy)) * Uxy
                     + (2 * amb.eps * Ux * wx) * Uyy)
            neighbour = padded[1 + di:mi + 1 + di, 1 + dj:mj + 1 + dj]
            interior = neighbour >= 0
            rows.append(rank[interior])
            cols.append(neighbour[interior])
            data.append(coeff[interior])
    mat = sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mi * mj, mi * mj))
    return mat.tocsr()


def solve_minimal(boundary, ambient: AmbientMetric, grid=(65, 65),
                  domain=(-1.0, 1.0, -1.0, 1.0), tol=1e-10, max_iter=25) -> GridSolution:
    """Damped Newton iteration from the Coons-patch initial guess.

    ``boundary(x, y)`` supplies Dirichlet values on the rectangle edge
    (vectorized).  Residual history records the interior max norm.  The
    iteration converges once that norm is below ``tol`` or at most the
    operator's rounding floor on the current iterate.
    """
    nx, ny = grid
    _check_grid(nx, ny, domain)
    x0, x1, y0, y1 = domain
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {max_iter!r}")
    sol = GridSolution(nx, ny, (x0, x1), (y0, y1),
                       np.zeros((nx, ny)), ambient)
    hx, hy = sol.hx, sol.hy
    xs, ys = sol.xs, sol.ys
    U = _coons_patch(lambda a, b: np.asarray(boundary(a, b), dtype=float), xs, ys)

    d, coeffs, F = _operator(U, ambient, hx, hy)
    _check_rho(d, ambient)
    order = _dissection(*F.shape)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    rank = rank.reshape(F.shape)
    history = [float(np.abs(F).max())]
    for it in range(max_iter + 1):
        if history[-1] < tol or history[-1] <= _rounding_floor(U, coeffs, hx, hy):
            break
        if it == max_iter:
            sol.values, sol.residual_history = U, history
            raise NoConvergence(f"residual {history[-1]:.3e} after {max_iter} iterations", sol)
        J = _jacobian(d, coeffs, ambient, hx, hy, rank)
        try:
            # J is numbered in nested-dissection order, which fills L + U less
            # than SuperLU's own orderings on this grid, so SuperLU keeps it
            with warnings.catch_warnings():  # an exactly singular J warns and returns nan
                warnings.simplefilter("error", splinalg.MatrixRankWarning)
                delta = splinalg.spsolve(J, -F.ravel()[order], permc_spec="NATURAL")
        except Exception as exc:
            raise SingularJacobian(f"sparse solve failed: {exc}") from exc
        if not np.all(np.isfinite(delta)):
            raise SingularJacobian("sparse solve produced non-finite step")
        delta = delta[rank]

        f0 = float((F ** 2).sum())
        lam = 1.0
        for _halving in range(MAX_HALVINGS + 1):
            U_try = U.copy()
            U_try[1:-1, 1:-1] += lam * delta
            trial = _operator(U_try, ambient, hx, hy)
            if float((trial[2] ** 2).sum()) <= (1.0 - ARMIJO_C * lam) * f0:
                break
            lam *= 0.5
        else:
            sol.values, sol.residual_history = U, history
            raise NoConvergence("line search stalled", sol)
        U, (d, coeffs, F) = U_try, trial
        _check_rho(d, ambient)
        history.append(float(np.abs(F).max()))

    sol.values, sol.residual_history, sol.converged = U, history, True
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
    row = " ".join(["%.17g"] * sol.ny)  # the bytes of format(v, ".17g"), one row per call
    lines = [header] + [row % tuple(r) for r in sol.values.tolist()]
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
    if len(head) != 12:
        raise ValueError(f"{path}: a {FORMAT_MAGIC} header has 12 fields, found {len(head)}")
    fields = []
    for name, tok in zip(("nx", "ny", "x0", "x1", "y0", "y1", "k1", "k2", "k0", "eps"), head[2:]):
        kind = int if name in ("nx", "ny", "eps") else float
        try:
            fields.append(kind(tok))
        except ValueError:
            raise ValueError(f"{path}: header field {name} must be {kind.__name__}, got {tok!r}") from None
    nx, ny, x0, x1, y0, y1, k1, k2, k0, eps = fields
    _check_grid(nx, ny, (x0, x1, y0, y1))
    converged = True
    numbers = []
    for line in raw[1:]:
        if line.startswith("#"):
            converged = "converged=false" not in line
            continue
        for tok in line.split():
            try:
                numbers.append(float(tok))
            except ValueError:
                k = len(numbers)
                raise ValueError(f"{path}: node ({k // ny}, {k % ny}) holds {tok!r}, not a number") from None
    if len(numbers) != nx * ny:
        raise ValueError(f"expected {nx * ny} values, found {len(numbers)}")
    values = np.array(numbers).reshape(nx, ny)
    if not np.isfinite(values).all():
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise ValueError(f"{path}: node ({i}, {j}) holds the non-finite value {values[i, j]:g}")
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
