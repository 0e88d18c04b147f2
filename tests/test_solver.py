import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as splinalg
from conftest import CLOSED_FORMS

from minsurf import assembly, curvature, solver, surfaces
from minsurf.geometry2d import frame_at
from minsurf.jets import IDX
from minsurf.solver import (GridSolution, NoConvergence, SingularJacobian, TooCloseToBoundary,
                            as_surface, grid_jets, load_solution, save_solution, solve_minimal)
from minsurf.surfaces import EUCLIDEAN, LORENTZIAN, AmbientMetric

SCHERK = CLOSED_FORMS["scherk"]

# 1-D central stencils over offsets -2..2 for derivative orders 0..3
STENCILS = ([0.0, 0.0, 1.0, 0.0, 0.0], [0.0, -0.5, 0.0, 0.5, 0.0],
            [0.0, 1.0, -2.0, 1.0, 0.0], [-0.5, 1.0, 0.0, -1.0, 0.5])


def pointwise_grid_jet(sol, x, y):
    """Reference: the single-node jet, one dx @ block @ dy product per slot."""
    i = int(round((x - sol.x_range[0]) / sol.hx))
    j = int(round((y - sol.y_range[0]) / sol.hy))
    block = sol.values[i - 2:i + 3, j - 2:j + 3]
    c = np.zeros(len(IDX))
    for (a, b), slot in IDX.items():
        c[slot] = (np.array(STENCILS[a]) / sol.hx ** a) @ block @ (np.array(STENCILS[b]) / sol.hy ** b)
    return c


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def test_linear_boundary_is_exact():
    sol = solve_minimal(lambda x, y: 2.0 * np.asarray(x) - np.asarray(y), EUCLIDEAN, grid=(17, 17))
    xs, ys = np.meshgrid(sol.xs, sol.ys, indexing="ij")
    assert np.abs(sol.values - (2.0 * xs - ys)).max() < 1e-12
    assert sol.converged
    assert len(sol.residual_history) <= 3  # converges within two iterations


def test_constant_boundary():
    sol = solve_minimal(lambda x, y: np.full(np.shape(x), 4.5), EUCLIDEAN, grid=(9, 9))
    assert np.abs(sol.values - 4.5).max() < 1e-13


def test_scherk_second_order_convergence():
    errs = {}
    for n in (33, 65):
        sol = solve_minimal(SCHERK, EUCLIDEAN, grid=(n, n))
        assert sol.converged and sol.residual_history[-1] < 1e-10
        xs, ys = np.meshgrid(sol.xs, sol.ys, indexing="ij")
        errs[n] = np.abs(sol.values - SCHERK(xs, ys)).max()
    assert 3.5 <= errs[33] / errs[65] <= 4.5


def test_residual_history_monotone_and_quadratic_tail():
    sol = solve_minimal(SCHERK, EUCLIDEAN, grid=(33, 33))
    hist = sol.residual_history
    assert all(b <= a * (1 + 1e-12) for a, b in zip(hist, hist[1:]))
    # quadratic contraction over the last two accepted steps
    assert hist[-1] <= 10.0 * hist[-2] ** 2


def test_no_convergence_carries_history():
    with pytest.raises(NoConvergence) as err:
        solve_minimal(SCHERK, EUCLIDEAN, grid=(33, 33), max_iter=1, tol=1e-12)
    sol = err.value.solution
    assert not sol.converged
    assert len(sol.residual_history) == 2


def test_argument_validation():
    with pytest.raises(ValueError):
        solve_minimal(SCHERK, EUCLIDEAN, grid=(2, 9))
    with pytest.raises(ValueError):
        solve_minimal(SCHERK, EUCLIDEAN, grid=(9, 9), tol=0.0)


def test_lorentzian_rho_sign_change_raises():
    # phi = 1.5 x y has rho = 1 + 2.25 (y^2 - x^2) in this ambient: both
    # signs occur on the unit square, which must abort the iteration
    with pytest.raises(SingularJacobian):
        solve_minimal(lambda x, y: 1.5 * np.asarray(x) * np.asarray(y),
                      LORENTZIAN, grid=(17, 17))


def test_save_load_roundtrip(tmp_path):
    sol = solve_minimal(SCHERK, EUCLIDEAN, grid=(17, 17))
    path = tmp_path / "scherk.minsurf"
    save_solution(sol, path)
    back = load_solution(path)
    assert back.converged
    assert (back.nx, back.ny) == (17, 17)
    assert back.ambient == sol.ambient
    np.testing.assert_array_equal(back.values, sol.values)


def test_save_writes_each_value_as_format_17g(tmp_path):
    # the row template must spell every double as format(v, ".17g") does,
    # signed zero, subnormals, the largest double and the exponent switches included
    edge = [-0.0, 0.0, 5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max,
            1e-5, 1e-4, 1e16, 1e17, 0.1, 1.0 / 3.0, -2.5]
    rng = np.random.default_rng(7)
    spread = rng.choice([-1.0, 1.0], 5 * 40) * 10.0 ** rng.uniform(-300, 300, 5 * 40)
    values = np.concatenate([edge, spread, np.zeros(5 * 43 - len(edge) - spread.size)]).reshape(5, 43)
    sol = GridSolution(5, 43, (0.0, 1.0), (0.0, 1.0), values, EUCLIDEAN, converged=True)
    path = tmp_path / "edge.minsurf"
    save_solution(sol, path)
    rows = path.read_text().splitlines()[1:]
    assert rows == [" ".join(format(v, ".17g") for v in r) for r in values]
    assert_bits_equal(load_solution(path).values, values)


def test_save_marks_unconverged(tmp_path):
    sol = solve_minimal(SCHERK, EUCLIDEAN, grid=(17, 17))
    sol.converged = False
    path = tmp_path / "bad.minsurf"
    save_solution(sol, path)
    assert "# converged=false" in path.read_text()
    assert not load_solution(path).converged


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not a solution\n")
    with pytest.raises(ValueError):
        load_solution(path)
    path.write_text("minsurf v1 3 3 0 1 0 1 1 1 0 1\n1 2 3\n")
    with pytest.raises(ValueError, match="expected 9 values"):
        load_solution(path)


def test_grid_jets_linear_solution_exact():
    sol = solve_minimal(lambda x, y: 2.0 * np.asarray(x) - np.asarray(y), EUCLIDEAN, grid=(17, 17))
    jet = grid_jets(sol, (0.1, -0.2))
    assert jet.partial(1, 0) == pytest.approx(2.0, abs=1e-10)
    assert jet.partial(0, 1) == pytest.approx(-1.0, abs=1e-10)
    for (i, j), slot in IDX.items():
        if i + j >= 2:
            assert abs(jet.c[slot]) < 1e-10, (i, j)


def test_grid_jets_match_closed_form_at_stated_orders():
    """Coefficient error vs the closed form shrinks at O(h^2) for orders
    <= 2 and at least O(h) for order 3 between the 65 and 129 grids."""
    spx = surfaces.scherk()
    errs = {}
    for n in (65, 129):
        sol = solve_minimal(SCHERK, EUCLIDEAN, grid=(n, n))
        i = round((0.3 - sol.x_range[0]) / sol.hx)
        j = round((0.2 - sol.y_range[0]) / sol.hy)
        node = (sol.xs[i], sol.ys[j])
        exact = spx.phi_jet(np.array([node[0]]), np.array([node[1]]))
        jet = grid_jets(sol, node)
        errs[n] = {order: 0.0 for order in range(4)}
        for (a, b), slot in IDX.items():
            errs[n][a + b] = max(errs[n][a + b], abs(jet.c[slot] - exact.c[slot][0]))
    for order in (1, 2):
        assert errs[65][order] / errs[129][order] > 3.0, order
        assert errs[129][order] < 1e-2
    assert errs[65][3] / errs[129][3] > 1.8
    assert errs[129][3] < 0.1


def test_grid_jets_too_close_to_boundary():
    sol = solve_minimal(SCHERK, EUCLIDEAN, grid=(17, 17))
    with pytest.raises(TooCloseToBoundary):
        grid_jets(sol, (-1.0, 0.0))
    with pytest.raises(TooCloseToBoundary):
        grid_jets(sol, (0.0, 0.999))


def test_batched_grid_jets_equal_pointwise_reference():
    # hy = 2/40 is not a power of two, so the rounding of every product counts
    sol = solve_minimal(SCHERK, EUCLIDEAN, grid=(65, 41))
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0 + 2 * sol.hx, 1.0 - 2 * sol.hx, (4, 50))
    y = rng.uniform(-1.0 + 2 * sol.hy, 1.0 - 2 * sol.hy, (4, 50))
    x[0, :5], y[0, :5] = sol.xs[2:7], sol.ys[2:7]  # exactly on nodes
    x[1, :5] = (sol.xs[10:15] + sol.xs[11:16]) / 2  # halfway between nodes
    want = np.stack([pointwise_grid_jet(sol, a, b) for a, b in zip(x.ravel(), y.ravel())], axis=-1)
    assert_bits_equal(grid_jets(sol, (x, y)).c, want.reshape((len(IDX),) + x.shape))
    for k in (0, 7, 120):
        assert_bits_equal(grid_jets(sol, (x.flat[k], y.flat[k])).c, want[:, k])
    assert_bits_equal(as_surface(sol).phi_jet(x[2], y[2]).c, want[:, 100:150])


def test_grid_jets_one_bad_point_rejects_batch():
    sol = solve_minimal(SCHERK, EUCLIDEAN, grid=(17, 17))
    x = np.array([0.0, 0.1, -1.0, 0.2])
    with pytest.raises(TooCloseToBoundary, match=r"node \(0, 8\)"):
        grid_jets(sol, (x, np.zeros(4)))


def test_grid_fed_ricci_residual_shrinks_under_refinement():
    cfg = assembly.AssemblyConfig(1, (1,), 0.0, 0.0, 0.0)
    res = {}
    for n in (65, 129):
        sol = solve_minimal(SCHERK, EUCLIDEAN, grid=(n, n))
        fr = frame_at(as_surface(sol), (0.3, 0.2))
        ric, _, denom = curvature.ricci_arrays(*assembly.assemble_arrays(fr, cfg))
        res[n] = np.abs(ric.dense()).max() / denom[0]
    assert res[65] / res[129] > 2.0


# ---------------------------------------------------------------------------
# the shared stencil: bits of the residual, the Jacobian and the floor
# ---------------------------------------------------------------------------

#: Euclidean, Lorentzian, a skew Euclidean one, and one with k0 != 0 and eps = -1
AMBIENTS = (EUCLIDEAN, LORENTZIAN, AmbientMetric(2.0, 0.5, 0.3, 1), AmbientMetric(1.0, 2.0, 0.3, -1))


def reference_derivs(U, hx, hy):
    """The solver's former hand-written interior stencil."""
    Ux = (U[2:, 1:-1] - U[:-2, 1:-1]) / (2 * hx)
    Uy = (U[1:-1, 2:] - U[1:-1, :-2]) / (2 * hy)
    Uxx = (U[2:, 1:-1] - 2 * U[1:-1, 1:-1] + U[:-2, 1:-1]) / hx ** 2
    Uyy = (U[1:-1, 2:] - 2 * U[1:-1, 1:-1] + U[1:-1, :-2]) / hy ** 2
    Uxy = (U[2:, 2:] - U[2:, :-2] - U[:-2, 2:] + U[:-2, :-2]) / (4 * hx * hy)
    return Ux, Uy, Uxx, Uyy, Uxy


def reference_residual(U, amb, hx, hy):
    Ux, Uy, Uxx, Uyy, Uxy = reference_derivs(U, hx, hy)
    A, B, C = amb.pde_coefficients(Ux, Uy)
    return A * Uxx + B * Uxy + C * Uyy


def reference_floor(U, amb, hx, hy):
    Ux, Uy, _, _, _ = reference_derivs(U, hx, hy)
    A, B, C = amb.pde_coefficients(Ux, Uy)
    a = np.abs(U)
    terms = (np.abs(A) * (a[2:, 1:-1] + 2 * a[1:-1, 1:-1] + a[:-2, 1:-1]) / hx ** 2
             + np.abs(B) * (a[2:, 2:] + a[2:, :-2] + a[:-2, 2:] + a[:-2, :-2]) / (4 * hx * hy)
             + np.abs(C) * (a[1:-1, 2:] + 2 * a[1:-1, 1:-1] + a[1:-1, :-2]) / hy ** 2)
    return np.finfo(float).eps * float(terms.max())


def reference_jacobian(U, amb, hx, hy):
    """The solver's former Jacobian with hand-derived conditional weights."""
    nx, ny = U.shape
    mi, mj = nx - 2, ny - 2
    Ux, Uy, Uxx, Uyy, Uxy = reference_derivs(U, hx, hy)
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
    return sparse.coo_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(mi * mj, mi * mj)).tocsr()


def row_major(shape):
    """The rank of each interior node in the row-major numbering."""
    return np.arange(np.prod(shape)).reshape(shape)


def spacing(shape, box):
    return (box[1] - box[0]) / (shape[0] - 1), (box[3] - box[2]) / (shape[1] - 1)


@pytest.mark.parametrize("shape, box", [((33, 33), (-1.0, 1.0, -1.0, 1.0)),
                                        ((33, 41), (-1.0, 1.0, -1.0, 1.0)),
                                        ((17, 23), (-0.3, 1.9, 0.25, 0.8)),
                                        ((65, 65), (-1.0, 1.0, -1.0, 1.0))])
def test_shared_stencil_keeps_residual_jacobian_and_floor_bits(shape, box):
    hx, hy = spacing(shape, box)
    X, Y = np.meshgrid(np.linspace(*box[:2], shape[0]), np.linspace(*box[2:], shape[1]), indexing="ij")
    fields = (np.random.default_rng(shape[0] * shape[1]).uniform(-1.0, 1.0, shape),
              0.7 - 1.3 * X + 0.4 * Y + 0.9 * X * Y,
              np.zeros(shape))
    for amb in AMBIENTS:
        for U in fields:
            d, coeffs, F = solver._operator(U, amb, hx, hy)
            assert_bits_equal(F, reference_residual(U, amb, hx, hy))
            J = solver._jacobian(d, coeffs, amb, hx, hy, solver._pattern(row_major(F.shape)))
            want = reference_jacobian(U, amb, hx, hy)
            for got, ref in ((J.data, want.data), (J.indices, want.indices), (J.indptr, want.indptr)):
                assert_bits_equal(got, ref)
            assert solver._rounding_floor(U, coeffs, hx, hy) == reference_floor(U, amb, hx, hy)


@pytest.mark.parametrize("amb", [EUCLIDEAN, LORENTZIAN, AmbientMetric(1.0, 2.0, 0.3, -1)])
def test_jacobian_is_derivative_of_residual(amb):
    # F is cubic in U, so the central quotient errs by t^2/6 times F's third
    # derivative along v: 4.5e-10 to 5.3e-10 of max |J v| on these three at
    # t = 1e-5, against a 1e-8 gate; one wrong term in J is far above it
    shape = (17, 23)
    hx, hy = spacing(shape, (-0.3, 1.9, 0.25, 0.8))
    rng = np.random.default_rng(5)
    U = 0.3 * rng.uniform(-1.0, 1.0, shape)
    v = np.zeros(shape)
    v[1:-1, 1:-1] = rng.uniform(-1.0, 1.0, (shape[0] - 2, shape[1] - 2))
    d, coeffs, F = solver._operator(U, amb, hx, hy)
    Jv = solver._jacobian(d, coeffs, amb, hx, hy, solver._pattern(row_major(F.shape))) @ v[1:-1, 1:-1].ravel()
    t = 1e-5
    quotient = (solver._operator(U + t * v, amb, hx, hy)[2]
                - solver._operator(U - t * v, amb, hx, hy)[2]).ravel() / (2 * t)
    assert np.abs(Jv - quotient).max() <= 1e-8 * np.abs(Jv).max()


def test_stencil_runs_once_per_grid_function(monkeypatch):
    grids, impulses = [], []
    real = solver.central_differences

    def spy(at, hx, hy):
        centre = at(0, 0)
        (grids if np.ndim(centre) == 2 else impulses).append(np.array(centre))
        return real(at, hx, hy)

    monkeypatch.setattr(solver, "central_differences", spy)
    sol = solve_minimal(SCHERK, EUCLIDEAN, grid=(65, 65))
    # each Newton step of this solve takes the full step, so the grid
    # functions evaluated are the Coons patch plus one trial per step
    steps = len(sol.residual_history) - 1
    assert steps >= 2 and len(grids) == steps + 1
    assert not any(np.array_equal(a, b) for k, a in enumerate(grids) for b in grids[k + 1:])
    np.testing.assert_array_equal(grids[-1], sol.values[1:-1, 1:-1])
    assert len(impulses) == 9 * steps  # the weights of each Jacobian: one unit impulse per offset


# ---------------------------------------------------------------------------
# the solver's failure paths, reached through a patched sparse solve
# ---------------------------------------------------------------------------

def counted_trials(monkeypatch):
    """The list of grid functions that _operator is asked for from here on."""
    operator, trials = solver._operator, []

    def counted(U, *args):
        trials.append(U)
        return operator(U, *args)

    monkeypatch.setattr(solver, "_operator", counted)
    return trials


def patched_spsolve(monkeypatch, step):
    """Make each direct Newton step ``step(newton_step)``; returns the list of
    trial grid functions that _operator is asked for, the initial guess first."""
    spsolve = solver.splinalg.spsolve
    monkeypatch.setattr(solver.splinalg, "spsolve", lambda J, b, **kw: step(spsolve(J, b, **kw)))
    return counted_trials(monkeypatch)


def patched_step(monkeypatch, step):
    """Make each Newton step ``step(newton_step)``, direct or GMRES, at the one
    function every linear solve goes through; returns the trials as above."""
    newton_step = solver._newton_step

    def patched(*args):
        delta, by_gmres = newton_step(*args)
        return step(delta), by_gmres

    monkeypatch.setattr(solver, "_newton_step", patched)
    return counted_trials(monkeypatch)


def all_direct(monkeypatch):
    """Make every Newton step a direct solve, as after a GMRES miss."""
    newton_step = solver._newton_step
    monkeypatch.setattr(solver, "_newton_step", lambda J, F, order, rank, krylov: newton_step(J, F, order, rank))


def test_sparse_solve_that_raises_is_singular_jacobian(monkeypatch):
    def fails(J, b, **kw):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(solver.splinalg, "spsolve", fails)
    with pytest.raises(SingularJacobian, match="sparse solve failed: Factor is exactly singular"):
        solve_minimal(SCHERK, EUCLIDEAN, grid=(9, 9))


def test_non_finite_step_is_singular_jacobian(monkeypatch):
    patched_spsolve(monkeypatch, lambda delta: np.where(np.arange(delta.size) == 4, np.nan, delta))
    with pytest.raises(SingularJacobian, match="non-finite step"):
        solve_minimal(SCHERK, EUCLIDEAN, grid=(9, 9))


def test_armijo_halves_a_step_that_overshoots(monkeypatch):
    # near the solution twice the Newton step leaves the residual at about its
    # old size, so the line search halves it, to the Newton step, and the
    # solve converges; each step tries at most twice
    trials = patched_step(monkeypatch, lambda delta: 2.0 * delta)
    sol = solve_minimal(SCHERK, EUCLIDEAN, grid=(9, 9))
    steps = len(sol.residual_history) - 1
    halvings = len(trials) - 1 - steps  # less the initial guess and one accepted trial per step
    assert sol.converged and 1 <= halvings <= steps
    np.testing.assert_array_equal(trials[-1], sol.values)


def test_line_search_stalls_on_an_ascent_step(monkeypatch):
    # minus the Newton step raises the residual at every length tried
    trials = patched_spsolve(monkeypatch, lambda delta: -delta)
    with pytest.raises(NoConvergence, match="line search stalled") as err:
        solve_minimal(SCHERK, EUCLIDEAN, grid=(9, 9))
    assert len(trials) == 1 + solver.MAX_HALVINGS + 1
    sol = err.value.solution
    assert not sol.converged and len(sol.residual_history) == 1
    np.testing.assert_array_equal(sol.values, trials[0])


def test_line_search_stalls_on_an_ascent_step_whose_squares_overflow(monkeypatch):
    # |F| is about 1e155 here, so sum(F^2) would read inf on both sides of the
    # Armijo test and accept every ascent step; in units of max |F| it stalls
    trials = patched_step(monkeypatch, lambda delta: -delta)
    with pytest.raises(NoConvergence, match="line search stalled"):
        solve_minimal(SCHERK, AmbientMetric(1e154, 1e154, 0.0, 1), grid=(9, 9))
    assert len(trials) == 1 + solver.MAX_HALVINGS + 1


# ---------------------------------------------------------------------------
# the nested-dissection numbering of each Newton step, against SuperLU's orderings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 9), (9, 2), (2, 2), (3, 3),
                                   (31, 31), (32, 32), (31, 32), (64, 17), (255, 31), (31, 255)])
def test_dissection_is_a_permutation(shape):
    order = solver._dissection(*shape)
    np.testing.assert_array_equal(np.sort(order), np.arange(np.prod(shape)))
    assert not order.flags.writeable  # the memoized array is shared between solves


def test_dissection_numbers_the_separator_last():
    # the middle row of a 7 x 5 grid splits it; each 3 x 5 half is split by
    # its middle column, and each 3 x 2 quarter is split by its middle row
    order = solver._dissection(7, 5)
    np.testing.assert_array_equal(order[-5:], np.arange(15, 20))
    np.testing.assert_array_equal(order[:15], [0, 1, 10, 11, 5, 6, 3, 4, 13, 14, 8, 9, 2, 7, 12])


def coons_scherk_jacobians(n):
    """The row-major and the dissection-numbered Jacobian of the first Newton step
    of Scherk on an n x n grid over the default square."""
    h = 2.0 / (n - 1)
    xs = np.linspace(-1.0, 1.0, n)
    U = solver._coons_patch(SCHERK, xs, xs)
    d, coeffs, F = solver._operator(U, EUCLIDEAN, h, h)
    patterns = solver._pattern(row_major(F.shape)), solver._numbering(*F.shape)[2]
    return tuple(solver._jacobian(d, coeffs, EUCLIDEAN, h, h, pattern) for pattern in patterns)


@pytest.mark.parametrize("n", [17, 34, 129, 257])
def test_dissection_jacobian_is_the_permuted_row_major_jacobian(n):
    J, got = coons_scherk_jacobians(n)
    order = solver._dissection(n - 2, n - 2)
    want = J[order][:, order]  # P J P^T, P the permutation that numbers node order[k] as k
    want.sort_indices()
    for a, b in ((got.data, want.data), (got.indices, want.indices), (got.indptr, want.indptr)):
        assert_bits_equal(a, b)


@pytest.mark.parametrize("n", [65, 129])
def test_dissection_fills_less_than_minimum_degree(n):
    J, nested = coons_scherk_jacobians(n)
    mmd = splinalg.splu(J.tocsc(), permc_spec="MMD_AT_PLUS_A")
    nd = splinalg.splu(nested.tocsc(), permc_spec="NATURAL")
    assert nd.L.nnz + nd.U.nnz < mmd.L.nnz + mmd.U.nnz


def test_newton_steps_keep_the_dissection_numbering(monkeypatch):
    spsolve, orderings = solver.splinalg.spsolve, []

    def spy(J, b, **kw):
        orderings.append(kw.get("permc_spec"))
        return spsolve(J, b, **kw)

    monkeypatch.setattr(solver.splinalg, "spsolve", spy)
    all_direct(monkeypatch)
    sol = solve_minimal(SCHERK, EUCLIDEAN, grid=(17, 17))
    assert orderings == ["NATURAL"] * (len(sol.residual_history) - 1)


CATENOID = surfaces.get("catenoid")


#: (boundary, ambient, grid, domain) of solves that converge in a few Newton steps
ROUND_OFF_CASES = [
    pytest.param(SCHERK, EUCLIDEAN, (33, 33), (-1.0, 1.0, -1.0, 1.0), id="scherk33"),
    pytest.param(lambda x, y: CATENOID.phi_jet(x, y).value, EUCLIDEAN, (65, 65), CATENOID.domain,
                 id="catenoid65"),
    pytest.param(SCHERK, AmbientMetric(2.0, 1.0, 0.5, 1), (65, 65), (-0.5, 0.5, -0.5, 0.5), id="scherk65-skew"),
    pytest.param(SCHERK, AmbientMetric(1.0, 1.0, 0.0, -1), (65, 65), (-0.4, 0.4, -0.4, 0.4),
                 id="scherk65-eps-minus")]


@pytest.mark.parametrize("boundary, ambient, grid, domain", ROUND_OFF_CASES)
def test_minimum_degree_solve_matches_colamd_within_round_off(monkeypatch, boundary, ambient, grid, domain):
    # the solve's nested-dissection numbering against SuperLU's default COLAMD
    # ordering, every step direct: an ordering only permutes the LU's
    # eliminations, so the solution moves by round-off, against a gate of 8 eps max|U|
    all_direct(monkeypatch)
    got = solve_minimal(boundary, ambient, grid=grid, domain=domain)
    spsolve = solver.splinalg.spsolve
    monkeypatch.setattr(solver.splinalg, "spsolve",
                        lambda J, b, **kw: spsolve(J, b, **{**kw, "permc_spec": "COLAMD"}))
    ref = solve_minimal(boundary, ambient, grid=grid, domain=domain)
    assert got.converged and ref.converged
    assert len(got.residual_history) == len(ref.residual_history)
    assert got.residual_history[0] == ref.residual_history[0]
    assert np.abs(got.values - ref.values).max() <= 8 * np.finfo(float).eps * np.abs(ref.values).max()


# ---------------------------------------------------------------------------
# Newton steps past the size crossover: sine-transform-preconditioned GMRES
# ---------------------------------------------------------------------------

def gmres_calls(monkeypatch):
    """The list of info codes of the GMRES cycles the solver runs from here on."""
    gmres, infos = solver.splinalg.gmres, []

    def spy(*args, **kw):
        x, info = gmres(*args, **kw)
        infos.append(info)
        return x, info

    monkeypatch.setattr(solver.splinalg, "gmres", spy)
    return infos


@pytest.mark.parametrize("boundary, ambient, grid, domain", [
    pytest.param(SCHERK, EUCLIDEAN, (65, 65), (-1.0, 1.0, -1.0, 1.0), id="scherk65"),
    *ROUND_OFF_CASES[1:],
    pytest.param(SCHERK, AmbientMetric(10.0, 1.0, 0.0, 1), (65, 65), (-1.0, 1.0, -1.0, 1.0), id="scherk65-k1-10"),
    pytest.param(SCHERK, EUCLIDEAN, (129, 65), (-1.0, 1.0, -1.0, 1.0), id="scherk129x65")])
def test_gmres_steps_match_the_all_direct_solve_within_round_off(monkeypatch, boundary, ambient, grid, domain):
    # every step, the first from the Coons patch included, is a GMRES step
    # that stops within round-off of the direct step, and the solutions differ
    # by 0.6 to 5.0 eps max|U| on these and at 257^2, against 8
    infos = gmres_calls(monkeypatch)
    got = solve_minimal(boundary, ambient, grid=grid, domain=domain)
    all_direct(monkeypatch)
    ref = solve_minimal(boundary, ambient, grid=grid, domain=domain)
    assert got.converged and ref.converged
    steps = len(ref.residual_history) - 1
    assert len(got.residual_history) == steps + 1
    assert len(infos) == steps and not any(infos)  # each step met its tolerance
    assert got.residual_history[0] == ref.residual_history[0]
    assert np.abs(got.values - ref.values).max() <= 8 * np.finfo(float).eps * np.abs(ref.values).max()


@pytest.mark.parametrize("grid", [(9, 9), (17, 17), (33, 33), (65, 33)], ids="{0[0]}x{0[1]}".format)
def test_solves_below_the_crossover_are_all_direct(monkeypatch, grid):
    # fewer than GMRES_MIN_UNKNOWNS interior nodes: no step runs a GMRES cycle
    assert (grid[0] - 2) * (grid[1] - 2) < solver.GMRES_MIN_UNKNOWNS
    infos = gmres_calls(monkeypatch)
    got = solve_minimal(SCHERK, EUCLIDEAN, grid=grid)
    assert infos == []
    all_direct(monkeypatch)
    ref = solve_minimal(SCHERK, EUCLIDEAN, grid=grid)
    assert got.converged and got.residual_history == ref.residual_history
    assert_bits_equal(got.values, ref.values)


HELICOID = surfaces.get("helicoid")


@pytest.mark.parametrize("boundary, ambient, domain, attempts", [
    # a Lorentzian g0 gives A and C opposite signs: no step tries GMRES
    (lambda x, y: 0.2 * np.asarray(x) ** 2 + 0.1 * np.asarray(y) ** 3, LORENTZIAN, (-0.5, 0.5, -0.5, 0.5), 0),
    # the helicoid's Newton path climbs before it converges: the first step's
    # GMRES cycle misses its tolerance, and that step and the rest are direct
    (lambda x, y: HELICOID.phi_jet(x, y).value, EUCLIDEAN, HELICOID.domain, 1)],
    ids=["lorentzian-hyperbolic", "helicoid-falls-back"])
def test_solves_gmres_does_not_fit_keep_the_all_direct_bits(monkeypatch, boundary, ambient, domain, attempts):
    infos = gmres_calls(monkeypatch)
    got = solve_minimal(boundary, ambient, grid=(65, 65), domain=domain)
    assert len(infos) == attempts and all(infos)
    all_direct(monkeypatch)
    ref = solve_minimal(boundary, ambient, grid=(65, 65), domain=domain)
    assert got.converged and len(got.residual_history) > 2
    assert got.residual_history == ref.residual_history
    assert_bits_equal(got.values, ref.values)
