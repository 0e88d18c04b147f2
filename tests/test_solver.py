import numpy as np
import pytest

from minsurf import assembly, curvature, surfaces
from minsurf.jets import IDX
from minsurf.solver import (NoConvergence, SingularJacobian, TooCloseToBoundary,
                            as_surface, grid_jets, load_solution, save_solution, solve_minimal)
from minsurf.surfaces import EUCLIDEAN, LORENTZIAN

SCHERK = lambda x, y: np.log(np.cos(np.asarray(y, dtype=float))) - np.log(np.cos(np.asarray(x, dtype=float)))

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
        spec = as_surface(sol)
        rep = curvature.ricci(assembly.assemble(spec, cfg, (0.3, 0.2)))
        res[n] = rep.normalized_ricci
    assert res[65] / res[129] > 2.0
