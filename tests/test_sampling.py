import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import qmc

from minsurf.cli import _ScrambledHalton

SRC = Path(__file__).resolve().parents[1] / "src"


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 12345, 2 ** 31 - 1, 2 ** 63 + 1, 2 ** 64 + 5])
def test_sampler_matches_scipy_halton_bit_for_bit(seed):
    ours, ref = _ScrambledHalton(seed), qmc.Halton(d=2, scramble=True, seed=seed)
    for n in (1, 31, 32, 5000, 1, 31, 32):  # the index continues across draws
        assert_same_bits(ours.random(n), ref.random(n))


def test_sampler_matches_scipy_past_index_2_17():
    ours, ref = _ScrambledHalton(42), qmc.Halton(d=2, scramble=True, seed=42)
    assert_same_bits(ours.random(2 ** 17 + 3), ref.random(2 ** 17 + 3))
    for n in (1, 31, 32, 5000):
        assert_same_bits(ours.random(n), ref.random(n))


def test_cold_import_loads_no_scipy(tmp_path):
    """Import and verify --surface load no scipy module; the solver loads on
    first use, and solve followed by verify --grid still work."""
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        sys.path.insert(0, {str(SRC)!r})
        import minsurf, minsurf.cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert minsurf.cli.main(["verify", "--surface", "plane"]) == 0
        loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
        assert not loaded, loaded
        assert minsurf.solve_minimal is minsurf.solver.solve_minimal
        from minsurf import GridSolution, NoConvergence
        assert "scipy.sparse.linalg" in sys.modules and "scipy.stats" not in sys.modules
        with contextlib.redirect_stdout(io.StringIO()):
            assert minsurf.cli.main(["solve", "--boundary", "scherk", "--grid", "17,17",
                                     "--out", "s.minsurf"]) == 0
            assert minsurf.cli.main(["verify", "--grid", "s.minsurf", "--samples", "20"]) in (0, 1)
        assert isinstance(minsurf.load_solution("s.minsurf"), GridSolution)
    """)
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_unknown_package_attribute_raises():
    import minsurf
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        minsurf.nope
