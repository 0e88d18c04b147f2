import math

import numpy as np
import pytest
from conftest import interior_points

from minsurf import mean_curvature, surfaces
from minsurf.jets import DomainError
from minsurf.surfaces import (AmbientMetric, InadmissiblePoint, bi_wave, catalog, get,
                              minimal_residual, nonminimal_x2, plane,
                              residual_values, rho_values, scherk)

MINIMAL = [s for s in catalog() if not s.non_minimal]


def test_catalog_names_and_control_flag():
    names = [s.name for s in catalog()]
    assert names == ["plane", "scherk", "helicoid", "catenoid", "bi_wave",
                     "bi_wave_minus", "nonminimal_x2"]
    assert [s.name for s in catalog() if s.non_minimal] == ["nonminimal_x2"]


@pytest.mark.parametrize("spec", MINIMAL, ids=lambda s: s.name)
def test_catalog_entries_exactly_minimal(spec):
    pts = interior_points(spec, 100, seed=1, shrink=0.0)
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    assert np.abs(residual_values(spec, x, y)).max() < 1e-10


def test_bi_wave_identity_for_linear_profile():
    spec = bi_wave(profile="linear", slope=2.0)
    for x, y in interior_points(spec, 50, seed=2):
        assert minimal_residual(spec, (x, y)) == 0.0


def test_plane_zero_tilt_rho_one():
    spec = plane(0.0, 0.0, 3.0)
    x = np.linspace(-1, 1, 7)
    assert np.abs(rho_values(spec, x, x) - 1.0).max() == 0.0


def test_residual_x2_is_two():
    # (1 + 0) * 2 - 0 + (1 + 4x^2) * 0 = 2 for any point
    spec = nonminimal_x2()
    for p in [(0.5, 0.5), (-0.3, 0.9), (0.0, 0.0)]:
        assert minimal_residual(spec, p) == pytest.approx(2.0, abs=1e-14)


def test_residual_scherk_and_plane_zero():
    assert abs(minimal_residual(scherk(), (0.3, 0.2))) < 1e-12
    assert minimal_residual(plane(2.0, -1.0, 0.5), (0.1, -0.7)) == 0.0


def test_mean_curvature_examples():
    assert abs(mean_curvature(scherk(), (0.3, 0.2))) < 1e-12
    assert abs(mean_curvature(scherk(), (-1.1, 0.8))) < 1e-12
    # phi = x^2 at a critical point: rho = 1, h inverse = identity, H = 2
    assert mean_curvature(nonminimal_x2(), (0.0, 0.4)) == pytest.approx(2.0, abs=1e-14)
    assert mean_curvature(plane(), (0.2, 0.2)) == 0.0


def test_mean_curvature_proportional_to_residual():
    # H = residual / (det g0 * rho^{3/2}); the two are computed by
    # independent formulas, so this pins the factor structure numerically
    spec = nonminimal_x2()
    for x, y in interior_points(spec, 20, seed=5):
        H = mean_curvature(spec, (x, y))
        res = minimal_residual(spec, (x, y))
        rho = 1.0 + 4.0 * x * x
        assert H == pytest.approx(res / (spec.ambient.det * rho ** 1.5), rel=1e-12)


@pytest.mark.parametrize("spec", [s for s in MINIMAL if s.ambient == surfaces.EUCLIDEAN],
                         ids=lambda s: s.name)
def test_euclidean_catalog_admissibility(spec):
    """rho > 0 and w1, w2 != 0 at every admissible point."""
    pts = interior_points(spec, 100, seed=3, shrink=0.0)
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    f = spec.phi_jet(x, y)
    assert np.all(rho_values(spec, x, y) > 0.0)
    amb = spec.ambient
    assert np.all(np.abs(amb.k1 + amb.eps * f.partial(1, 0) ** 2) > 1e-12)
    assert np.all(np.abs(amb.k2 + amb.eps * f.partial(0, 1) ** 2) > 1e-12)


def test_inadmissible_points_raise():
    with pytest.raises(InadmissiblePoint):
        minimal_residual(scherk(), (2.0, 0.0))  # outside the domain box
    with pytest.raises(InadmissiblePoint):
        mean_curvature(bi_wave(), (0.31, -0.31))  # inside box impossible; outside box
    cat = get("catenoid")
    with pytest.raises(InadmissiblePoint):
        minimal_residual(cat, (0.5, 0.0))


def test_ambient_validation():
    with pytest.raises(ValueError):
        AmbientMetric(1.0, 1.0, 1.0, 1)  # det = 0
    with pytest.raises(ValueError):
        AmbientMetric(1.0, 1.0, 0.0, 2)
    assert AmbientMetric(2.0, 3.0, 1.0, -1).det == 5.0


def test_get_unknown_surface():
    with pytest.raises(ValueError, match="unknown surface"):
        get("gyroid")
    with pytest.raises(ValueError, match="profile"):
        get("bi_wave", {"profile": "cubic"})


def test_helicoid_pitch_parameter():
    spec = get("helicoid", {"pitch": 2.0})
    x, y = 0.8, 0.3
    jet = spec.phi_jet(np.array([x]), np.array([y]))
    assert jet.value[0] == pytest.approx(2.0 * math.atan2(y, x), rel=1e-14)


def test_catenoid_jet_outside_real_branch_raises():
    # r < 1: sqrt(r^2 - 1) undefined; the admissible predicate fences this off
    with pytest.raises(DomainError):
        get("catenoid").phi_jet(np.array([0.5]), np.array([0.0]))
