import inspect
import math

import numpy as np
import pytest
from conftest import interior_batch, interior_points

from minsurf import frame_at, surfaces
from minsurf.jets import DomainError
from minsurf.surfaces import (AmbientMetric, InadmissiblePoint, bi_wave, catalog, get,
                              SurfaceSpec, nonminimal_x2, plane, residual_values, scherk)

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
    assert np.all(residual_values(spec, *interior_batch(spec, 50, seed=2)) == 0.0)


def test_plane_zero_tilt_rho_one():
    spec = plane(0.0, 0.0, 3.0)
    x = np.linspace(-1, 1, 7)
    f = spec.phi_jet(x, x)
    assert np.abs(spec.ambient.rho(f.partial(1, 0), f.partial(0, 1)) - 1.0).max() == 0.0


def test_residual_x2_is_two():
    # (1 + 0) * 2 - 0 + (1 + 4x^2) * 0 = 2 for any point
    res = residual_values(nonminimal_x2(), np.array([0.5, -0.3, 0.0]), np.array([0.5, 0.9, 0.0]))
    assert res == pytest.approx(np.full(3, 2.0), abs=1e-14)


def test_residual_scherk_and_plane_zero():
    assert abs(residual_values(scherk(), 0.3, 0.2)) < 1e-12
    assert residual_values(plane(2.0, -1.0, 0.5), 0.1, -0.7) == 0.0


def test_mean_curvature_examples():
    assert np.abs(frame_at(scherk(), ([0.3, -1.1], [0.2, 0.8])).H).max() < 1e-12
    # phi = x^2 at a critical point: rho = 1, h inverse = identity, H = 2
    assert frame_at(nonminimal_x2(), (0.0, 0.4)).H[0] == pytest.approx(2.0, abs=1e-14)
    assert frame_at(plane(), (0.2, 0.2)).H[0] == 0.0


def test_mean_curvature_proportional_to_residual():
    # H = residual / (det g0 * rho^{3/2}); the two are computed by
    # independent formulas, so this pins the factor structure numerically
    spec = nonminimal_x2()
    x, y = interior_batch(spec, 20, seed=5)
    H = frame_at(spec, (x, y)).H
    res = residual_values(spec, x, y)
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
    assert np.all(spec.ambient.rho(f.partial(1, 0), f.partial(0, 1)) > 0.0)
    amb = spec.ambient
    assert np.all(np.abs(amb.k1 + amb.eps * f.partial(1, 0) ** 2) > 1e-12)
    assert np.all(np.abs(amb.k2 + amb.eps * f.partial(0, 1) ** 2) > 1e-12)


def test_inadmissible_points_raise():
    """frame_at rejects a batch in which one point is inadmissible, and
    accepts the same batch without it."""
    for spec, bad in ((scherk(), (2.0, 0.0)),  # outside the domain box
                      (bi_wave(), (0.31, -0.31)),  # inside box impossible; outside box
                      (get("catenoid"), (0.5, 0.0)),
                      (SurfaceSpec("half", plane().phi, surfaces.EUCLIDEAN, (-1.0, 1.0, -1.0, 1.0),
                                   admissible=lambda x, y: x > 0.0), (-0.5, 0.0))):  # in the box
        x, y = interior_batch(spec, 4, seed=8)
        frame_at(spec, (x, y))
        with pytest.raises(InadmissiblePoint) as exc:
            frame_at(spec, (np.insert(x, 2, bad[0]), np.insert(y, 2, bad[1])))
        assert "point ({:g}, {:g}) is outside the domain or admissible set of {};".format(
            *bad, spec.name) in str(exc.value)
        assert str(exc.value).endswith("its domain is x in [{:g}, {:g}], y in [{:g}, {:g}]".format(*spec.domain))
        with pytest.raises(InadmissiblePoint, match=r"^point \({:g}, {:g}\) is outside".format(*bad)):
            # two rejected points: the message names the first
            frame_at(spec, (np.insert(x, [1, 3], [bad[0], bad[0] + 10.0]), np.insert(y, [1, 3], bad[1])))
        with pytest.raises(InadmissiblePoint):
            frame_at(spec, bad)


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


@pytest.mark.parametrize("name", ["bi_wave", "bi_wave_minus"])
def test_wave_direction_is_its_name(name):
    # phi = F(x + d y) is minimal for every F only at d = +-1, so d is no parameter
    factory = surfaces._FACTORIES[name]
    assert list(inspect.signature(factory).parameters) == ["profile", "slope"]
    for d in (-1.0, 0.5, 1.0):
        with pytest.raises(ValueError) as exc:
            get(name, {"direction": d})
        assert str(exc.value) == f"surface '{name}' has no parameter 'direction' (have: profile, slope)"
    assert get(name).name == name


@pytest.mark.parametrize("name", ["bi_wave", "bi_wave_minus"])
def test_wave_slope_applies_to_linear_profile_only(name):
    with pytest.raises(ValueError) as exc:
        get(name, {"slope": 3.0})
    assert str(exc.value) == "slope applies to the linear profile only, got slope=3.0 with profile='sinh'"
    with pytest.raises(ValueError, match="linear profile only"):
        get(name, {"profile": "sinh", "slope": 0.5})
    assert get(name, {"profile": "sinh", "slope": 2.0}).name == name  # the default slope
    x, y = interior_batch(get(name), 5, seed=4)
    steep = get(name, {"profile": "linear", "slope": 3.0}).phi_jet(x, y)
    assert np.all(steep.partial(1, 0) == 3.0)


def test_helicoid_pitch_parameter():
    spec = get("helicoid", {"pitch": 2.0})
    x, y = 0.8, 0.3
    jet = spec.phi_jet(np.array([x]), np.array([y]))
    assert jet.value[0] == pytest.approx(2.0 * math.atan2(y, x), rel=1e-14)


def test_catenoid_jet_outside_real_branch_raises():
    # r < 1: sqrt(r^2 - 1) undefined; the admissible predicate fences this off
    with pytest.raises(DomainError):
        get("catenoid").phi_jet(np.array([0.5]), np.array([0.0]))
