"""Tests for the analytic surface handles and the parametric reference oracle."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from ctquad.kernels3d import kernel_values
from ctquad.surfaces import (
    _DEFAULT_DENSITY,
    NonUniqueProjectionError,
    TorusSpec,
    layer_potential_oracle,
    random_targets,
    tilted_torus,
    torus_density,
)

from helpers import (
    CubicGraph,
    Sphere,
    torus_density_from_angles,
    torus_exact_probe,
    torus_foot_and_normal_stacked,
    torus_parameters,
)


@pytest.fixture(scope="module")
def torus():
    return tilted_torus()


@pytest.fixture(scope="module")
def tube_points(torus):
    """Random points inside the torus tube (|d| < reach)."""
    rng = np.random.default_rng(42)
    theta, phi = rng.uniform(0, 2 * np.pi, size=(2, 100))
    eta = rng.uniform(-0.8, 0.8, size=100) * torus.reach
    on_surface = torus.param_point(theta, phi)
    return on_surface + eta[:, None] * torus.param_frame(theta, phi)["normal"]


def test_torus_fixture_parameters(torus):
    assert torus.spec.R1 == 0.7
    assert torus.spec.R2 == 0.2
    assert torus.reach == pytest.approx(0.2)


def test_torus_spec_validation():
    with pytest.raises(ValueError):
        TorusSpec(R1=0.2, R2=0.7)


def test_torus_distance_projection_identities(torus, tube_points):
    x = tube_points
    d = torus.distance(x)
    P = torus.project(x)
    n = torus.normal(x)
    np.testing.assert_allclose(np.linalg.norm(x - P, axis=-1), np.abs(d),
                               atol=1e-12)
    np.testing.assert_allclose(P, x - d[:, None] * n, atol=1e-12)
    np.testing.assert_allclose(torus.distance(P), 0.0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(n, axis=-1), 1.0, atol=1e-12)


def test_torus_projection_idempotent(torus, tube_points):
    P = torus.project(tube_points)
    np.testing.assert_allclose(torus.project(P), P, atol=1e-12)


def test_torus_gradient_is_fd_gradient(torus, tube_points):
    # central differences of the distance reproduce normal() everywhere
    h = 1e-6
    x = tube_points[:10]
    num = np.stack([
        (torus.distance(x + h * e) - torus.distance(x - h * e)) / (2 * h)
        for e in np.eye(3)
    ], axis=-1)
    np.testing.assert_allclose(num, torus.normal(x), atol=1e-8)


def test_torus_parameters_round_trip(torus, tube_points):
    P = torus.project(tube_points)
    theta, phi = torus_parameters(torus, P)
    np.testing.assert_allclose(torus.param_point(theta, phi), P, atol=1e-12)


def test_torus_param_frame_orthonormal(torus):
    rng = np.random.default_rng(1)
    theta, phi = rng.uniform(0, 2 * np.pi, size=(2, 50))
    fr = torus.param_frame(theta, phi)
    for a in ("t_theta", "t_phi", "normal"):
        np.testing.assert_allclose(np.linalg.norm(fr[a], axis=-1), 1.0,
                                   atol=1e-12)
    np.testing.assert_allclose(np.sum(fr["t_theta"] * fr["normal"], axis=-1),
                               0.0, atol=1e-12)
    np.testing.assert_allclose(np.sum(fr["t_phi"] * fr["normal"], axis=-1),
                               0.0, atol=1e-12)
    np.testing.assert_allclose(np.sum(fr["t_theta"] * fr["t_phi"], axis=-1),
                               0.0, atol=1e-12)


def test_torus_area_element(torus):
    # periodic trapezoid of dsigma is spectrally exact: total area 4 pi^2 R1 R2
    n = 128
    g = 2 * np.pi * np.arange(n) / n
    TH, PH = np.meshgrid(g, g, indexing="ij")
    area = np.sum(torus.param_frame(TH, PH)["dsigma"]) * (2 * np.pi / n) ** 2
    assert area == pytest.approx(4 * np.pi**2 * 0.7 * 0.2, rel=1e-12)


def test_torus_medial_axis_raises(torus, tube_points):
    """Projection and density raise on the symmetry axis and on the tube's
    center circle, before any division warns; off the medial axis nothing
    warns."""
    axis_point = torus.to_world(np.array([0.0, 0.0, 0.1]))
    center_circle = torus.to_world(np.array([0.7, 0.0, 0.0]))
    methods = (torus.project, torus.normal, torus.foot_and_normal,
               torus.density_at)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method in methods:
            for x in (axis_point, center_circle):
                with pytest.raises(NonUniqueProjectionError):
                    method(x)
            method(tube_points)


def test_torus_columns_match_stacked_reference(torus, tube_points):
    """Feet and normals are bit-identical to the (..., 3)-stack form, and
    the trig-free density is within 8 eps of the atan2 form per unit of
    coefficient size, for the default coefficients and another set.  The
    points: tube_points, a (5, 5, 5, 3) lattice block about a surface point
    and 10^5 seeded random points inside the tube."""
    grid = 0.02 * np.arange(-2, 3)
    block = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1)
    rng = np.random.default_rng(2024)
    theta, phi = rng.uniform(0, 2 * np.pi, size=(2, 100_000))
    eta = rng.uniform(-0.99, 0.99, size=theta.size) * torus.reach
    inside = (torus.param_point(theta, phi)
              + eta[:, None] * torus.param_frame(theta, phi)["normal"])
    coefficient_sets = (None, (-0.4, 1.7, 2.3, -0.9))
    for x in (tube_points, torus.param_point(0.4, 1.9) + block, inside):
        foot, normal = torus_foot_and_normal_stacked(torus, x)
        got_foot, got_normal = torus.foot_and_normal(x)
        assert got_foot.shape == got_normal.shape == x.shape
        assert np.array_equal(got_foot, foot)
        assert np.array_equal(got_normal, normal)
        assert np.array_equal(torus.project(x), foot)
        assert np.array_equal(torus.normal(x), normal)
        for coefficients in coefficient_sets:
            size = np.sum(np.abs(coefficients or _DEFAULT_DENSITY))
            got = torus.density_at(x, coefficients)
            assert got.shape == x.shape[:-1]
            np.testing.assert_allclose(
                got, torus_density_from_angles(torus, x, coefficients),
                rtol=0, atol=8 * np.finfo(float).eps * size)


def test_torus_exact_probe_curvatures(torus):
    # outer equator: tube curvature -1/R2, ring curvature -1/(R1+R2)
    probe = torus_exact_probe(torus, torus.param_point(0.0, 1.3))
    assert probe.kappa1 == pytest.approx(-1.0 / 0.2)
    assert probe.kappa2 == pytest.approx(-1.0 / 0.9)
    # inner equator: ring curvature flips sign
    probe = torus_exact_probe(torus, torus.param_point(np.pi, 1.3))
    assert probe.kappa1 == pytest.approx(-5.0)
    assert probe.kappa2 == pytest.approx(1.0 / 0.5)


def test_torus_exact_probe_frame(torus):
    probe = torus_exact_probe(torus, torus.param_point(2.1, 0.7))
    Q = np.column_stack([probe.tau1, probe.tau2, probe.n])
    np.testing.assert_allclose(Q.T @ Q, np.eye(3), atol=1e-12)
    assert np.linalg.det(Q) == pytest.approx(1.0)
    np.testing.assert_allclose(np.cross(probe.tau1, probe.tau2), probe.n,
                               atol=1e-12)


def test_density_spot_values():
    assert torus_density(0.0, 0.0) == pytest.approx(1.38)
    assert torus_density(np.pi / 2, 0.0) == pytest.approx(1.38 + 2.196 - 0.29837)
    assert torus_density(0.0, np.pi / 2) == pytest.approx(1.38 + 1.128)


def test_random_targets_reproducible():
    a = random_targets(7, seed=123)
    b = random_targets(7, seed=123)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (7, 2)
    assert np.all((a >= 0) & (a < 2 * np.pi))


def test_sphere_identities():
    s = Sphere(0.8, center=(0.1, -0.2, 0.3))
    rng = np.random.default_rng(5)
    x = s.center + rng.uniform(-1, 1, size=(50, 3))
    d = s.distance(x)
    P = s.project(x)
    n = s.normal(x)
    np.testing.assert_allclose(P, x - d[:, None] * n, atol=1e-12)
    np.testing.assert_allclose(s.distance(P), 0.0, atol=1e-12)
    with pytest.raises(NonUniqueProjectionError):
        s.project(s.center)


def test_cubic_graph_projection():
    g = CubicGraph(k1=-0.31, k2=0.17, c30=0.021, c21=-0.033, c12=0.015,
                   c03=0.027)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-0.2, 0.2, size=(40, 3))
    foot = g.project(pts)
    # feet are on the graph
    np.testing.assert_allclose(foot[:, 2], g.height(foot[:, 0], foot[:, 1]),
                               atol=1e-12)
    # the offset is parallel to the graph normal at the foot
    offset = pts - foot
    n = g.normal(foot)
    cross = np.linalg.norm(np.cross(offset, n), axis=-1)
    np.testing.assert_allclose(cross, 0.0, atol=1e-10)
    # signed distance: positive above the graph, |d| = offset length
    d = g.distance(pts)
    np.testing.assert_allclose(np.abs(d), np.linalg.norm(offset, axis=-1),
                               atol=1e-12)
    above = pts[:, 2] > g.height(pts[:, 0], pts[:, 1])
    assert np.array_equal(d > 0, above)


def test_surface_kernel_symmetry():
    # SL is symmetric in its arguments; DL(x,y) = DLC(y,x)
    rng = np.random.default_rng(9)
    x, y = rng.standard_normal((2, 1, 3))
    nx, ny = rng.standard_normal((2, 1, 3))
    nx /= np.linalg.norm(nx)
    ny /= np.linalg.norm(ny)
    assert kernel_values("SL", x[0], nx[0], y, ny) == pytest.approx(
        kernel_values("SL", y[0], ny[0], x, nx))
    assert kernel_values("DL", x[0], nx[0], y, ny) == pytest.approx(
        kernel_values("DLC", y[0], ny[0], x, nx))


def test_oracle_gauss_identity(torus):
    # DL of the unit density equals -1/2 at any on-surface target
    for theta, phi in [(0.3, 1.1), (5.1, 0.4)]:
        val = layer_potential_oracle(torus, "DL", theta, phi)
        assert val == pytest.approx(-0.5, abs=5e-8)


def test_oracle_resolution_stability(torus):
    # halving all resolutions moves the answer by < 1e-6 (well converged)
    kw = dict(n_far=512, n_radial=64, n_angular=256)
    for kind in ("SL", "DLC"):
        coarse = layer_potential_oracle(torus, kind, 0.7, 2.3,
                                        rho=torus_density, **kw)
        fine = layer_potential_oracle(torus, kind, 0.7, 2.3, rho=torus_density)
        assert abs(coarse - fine) < 2e-6
