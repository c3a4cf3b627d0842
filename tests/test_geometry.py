"""Tests for the finite-difference surface geometry probes."""

from __future__ import annotations

import mpmath
import numpy as np
import pytest

from ctquad.geometry import (
    _lattice_values,
    _tensor_gradient,
    _tensor_hessian,
    canonical_tangent_frame,
    curvature_transfer,
    displaced_feet,
    hessian_eigenframe,
    projection_jacobian,
    surface_probe,
    third_derivatives,
)
from ctquad.surfaces import random_targets, tilted_torus

from helpers import (
    CubicGraph,
    Sphere,
    analytic_probe,
    projection_jacobian_einsum,
    torus_exact_probe,
)


@pytest.fixture(scope="module")
def torus():
    return tilted_torus()


# ---------------------------------------------------------------------------
# finite-difference building blocks
# ---------------------------------------------------------------------------

def test_fd_gradient_hessian_polynomial():
    # 4th-order stencils are exact on cubics (up to roundoff)
    A = np.array([[2.0, -1.0, 0.5], [-1.0, 3.0, 0.2], [0.5, 0.2, 1.5]])
    b = np.array([0.3, -0.7, 1.1])

    def f(x):
        x = np.asarray(x)
        quad = 0.5 * np.einsum("...i,ij,...j->...", x, A, x)
        return quad + x @ b + x[..., 0] ** 3 - 2.0 * x[..., 1] ** 3

    x0 = np.array([0.2, -0.1, 0.4])
    vals = _lattice_values(f, x0, 0.05)
    grad = _tensor_gradient(vals, 0.05)
    hess = _tensor_hessian(vals, 0.05)
    exact_grad = A @ x0 + b + np.array([3 * 0.2**2, -6 * 0.1**2, 0.0])
    exact_hess = A + np.diag([6 * 0.2, 12 * 0.1, 0.0])
    np.testing.assert_allclose(grad, exact_grad, atol=1e-11)
    np.testing.assert_allclose(hess, exact_hess, atol=1e-9)


def test_canonical_tangent_frame_deterministic():
    n = np.array([0.0, 0.0, 1.0])
    t1, t2, nn = canonical_tangent_frame(np.array([-1.0, 0.0, 0.3]), n)
    np.testing.assert_allclose(t1, [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(t2, [0.0, 1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(np.cross(t1, t2), nn, atol=1e-15)
    with pytest.raises(ValueError):
        canonical_tangent_frame(n, n)


# ---------------------------------------------------------------------------
# eigenframe and curvature transfer
# ---------------------------------------------------------------------------

def test_hessian_eigenframe_sphere():
    s = Sphere(0.8)
    zbar = np.array([0.0, 0.0, 1.0])  # eta = 0.2 outside
    g1, g2, tau1, tau2, n = hessian_eigenframe(s.distance, zbar, h=1e-3)
    assert g1 == pytest.approx(-1.0, abs=1e-8)
    assert g2 == pytest.approx(-1.0, abs=1e-8)
    np.testing.assert_allclose(n, [0.0, 0.0, 1.0], atol=1e-10)
    # umbilic tie-break: tau1 is the projection of e_x
    np.testing.assert_allclose(tau1, [1.0, 0.0, 0.0], atol=1e-10)


def test_eigenframe_matches_exact_probe(torus):
    rng = np.random.default_rng(3)
    for _ in range(4):
        th, ph = rng.uniform(0, 2 * np.pi, 2)
        x0 = torus.param_point(th, ph)
        exact = torus_exact_probe(torus, x0)
        eta = 0.05
        zbar = x0 + eta * exact.n
        g1, g2, tau1, tau2, n = hessian_eigenframe(torus.distance, zbar, h=2e-3)
        k1, k2 = curvature_transfer(g1, g2, eta)
        assert k1 == pytest.approx(exact.kappa1, abs=1e-6)
        assert k2 == pytest.approx(exact.kappa2, abs=1e-6)
        np.testing.assert_allclose(tau1, exact.tau1, atol=1e-6)
        np.testing.assert_allclose(tau2, exact.tau2, atol=1e-6)
        np.testing.assert_allclose(n, exact.n, atol=1e-6)


def test_curvature_transfer_identities():
    assert curvature_transfer(0.7, -0.3, 0.0) == (0.7, -0.3)
    assert curvature_transfer(0.0, 0.0, 0.1) == (0.0, 0.0)
    # sphere: level-set curvature at offset eta maps to -1/R
    R, eta = 0.8, 0.15
    g = -1.0 / (R + eta)
    k1, k2 = curvature_transfer(g, g, eta)
    assert k1 == pytest.approx(-1.0 / R)
    with pytest.raises(ValueError):
        curvature_transfer(-2.0, 0.1, 0.5)  # 1 + eta*g = 0


def test_curvature_fd_order_on_torus(torus):
    # curvature error decays at order >= 3 in the FD step
    x0 = torus.param_point(1.234, 4.567)
    exact = torus_exact_probe(torus, x0)
    eta = 0.05
    zbar = x0 + eta * exact.n
    hs = np.array([4e-3 * 2.0**j for j in range(3)])
    errs = []
    for h in hs:
        g1, g2, *_ = hessian_eigenframe(torus.distance, zbar, h=h)
        k1, k2 = curvature_transfer(g1, g2, eta)
        errs.append(max(abs(k1 - exact.kappa1), abs(k2 - exact.kappa2)))
    orders = np.log2(np.array(errs[1:]) / np.array(errs[:-1]))
    assert np.all(orders >= 3.0)


# ---------------------------------------------------------------------------
# third derivatives
# ---------------------------------------------------------------------------

def cubic_graph_fixture():
    return CubicGraph(k1=-0.31, k2=0.17, c30=0.021, c21=-0.033, c12=0.015,
                      c03=0.027)


def test_third_derivatives_cubic_graph():
    g = cubic_graph_fixture()
    probe = surface_probe(g, np.zeros(3), h=1e-2, probe_distance=0.25)
    exact = (6 * 0.021, 2 * -0.033, 2 * 0.015, 6 * 0.027)
    np.testing.assert_allclose(probe.f3, exact, atol=1e-8)
    assert probe.kappa1 == pytest.approx(-0.31, abs=1e-8)
    assert probe.kappa2 == pytest.approx(0.17, abs=1e-8)


def test_third_derivatives_sphere_vanish():
    s = Sphere(0.8, center=(0.1, -0.2, 0.3))
    probe = surface_probe(s, np.array([0.7, 0.4, -0.5]), h=1e-2)
    assert max(abs(v) for v in probe.f3) < 1e-6


def test_third_derivatives_probe_height_consistency(torus):
    # probing from two tube points on the same normal line agrees
    x0 = torus.param_point(0.9, 2.2)
    p1 = surface_probe(torus, x0, probe_distance=0.04)
    p2 = surface_probe(torus, x0, probe_distance=0.08)
    np.testing.assert_allclose(p1.f3, p2.f3, atol=5e-6)
    assert p1.kappa1 == pytest.approx(p2.kappa1, abs=1e-7)


def test_third_derivatives_rejects_surface_point(torus):
    x0 = torus.param_point(0.9, 2.2)
    probe = torus_exact_probe(torus, x0)
    with pytest.raises(ValueError, match="too close"):
        third_derivatives(torus.project, x0 + 1e-5 * probe.n, x0,
                          probe.tau1, probe.tau2, probe.n,
                          probe.kappa1, probe.kappa2, h=1e-3)


def torus_f3_oracle(torus, theta, phi, dps=60, step=1e-3):
    """High-precision third derivatives of the torus height function.

    Solves for the height w(y1, y2) of the surface over the tangent plane at
    (theta, phi) with mpmath Newton iterations, then applies 4th-order
    finite differences in extended precision.
    """
    probe = torus_exact_probe(torus, torus.param_point(theta, phi))
    rot = [[mpmath.mpf(v) for v in row] for row in torus.spec.rotation]
    center = [mpmath.mpf(v) for v in torus._center]
    R1, R2 = mpmath.mpf(torus.spec.R1), mpmath.mpf(torus.spec.R2)
    xs = [mpmath.mpf(v) for v in probe.xstar]
    t1 = [mpmath.mpf(v) for v in probe.tau1]
    t2 = [mpmath.mpf(v) for v in probe.tau2]
    nn = [mpmath.mpf(v) for v in probe.n]

    def dist(q):
        u = [sum(rot[i][j] * (q[i] - center[i]) for i in range(3))
             for j in range(3)]
        ring = mpmath.hypot(u[0], u[1]) - R1
        return mpmath.hypot(ring, u[2]) - R2

    def height(y1, y2):
        w = mpmath.mpf(0)
        for _ in range(80):
            q = [xs[i] + y1 * t1[i] + y2 * t2[i] + w * nn[i] for i in range(3)]
            val = dist(q)
            if abs(val) < mpmath.mpf(10) ** (-dps + 6):
                break
            dq = mpmath.mpf("1e-20")
            qp = [xs[i] + y1 * t1[i] + y2 * t2[i] + (w + dq) * nn[i]
                  for i in range(3)]
            w -= val * dq / (dist(qp) - val)
        return w

    with mpmath.workdps(dps):
        hh = mpmath.mpf(step)
        c1 = [mpmath.mpf(c) / 12 for c in (1, -8, 0, 8, -1)]
        c2 = [mpmath.mpf(c) / 12 for c in (-1, 16, -30, 16, -1)]
        # pure derivatives fxxx, fyyy: 4th-order 7-point stencil
        c3 = [mpmath.mpf(c) / 8 for c in (1, -8, 13, 0, -13, 8, -1)]
        off7 = range(-3, 4)
        fxxx = sum(c * height(k * hh, 0) for c, k in zip(c3, off7)) / hh**3
        fyyy = sum(c * height(0, k * hh) for c, k in zip(c3, off7)) / hh**3
        # mixed: d2/dx2 of d/dy (tensor product of 5-point stencils)
        off5 = range(-2, 3)
        fxxy = sum(a * b * height(i * hh, j * hh)
                   for a, i in zip(c2, off5)
                   for b, j in zip(c1, off5)) / hh**3
        fxyy = sum(a * b * height(i * hh, j * hh)
                   for a, i in zip(c1, off5)
                   for b, j in zip(c2, off5)) / hh**3
        return tuple(float(v) for v in (fxxx, fxxy, fxyy, fyyy))


def test_third_derivatives_torus_oracle(torus):
    theta, phi = 1.234, 4.567
    oracle = torus_f3_oracle(torus, theta, phi)
    probe = analytic_probe(torus, torus.param_point(theta, phi))
    np.testing.assert_allclose(probe.f3, oracle, atol=2e-5)
    probe_fd = surface_probe(torus, torus.param_point(theta, phi))
    np.testing.assert_allclose(probe_fd.f3, oracle, atol=2e-5)


def test_f3_fd_order_on_torus(torus):
    theta, phi = 1.234, 4.567
    oracle = torus_f3_oracle(torus, theta, phi)
    x0 = torus.param_point(theta, phi)
    hs = np.array([2e-3 * 2.0**j for j in range(3)])
    errs = []
    for h in hs:
        probe = analytic_probe(torus, x0, h=h)
        errs.append(max(abs(a - b) for a, b in zip(probe.f3, oracle)))
    orders = np.log2(np.array(errs[1:]) / np.array(errs[:-1]))
    assert np.all(orders >= 3.0)


# ---------------------------------------------------------------------------
# Jacobians
# ---------------------------------------------------------------------------

def test_projection_jacobian_sphere_exact():
    s = Sphere(0.8, center=(0.1, -0.2, 0.3))
    rng = np.random.default_rng(2)
    x = s.center + rng.uniform(-1, 1, size=(20, 3))
    x = s.project(x) + rng.uniform(-0.15, 0.15, size=(20, 1)) * s.normal(x)
    eta = s.distance(x)
    J = projection_jacobian(displaced_feet(s.project, x, 1e-3), 1e-3)
    np.testing.assert_allclose(J, 0.8**2 / (0.8 + eta) ** 2, atol=1e-9)


def test_projection_jacobian_bit_identical_to_einsum(torus):
    """The stencil-at-a-time J equals the einsum over the feet block bit for
    bit: on random feet of several leading shapes, and on torus feet."""
    rng = np.random.default_rng(11)
    for lead in [(), (1,), (7,), (5, 13), (2, 3, 40), (20_000,)]:
        feet = rng.normal(size=lead + (3, 4, 3))
        J = projection_jacobian(feet, 0.0137)
        assert np.shape(J) == lead
        assert np.array_equal(J, projection_jacobian_einsum(feet, 0.0137)), lead
    theta, phi = rng.uniform(0, 2 * np.pi, size=(2, 500))
    eta = rng.uniform(-0.1, 0.1, size=(500, 1))
    x = torus.param_point(theta, phi)
    x = x + eta * torus.normal(x)
    for step in (0.0074, 0.0225):
        feet = displaced_feet(torus.project, x, step)
        assert np.array_equal(projection_jacobian(feet, step),
                              projection_jacobian_einsum(feet, step)), step


def test_jacobian_routes_agree(torus):
    # analytic 1 + 2 eta H + eta^2 G route vs FD of the closest-point map
    rng = np.random.default_rng(8)
    for _ in range(4):
        th, ph = rng.uniform(0, 2 * np.pi, 2)
        eta = rng.uniform(-0.07, 0.07)
        x0 = torus.param_point(th, ph)
        exact = torus_exact_probe(torus, x0)
        zbar = x0 + eta * exact.n
        # exact reference from foot-point curvatures
        Jref = 1.0 / ((1 - eta * exact.kappa1) * (1 - eta * exact.kappa2))
        g1, g2, *_ = hessian_eigenframe(torus.distance, zbar, h=2e-3)
        H, G = 0.5 * (g1 + g2), g1 * g2  # level-set mean and Gaussian curvature
        Ja = 1.0 + 2.0 * eta * H + eta ** 2 * G
        Jp = projection_jacobian(
            displaced_feet(torus.project, zbar[None], 2e-3), 2e-3)[0]
        assert Ja == pytest.approx(Jref, abs=1e-8)
        assert Jp == pytest.approx(Jref, abs=1e-7)


# ---------------------------------------------------------------------------
# probe orchestration
# ---------------------------------------------------------------------------

def test_surface_probe_fd_matches_analytic(torus):
    x = torus.param_point(2.7, 0.4)
    fd = surface_probe(torus, x)
    an = analytic_probe(torus, x)
    assert fd.kappa1 == pytest.approx(an.kappa1, abs=1e-6)
    assert fd.kappa2 == pytest.approx(an.kappa2, abs=1e-6)
    np.testing.assert_allclose(fd.tau1, an.tau1, atol=1e-6)
    np.testing.assert_allclose(fd.n, an.n, atol=1e-7)
    np.testing.assert_allclose(fd.f3, an.f3, atol=1e-5)
    np.testing.assert_allclose(fd.xstar, an.xstar, atol=1e-12)


def test_probe_f3_spread_falls_with_h(torus):
    # the mixed third derivatives' spread across their routes is a resolution
    # measure: over the criterion-8 targets, at the studies' probe distance,
    # its largest value falls from 0.091 at h = 0.05 to 3.3e-3 at h = 0.0222
    targets = [torus.param_point(*tp) for tp in random_targets(20, 7)]
    largest = [max(surface_probe(torus, x, h=h,
                                 probe_distance=0.5 * torus.reach).f3_spread
                   for x in targets)
               for h in (0.05, 0.0222)]
    assert largest[1] > 0.0
    assert largest[0] >= 10.0 * largest[1]


def test_surface_probe_orthonormal(torus):
    probe = surface_probe(torus, torus.param_point(0.1, 0.2))
    Q = np.column_stack([probe.tau1, probe.tau2, probe.n])
    np.testing.assert_allclose(Q.T @ Q, np.eye(3), atol=1e-10)
