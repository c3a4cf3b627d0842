"""Tests for the layer kernels and their per-plane singular expansions."""

from __future__ import annotations

import numpy as np
import pytest

from ctquad.geometry import SurfaceProbe
from ctquad.ibim3d import build_tube
from ctquad.kernels3d import (
    AXIS_PERMUTATION,
    EXACT_HIT_RADIUS,
    KERNEL_KINDS,
    CubicSurfaceModel,
    CurvatureLimitError,
    FrameAxisError,
    _cubic,
    _cubic_gradient,
    build_frame,
    expansion_at_plane,
    kernel_values,
    weighted_kernels,
)
from ctquad.surfaces import tilted_torus

from helpers import (
    MatrixFormExpansion,
    Sphere,
    analytic_probe,
    kernel_values_einsum,
    projection_expansion_report,
)


@pytest.fixture(scope="module")
def torus():
    return tilted_torus()


@pytest.fixture(scope="module")
def torus_probe(torus):
    return analytic_probe(torus, torus.param_point(1.234, 4.567))


def aligned_probe(kappa1=0.0, kappa2=0.0, f3=(0.0, 0.0, 0.0, 0.0)):
    return SurfaceProbe(xstar=np.zeros(3),
                        tau1=np.array([1.0, 0.0, 0.0]),
                        tau2=np.array([0.0, 1.0, 0.0]),
                        n=np.array([0.0, 0.0, 1.0]),
                        kappa1=kappa1, kappa2=kappa2, f3=f3)


def one_plane(frame, model, eta):
    """The expansion on the plane at offset eta: a batch of one plane."""
    return expansion_at_plane([frame], [model], [eta])


def dominant_axis(n):
    if n[0] ** 2 + n[1] ** 2 < 2 * n[2] ** 2:
        return "z"
    return "y" if abs(n[1]) >= abs(n[0]) else "x"


def world_from_plane(origin, axis, y):
    """World points of in-plane offsets y (..., 2) in the plane of the axis."""
    perm = list(AXIS_PERMUTATION[axis])
    inv = list(np.argsort(perm))
    y = np.asarray(y, dtype=float)
    padded = np.concatenate([y, np.zeros(y.shape[:-1] + (1,))], axis=-1)
    return (np.asarray(origin)[perm] + padded)[..., inv]


def direct_kernel(kind, xstar, y, surface):
    """K(x*, P(y)) for (N, 3) points y, with the surface's own normals."""
    return kernel_values(kind, xstar, surface.normal(xstar),
                         surface.project(y), surface.normal(y))


# ---------------------------------------------------------------------------
# direct kernel evaluation
# ---------------------------------------------------------------------------

def test_kernel_eval_unit_distance():
    s = Sphere(1.0)
    xstar = np.array([1.0, 0.0, 0.0])
    y = np.array([[0.0, 0.0, 1.2]])  # projects to (0, 0, 1), distance sqrt(2)
    val = direct_kernel("SL", xstar, y, s)
    assert val[0] == pytest.approx(1.0 / (4 * np.pi * np.sqrt(2)))


def test_kernel_eval_dl_dlc_identity(torus):
    # DL + DLC = (P(y)-x*).(n_x - n_y)/(4 pi r^3) ... equivalently their sum
    # uses the normal difference; check against explicit formula
    rng = np.random.default_rng(4)
    th, ph = rng.uniform(0, 2 * np.pi, 2)
    xstar = torus.param_point(th, ph)
    y = torus.param_point(*rng.uniform(0, 2 * np.pi, 2)) \
        + 0.05 * rng.standard_normal(3)
    p = torus.project(y)
    r = np.linalg.norm(p - xstar)
    nx, ny = torus.normal(xstar), torus.normal(y)
    expect = (p - xstar) @ (nx - ny) / (4 * np.pi * r**3)
    total = (direct_kernel("DL", xstar, y[None], torus)
             + direct_kernel("DLC", xstar, y[None], torus))
    assert total[0] == pytest.approx(expect, rel=1e-12)


def test_kernel_eval_sphere_pointwise():
    # on a sphere both double-layer kernels equal -1/(8 pi R r)
    s = Sphere(0.8, center=(0.1, 0.2, -0.3))
    rng = np.random.default_rng(6)
    xstar = s.project(s.center + rng.standard_normal(3))
    y = s.project(s.center + rng.standard_normal((20, 3)))
    r = np.linalg.norm(y - xstar, axis=-1)
    expect = -1.0 / (8 * np.pi * 0.8 * r)
    np.testing.assert_allclose(direct_kernel("DL", xstar, y, s), expect,
                               rtol=1e-10)
    np.testing.assert_allclose(direct_kernel("DLC", xstar, y, s), expect,
                               rtol=1e-10)


def test_kernel_eval_singular_guard(torus):
    # a point on the target's normal line projects onto the target: that
    # exact hit reads 0 (the quadratures treat it separately), its
    # neighbours stay finite and nonzero
    xstar = torus.param_point(0.4, 0.9)
    n = torus.normal(xstar)
    y = np.array([xstar + 0.03 * n, torus.param_point(0.5, 0.9)])
    for kind in ("SL", "DL", "DLC"):
        vals = direct_kernel(kind, xstar, y, torus)
        assert vals[0] == 0.0
        assert np.isfinite(vals[1]) and vals[1] != 0.0


def test_kernel_eval_vectorized(torus):
    xstar = torus.param_point(0.4, 0.9)
    pts = torus.param_point(np.linspace(1, 5, 7), np.linspace(0, 3, 7))
    vals = direct_kernel("SL", xstar, pts, torus)
    assert vals.shape == (7,)
    assert np.all(vals > 0)


def assert_matches_einsum_form(xstar, nstar, foot, normal):
    """Each kind, alone and in a tuple, is the (N, 3) einsum form's value
    within 8 eps of the kernel's magnitude bound: 1/(4 pi r) for SL and
    1/(4 pi r^2) for DL and DLC (unit normals).  A bound per value would not
    do: DL's near-tangent dot products cancel, so where K is about 0 the two
    forms can differ by many ulps of K."""
    r = np.linalg.norm(foot - xstar, axis=1)
    hit = r < EXACT_HIT_RADIUS
    r = r[~hit]
    bound = {"SL": 1.0 / (4 * np.pi * r), "DL": 1.0 / (4 * np.pi * r * r)}
    bound["DLC"] = bound["DL"]
    for kinds in [(k,) for k in KERNEL_KINDS] + [KERNEL_KINDS]:
        new = weighted_kernels(kinds, xstar, nstar, foot.T, normal.T, 1.0)
        old = kernel_values_einsum(kinds, xstar, nstar, foot, normal)
        for kind, a, b in zip(kinds, new, old):
            assert np.all(a[hit] == 0.0) and np.all(b[hit] == 0.0), kind
            gap = np.abs(a - b)[~hit] / bound[kind]
            assert gap.max() <= 8 * np.finfo(float).eps, (kinds, kind,
                                                           gap.max())


def test_kernel_values_match_einsum_form_random_rows():
    rng = np.random.default_rng(22)
    xstar = rng.uniform(-1.0, 1.0, 3)
    nstar = rng.standard_normal(3)
    nstar /= np.linalg.norm(nstar)
    # feet from 1e-12 to 2 away from x*, in every direction, and an exact hit
    direction = rng.standard_normal((20_000, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    dist = 10.0 ** rng.uniform(-12.0, 0.3, 20_000)
    foot = np.vstack([xstar + dist[:, None] * direction, xstar])
    normal = rng.standard_normal(foot.shape)
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    assert_matches_einsum_form(xstar, nstar, foot, normal)


@pytest.mark.parametrize("h", [0.04, 0.0148])
def test_kernel_values_match_einsum_form_on_tube(torus, h):
    tube = build_tube(torus, h, 0.1)
    for angles in [(1.1, 2.3), (-0.7, 0.4), (2.9, 5.1)]:
        xstar = torus.param_point(*angles)
        assert_matches_einsum_form(xstar, torus.normal(xstar), tube.foot,
                                   tube.normal)


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def test_build_frame_aligned():
    fr = build_frame(aligned_probe(), "z")
    np.testing.assert_allclose(fr.A, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(fr.d, 0.0, atol=1e-15)


def test_build_frame_tiles_qt(torus_probe):
    for axis in ("x", "y", "z"):
        try:
            fr = build_frame(torus_probe, axis)
        except FrameAxisError:
            continue
        # Q's columns are the frame in the permuted world coordinates
        perm = list(AXIS_PERMUTATION[axis])
        QT = np.stack([torus_probe.tau1[perm], torus_probe.tau2[perm],
                       torus_probe.n[perm]])
        np.testing.assert_allclose(QT[:2, :2], fr.A)
        np.testing.assert_allclose(QT[2, :2], fr.d)
        # det A equals the normal's component along the dominant axis
        k = {"x": 0, "y": 1, "z": 2}[axis]
        assert np.linalg.det(fr.A) == pytest.approx(torus_probe.n[k],
                                                    abs=1e-13)


def test_build_frame_contraction(torus_probe):
    # |A y| <= |y|, with equality iff y is orthogonal to d
    fr = build_frame(torus_probe, dominant_axis(torus_probe.n))
    sv = np.linalg.svd(fr.A, compute_uv=False)
    assert sv.max() <= 1.0 + 1e-12
    rng = np.random.default_rng(0)
    y = rng.standard_normal((100, 2))
    assert np.all(np.linalg.norm(y @ fr.A.T, axis=-1)
                  <= np.linalg.norm(y, axis=-1) + 1e-12)
    d = fr.d
    if np.linalg.norm(d) > 1e-10:
        y_perp = np.array([-d[1], d[0]])
        assert np.linalg.norm(fr.A @ y_perp) == pytest.approx(
            np.linalg.norm(y_perp), rel=1e-12)


def test_build_frame_axis_error():
    probe = aligned_probe()  # n = e_z
    with pytest.raises(FrameAxisError):
        build_frame(probe, "x")


def test_build_frame_refuses_non_orthonormal_probe():
    probe = aligned_probe()
    skewed = SurfaceProbe(xstar=probe.xstar, tau1=probe.tau1,
                          tau2=np.array([0.1, 1.0, 0.0]), n=probe.n,
                          kappa1=0.0, kappa2=0.0, f3=probe.f3)
    with pytest.raises(ValueError, match="not orthonormal"):
        build_frame(skewed, "z")


# ---------------------------------------------------------------------------
# cubic model
# ---------------------------------------------------------------------------

def test_cubic_model_gradient_consistency():
    rng = np.random.default_rng(12)
    f3 = tuple(rng.uniform(-1, 1, 4))
    y1, y2 = rng.standard_normal((2, 30))
    h = 1e-5
    num = np.stack([
        (_cubic(f3, y1 + h, y2) - _cubic(f3, y1 - h, y2)) / (2 * h),
        (_cubic(f3, y1, y2 + h) - _cubic(f3, y1, y2 - h)) / (2 * h),
    ], axis=-1)
    np.testing.assert_allclose(num, np.stack(_cubic_gradient(f3, y1, y2), -1),
                               atol=1e-6)


def test_cubic_model_from_probe_requires_f3():
    probe = SurfaceProbe(xstar=np.zeros(3), tau1=np.array([1.0, 0, 0]),
                         tau2=np.array([0.0, 1, 0]), n=np.array([0.0, 0, 1]),
                         kappa1=0.0, kappa2=0.0, f3=None)
    with pytest.raises(ValueError):
        CubicSurfaceModel.from_probe(probe)


# ---------------------------------------------------------------------------
# expansions: special cases, homogeneity, bounds
# ---------------------------------------------------------------------------

def test_expansion_flat_plane():
    probe = aligned_probe()
    ex = one_plane(build_frame(probe, "z"),
                   CubicSurfaceModel.from_probe(probe), 0.0)
    y = np.array([0.3, -0.4])
    r = np.hypot(*y)
    assert ex.s0_eval("SL", y) == pytest.approx(1.0 / (4 * np.pi * r))
    assert ex.s1_eval("SL", y) == pytest.approx(0.0, abs=1e-15)
    assert ex.s0_eval("DL", y) == pytest.approx(0.0, abs=1e-15)
    assert ex.s1_eval("DL", y) == pytest.approx(0.0, abs=1e-15)


def test_expansion_constant_curvature():
    kappa = -0.73
    probe = aligned_probe(kappa1=kappa, kappa2=kappa)
    ex = one_plane(build_frame(probe, "z"),
                   CubicSurfaceModel.from_probe(probe), 0.0)
    y = np.array([0.3, -0.4])
    r = np.hypot(*y)
    assert ex.s0_eval("DLC", y) == pytest.approx(kappa / (8 * np.pi * r))
    assert ex.s0_eval("DL", y) == pytest.approx(kappa / (8 * np.pi * r))


def test_expansion_homogeneity(torus_probe):
    frame = build_frame(torus_probe, dominant_axis(torus_probe.n))
    model = CubicSurfaceModel.from_probe(torus_probe)
    ex = one_plane(frame, model, 0.033)
    rng = np.random.default_rng(7)
    y = rng.standard_normal((50, 2))
    c = 1.7
    # the building blocks, in the matrix-form reference the library's
    # assembled terms are checked against
    ref = MatrixFormExpansion(frame, model, 0.033)
    for fn, deg in [(ref.chi0, 1), (ref.chi1, 2), (ref.xi0, 2), (ref.xi1, 3),
                    (ref.xitilde1, 3), (ref.psi0, 1), (ref.psi1, 2)]:
        np.testing.assert_allclose(np.asarray(fn(c * y)),
                                   c**deg * np.asarray(fn(y)),
                                   atol=1e-12, rtol=1e-12)
    # assembled terms: s0 degree -1, s1 degree 0
    for kind in ("SL", "DL", "DLC"):
        np.testing.assert_allclose(ex.s0_eval(kind, c * y),
                                   ex.s0_eval(kind, y) / c, rtol=1e-12)
        np.testing.assert_allclose(ex.s1_eval(kind, c * y),
                                   ex.s1_eval(kind, y), rtol=1e-10, atol=1e-14)


def test_expansion_psi0_bounds(torus_probe):
    frame = build_frame(torus_probe, dominant_axis(torus_probe.n))
    model = CubicSurfaceModel.from_probe(torus_probe)
    eta = 0.05
    ex = one_plane(frame, model, eta)
    sv = np.linalg.svd(frame.A, compute_uv=False)
    kmax = max(abs(model.kappa1), abs(model.kappa2))
    theta = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    # psi0 = |D0 A y|, read from s0_SL = 1 / (4 pi psi0)
    unit = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    p0 = 1.0 / (4.0 * np.pi * ex.s0_eval("SL", unit)[0])
    assert np.all(p0 > 0)
    assert p0.min() >= (1 - abs(eta) * kmax) * sv.min() - 1e-12
    assert p0.max() <= sv.max() / (1 - abs(eta) * kmax) + 1e-12


def test_expansion_dl_dlc_share_s0(torus_probe):
    frame = build_frame(torus_probe, dominant_axis(torus_probe.n))
    ex = one_plane(frame, CubicSurfaceModel.from_probe(torus_probe), -0.04)
    y = np.random.default_rng(1).standard_normal((20, 2))
    np.testing.assert_array_equal(ex.s0_eval("DL", y), ex.s0_eval("DLC", y))


def test_batch_expansion_matches_matrix_form(torus):
    """A batch over the planes of two targets: each plane's terms agree
    with the matrix-form reference to rounding (relative to each value's
    scale over the offsets), and bit for bit with a batch of that plane
    alone, at shared (n, 2) and per-plane (P, m, 2) offsets alike."""
    frames, models, etas = [], [], []
    for angles, plane_etas in (((1.234, 4.567), (-0.06, 0.0, 0.033)),
                               ((-0.7, 0.4), (-0.02, 0.05))):
        probe = analytic_probe(torus, torus.param_point(*angles))
        frame = build_frame(probe, dominant_axis(probe.n))
        model = CubicSurfaceModel.from_probe(probe)
        for eta in plane_etas:
            frames.append(frame)
            models.append(model)
            etas.append(eta)
    batch = expansion_at_plane(frames, models, np.array(etas))
    rng = np.random.default_rng(11)
    y = rng.standard_normal((64, 2))
    cells = rng.standard_normal((len(etas), 4, 2))
    for i, (frame, model, eta) in enumerate(zip(frames, models, etas)):
        ref = MatrixFormExpansion(frame, model, eta)
        one = one_plane(frame, model, eta)
        for kind in KERNEL_KINDS:
            for order in ("s0_eval", "s1_eval"):
                got = getattr(batch, order)(kind, y)[i]
                want = getattr(ref, order)(kind, y)
                scale = np.max(np.abs(want))
                assert (np.max(np.abs(got - want))
                        <= 256 * np.finfo(float).eps * scale), (i, kind, order)
                assert _same(got, getattr(one, order)(kind, y)[0]), (i, kind)
                assert _same(getattr(batch, order)(kind, cells)[i],
                             getattr(one, order)(kind, cells[i:i + 1])[0]), (
                    i, kind)


def _same(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_expansion_curvature_limit(torus_probe):
    frame = build_frame(torus_probe, dominant_axis(torus_probe.n))
    model = CubicSurfaceModel.from_probe(torus_probe)
    eta_bad = 1.0 / model.kappa1  # exactly at the limit
    with pytest.raises(CurvatureLimitError) as exc:
        expansion_at_plane([frame] * 3, [model] * 3, [0.0, eta_bad, 0.01])
    assert exc.value.row == 1


def test_singular_terms_match_closures(torus_probe):
    frame = build_frame(torus_probe, dominant_axis(torus_probe.n))
    model = CubicSurfaceModel.from_probe(torus_probe)
    ex = one_plane(frame, model, 0.02)
    rng = np.random.default_rng(3)
    y = rng.standard_normal((40, 2))
    for kind in ("SL", "DL", "DLC"):
        [t0] = ex.s0_term(kind)
        [t1] = ex.s1_term(kind)
        assert t0.k == 0 and t1.k == 1
        np.testing.assert_allclose(t0.evaluate(y[:, 0], y[:, 1]),
                                   ex.s0_eval(kind, y)[0], rtol=1e-9,
                                   atol=1e-12)
        np.testing.assert_allclose(t1.evaluate(y[:, 0], y[:, 1]),
                                   ex.s1_eval(kind, y)[0], rtol=1e-9,
                                   atol=1e-12)


# ---------------------------------------------------------------------------
# Taylor consistency against the direct kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["SL", "DL", "DLC"])
def test_taylor_consistency_torus(torus, torus_probe, kind):
    probe = torus_probe
    axis = dominant_axis(probe.n)
    frame = build_frame(probe, axis)
    model = CubicSurfaceModel.from_probe(probe)
    dirs = np.stack([np.cos(2 * np.pi * np.arange(8) / 8),
                     np.sin(2 * np.pi * np.arange(8) / 8)], axis=-1)
    for eta in (0.0, 0.04, -0.06):
        origin = probe.xstar + eta * probe.n
        ex = one_plane(frame, model, eta)
        radii = np.array([1e-1 * 2.0**-j for j in range(8)])
        res = []
        for r in radii:
            pts = world_from_plane(origin, axis, r * dirs)
            s = direct_kernel(kind, probe.xstar, pts, torus)
            approx = (ex.s0_eval(kind, r * dirs)
                      + ex.s1_eval(kind, r * dirs))[0]
            res.append(np.max(np.abs(s - approx)))
        res = np.array(res)
        # remainder decays linearly: mean slope of the last pairs >= 1
        slopes = np.log2(res[:-1] / res[1:])
        assert np.mean(slopes[-4:]) >= 0.95, (eta, res, slopes)
        # and the remainder stays bounded in absolute size
        assert res[-1] < res[0]


def test_taylor_consistency_sphere():
    # on a sphere the double layer kernel is exactly -1/(8 pi R r): compare
    # the assembled expansion against that closed form
    s = Sphere(0.8, center=(0.05, -0.1, 0.2))
    xstar = s.project(s.center + np.array([0.3, 0.4, 0.55]))
    probe = analytic_probe(s, xstar)
    axis = dominant_axis(probe.n)
    frame = build_frame(probe, axis)
    model = CubicSurfaceModel.from_probe(probe)
    ex = one_plane(frame, model, 0.0)
    dirs = np.stack([np.cos(2 * np.pi * np.arange(8) / 8),
                     np.sin(2 * np.pi * np.arange(8) / 8)], axis=-1)
    for r in (1e-2, 1e-3):
        pts = world_from_plane(xstar, axis, r * dirs)
        exact = direct_kernel("DL", xstar, pts, s)
        approx = (ex.s0_eval("DL", r * dirs) + ex.s1_eval("DL", r * dirs))[0]
        assert np.max(np.abs(exact - approx)) < 0.2 * r


# ---------------------------------------------------------------------------
# projection expansion diagnostics
# ---------------------------------------------------------------------------

def test_projection_expansion_report(torus, torus_probe):
    rep = projection_expansion_report(torus, torus_probe, 0.05)
    assert rep["origin_residual"] < 1e-12
    assert rep["jacobian_residual"] < 1e-8
    assert rep["quadratic_residual"] < 1e-7


def test_projection_expansion_report_zero_offset(torus, torus_probe):
    rep = projection_expansion_report(torus, torus_probe, 0.0)
    assert rep["jacobian_residual"] < 1e-8
