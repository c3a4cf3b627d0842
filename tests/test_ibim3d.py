"""Tests for the volumetric layer-potential evaluator on tube grids."""
from __future__ import annotations

import dataclasses
import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.integrate import quad

from ctquad import ibim3d, quad_core
from ctquad.ibim3d import (
    build_tube,
    convergence_study_3d,
    delta_eps,
    delta_normalization,
    dominant_direction,
    evaluate_V3,
    plane_problems,
)
from ctquad.geometry import displaced_feet, projection_jacobian, surface_probe
from ctquad.kernels3d import (
    AXIS_PERMUTATION,
    KERNEL_KINDS,
    CurvatureLimitError,
    KernelExpansion,
    kernel_values,
)
from ctquad.surfaces import Sphere, tilted_torus

from helpers import sphere_level_jacobian, torus_level_jacobian

GEO_FILTERS = [
    "ignore::ctquad.geometry.GeometryAsymmetryWarning",
]


@pytest.fixture(scope="module")
def sphere():
    return Sphere(1.0)


@pytest.fixture(scope="module")
def sphere_target(sphere):
    return sphere.project(np.array([0.31, -0.52, 0.80]))


@pytest.fixture(scope="module")
def sphere_tube(sphere):
    return build_tube(sphere, 0.05, 0.1)


@pytest.fixture(scope="module")
def torus():
    return tilted_torus()


@pytest.fixture(scope="module")
def torus_tube(torus):
    return build_tube(torus, 0.025, 0.1)


# ---------------------------------------------------------------------------
# regularized delta
# ---------------------------------------------------------------------------

def test_delta_normalization_constant():
    assert abs(delta_normalization() - 7.51393) < 5e-5


@pytest.mark.parametrize("eps", [1.0, 0.1, 0.37])
def test_delta_eps_unit_mass(eps):
    val, err = quad(lambda t: float(delta_eps(t, eps)), -eps, eps,
                    epsabs=1e-13, epsrel=1e-13, limit=200)
    assert abs(val - 1.0) < 1e-10


def test_delta_eps_support_and_center():
    eps = 0.25
    edge = delta_eps(np.array([-eps, eps, 1.5 * eps, -3.0]), eps)
    assert np.all(edge == 0.0)
    center = float(delta_eps(0.0, 1.0))
    assert abs(center - delta_normalization() * math.exp(-2.0)) < 1e-14
    assert abs(center - 1.0169) < 1e-3
    # scaling: delta_eps(eta, eps) = delta_1(eta/eps)/eps
    assert np.allclose(delta_eps(np.linspace(-0.2, 0.2, 7), 0.25),
                       delta_eps(np.linspace(-0.8, 0.8, 7), 1.0) / 0.25,
                       rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError, match="positive"):
        delta_eps(0.0, -1.0)


# ---------------------------------------------------------------------------
# dominant direction
# ---------------------------------------------------------------------------

def test_dominant_direction_cases():
    assert dominant_direction([0.0, 0.0, 1.0]) == "z"
    assert dominant_direction([0.0, 0.0, -1.0]) == "z"
    assert dominant_direction([1.0, 0.0, 0.0]) == "x"
    assert dominant_direction([0.1, 0.1, 0.99]) == "z"
    # diagonal: the z test is a strict inequality, so the tie goes on to the
    # y/x comparison, and |n_y| >= |n_x| picks y
    assert dominant_direction(np.ones(3) / math.sqrt(3)) == "y"
    # same tie with n_y = 0 falls through to x
    assert dominant_direction(np.array([math.sqrt(2), 0.0, 1.0]) / math.sqrt(3)) == "x"
    assert dominant_direction(np.array([0.0, math.sqrt(2), 1.0]) / math.sqrt(3)) == "y"
    with pytest.raises(ValueError, match="3-vector"):
        dominant_direction(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# tube construction
# ---------------------------------------------------------------------------

def test_tube_fields_and_lookup(sphere, sphere_tube):
    tube = sphere_tube
    assert np.all(np.abs(tube.d) <= tube.eps)
    assert np.all(np.diff(tube.key) > 0)
    assert np.all(tube.jacobian > 0)
    assert np.allclose(np.linalg.norm(tube.normal, axis=1), 1.0, atol=1e-12)
    assert np.max(np.abs(sphere.distance(tube.foot))) < 1e-12
    assert np.all(tube.density == 1.0)
    # node positions match their lattice indices
    rec = tube.origin + tube.h * tube.index
    assert np.max(np.abs(rec - tube.points)) < 1e-12
    # row lookup round-trips on a sample and rejects absent triples
    sample = np.arange(0, tube.n_nodes, max(tube.n_nodes // 47, 1))
    rows, found = tube.rows_for(tube.index[sample])
    assert np.all(found)
    assert np.array_equal(rows, sample)
    _, found = tube.rows_for(np.array([[-1, 0, 0], [10 ** 6, 3, 3], [0, 0, 0]]))
    assert not np.any(found)


def test_tube_fields_hold_no_lattice_triples(torus_tube):
    # index and points are derived from key; foot and normal are the only
    # (N, 3) fields the tube keeps
    n = torus_tube.n_nodes
    wide = {f.name for f in dataclasses.fields(torus_tube)
            if np.shape(getattr(torus_tube, f.name)) == (n, 3)}
    assert wide == {"foot", "normal"}
    assert torus_tube.index.shape == torus_tube.points.shape == (n, 3)
    assert np.array_equal(torus_tube.flat_key(torus_tube.index), torus_tube.key)


def test_tube_validation(sphere):
    with pytest.raises(ValueError, match="reach"):
        build_tube(sphere, 0.1, 1.5)
    with pytest.raises(ValueError, match="positive"):
        build_tube(sphere, -0.1, 0.1)
    with pytest.raises(ValueError, match="rho"):
        build_tube(sphere, 0.1, 0.1, rho=lambda p: np.zeros((3, 3)))


def _analytic_jacobian_tube(level_jacobian, surface, tube):
    """The tube with J (and so v) from the surface's exact level_jacobian."""
    J = level_jacobian(surface, tube.points)
    return dataclasses.replace(
        tube, jacobian=J, v=tube.density * delta_eps(tube.d, tube.eps) * J)


def test_tube_analytic_jacobian_matches_fd(sphere):
    fd = build_tube(sphere, 0.05, 0.1)
    an = _analytic_jacobian_tube(sphere_level_jacobian, sphere, fd)
    assert np.max(np.abs(fd.jacobian - an.jacobian)) < 1e-4
    # the weighted field v differs as little, relative to its own scale
    assert np.max(np.abs(fd.v - an.v)) < 1e-4 * np.max(np.abs(fd.v))


def _reference_scan(surface, tube):
    """Tube node fields from one unchunked scan of the tube's whole lattice."""
    nx, ny, nz = tube.shape
    index = np.stack(np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz),
                                 indexing="ij"), axis=-1).reshape(-1, 3)
    points = tube.origin + tube.h * index
    d = surface.distance(points)
    keep = np.abs(d) <= tube.eps
    points = points[keep]
    return {"key": np.nonzero(keep)[0], "index": index[keep],
            "points": points, "d": d[keep], "foot": surface.project(points),
            "normal": surface.normal(points)}


@pytest.mark.parametrize("h, from_lattice", [(0.025, True), (0.075, False)])
def test_tube_jacobian_routes(torus, h, from_lattice):
    """J from the lattice neighbours' feet matches the 12 displaced projections.

    At h=0.025 the difference step is h, so the stencil nodes are lattice
    nodes in the band |d| <= eps + 2h; at h=0.075 the step is capped below h
    by the reach and J comes from the displaced projections themselves.
    """
    eps = 0.1
    tube = build_tube(torus, h, eps)
    for field, ref in _reference_scan(torus, tube).items():
        assert np.array_equal(getattr(tube, field), ref), field
    step = min(h, 0.45 * (torus.reach - eps))
    assert (step == h) == from_lattice
    J = projection_jacobian(displaced_feet(torus.project, tube.points, step),
                            step)
    if from_lattice:
        np.testing.assert_allclose(tube.jacobian, J, rtol=1e-12, atol=0.0)
    else:
        assert np.array_equal(tube.jacobian, J)


# an off-lattice sphere whose lattice extent is no multiple of the scan's
# block side, and a small one whose whole tube spans a few blocks; each on
# both J routes (the step is capped below h on the second of each pair)
_CULL_CASES = {
    "offset-lattice": (Sphere(1.0, center=(0.013, -0.021, 0.037)), 0.05, 0.1),
    "offset-capped": (Sphere(1.0, center=(0.013, -0.021, 0.037)), 0.1, 0.9),
    "small-lattice": (Sphere(0.1, center=(0.011, 0.007, -0.019)), 0.02, 0.05),
    "small-capped": (Sphere(0.1, center=(0.011, 0.007, -0.019)), 0.05, 0.05),
}


@pytest.mark.parametrize("case", sorted(_CULL_CASES))
def test_tube_block_cull_is_exact(case):
    """The culled scan keeps exactly the nodes of the full-lattice scan."""
    surface, h, eps = _CULL_CASES[case]
    tube = build_tube(surface, h, eps)
    step = min(h, 0.45 * (surface.reach - eps))
    assert (step == h) == case.endswith("lattice")
    if case.startswith("offset"):
        assert any(n % ibim3d.BLOCK for n in tube.shape)
    else:
        extent = tube.index.max(axis=0) - tube.index.min(axis=0) + 1
        assert np.all(extent <= 4 * ibim3d.BLOCK)
    for field, ref in _reference_scan(surface, tube).items():
        assert np.array_equal(getattr(tube, field), ref), field
    assert np.all(tube.density == 1.0)
    J = projection_jacobian(displaced_feet(surface.project, tube.points, step),
                            step)
    np.testing.assert_allclose(tube.jacobian, J, rtol=1e-12, atol=0.0)
    assert np.array_equal(tube.v, delta_eps(tube.d, eps) * tube.jacobian)


def test_tube_scan_skips_far_blocks(torus, monkeypatch):
    # the distance is evaluated near the band only, not on the whole lattice
    h, eps = 0.025, 0.1
    calls = []
    distance = type(torus).distance

    def counted(self, x):
        calls.append(int(np.prod(np.shape(x)[:-1])))
        return distance(self, x)

    monkeypatch.setattr(type(torus), "distance", counted)
    tube = build_tube(torus, h, eps)
    monkeypatch.undo()
    nx, ny, nz = tube.shape
    index = np.stack(np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz),
                                 indexing="ij"), axis=-1).reshape(-1, 3)
    d = torus.distance(tube.origin + h * index)
    band = int(np.sum(np.abs(d) <= eps + ibim3d.BAND_CELLS * h))
    assert sum(calls) <= 2 * band < math.prod(tube.shape) / 3


def test_tube_stencil_outside_band_is_named(sphere, monkeypatch):
    # a band one cell wide cannot hold the +-2 stencil nodes: the build must
    # name a tube node and h, never difference a missing neighbour's row
    monkeypatch.setattr(ibim3d, "BAND_CELLS", 1)
    with pytest.raises(ValueError, match=r"tube node \(\d+, \d+, \d+\) at "
                                         r"h=0\.1 reaches lattice node"):
        build_tube(sphere, 0.1, 0.1)


class _ShrunkBoxSphere(Sphere):
    """A sphere whose bounding box misses its lowest 0.35 along x."""

    @property
    def bounding_box(self):
        lo, hi = super().bounding_box
        return lo + np.array([0.35, 0.0, 0.0]), hi


def test_tube_stencil_off_lattice_is_named():
    # a box 3.5 cells short leaves less than the stencil's 2 cells below the
    # tube, where flattened lattice keys would wrap onto other nodes
    with pytest.raises(ValueError, match=r"tube node \(\d+, \d+, \d+\) "
                                         r"leaves the lattice"):
        build_tube(_ShrunkBoxSphere(1.0), 0.1, 0.1)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("h, from_lattice", [(0.04, True), (0.075, False)])
def test_tube_bit_identical_at_any_worker_count(torus, monkeypatch, h,
                                                from_lattice):
    """Every field is the same at 1, 2 and 3 workers and at two chunk sizes.

    At h=0.04 J comes from the lattice feet; at h=0.075 the reach caps the
    step and J comes from displaced projections.  The interpreter switches
    threads as often as it can, so a task that wrote outside its own slice
    would show.
    """
    eps = 0.1
    assert (min(h, 0.45 * (torus.reach - eps)) == h) == from_lattice
    monkeypatch.setattr(quad_core, "_pool_size", lambda: 1)
    ref = build_tube(torus, h, eps, rho=torus.density_at)
    callers = set()

    def rho(p):
        callers.add(threading.get_ident())
        return torus.density_at(p)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for chunk in (ibim3d.CHUNK, 1000):   # 3 or more chunks at 1000
            monkeypatch.setattr(ibim3d, "CHUNK", chunk)
            for workers in (1, 2, 3):
                monkeypatch.setattr(quad_core, "_pool_size", lambda: workers)
                tube = build_tube(torus, h, eps, rho=rho)
                for field in dataclasses.fields(tube):
                    assert _same_bits(getattr(tube, field.name),
                                      getattr(ref, field.name)), (
                        chunk, workers, field.name)
    finally:
        sys.setswitchinterval(interval)
    # the fill ran on the pool, not on the calling thread
    assert callers and threading.get_ident() not in callers


def _wrong_shape_rho(p):
    """Right values, except a wrong shape naming its chunk's first foot for
    the chunks that start beyond x = 0.2."""
    if p[0, 0] <= 0.2:
        return np.ones(len(p))
    return np.zeros((len(p), 1 + int(1e4 * p[0, 0])))


@pytest.mark.parametrize("case", ["rho-shape", "missing-neighbour"])
def test_tube_task_error_matches_one_worker(torus, sphere, monkeypatch, case):
    """An error raised in a pool task reaches the caller as with one worker:
    the first failing chunk's, whichever task failed first."""
    monkeypatch.setattr(ibim3d, "CHUNK", 1000)
    if case == "rho-shape":
        def build():
            return build_tube(torus, 0.04, 0.1, rho=_wrong_shape_rho)
        pattern = r"rho must map .* got shape \(1000, \d+\)"
    else:
        monkeypatch.setattr(ibim3d, "BAND_CELLS", 1)

        def build():
            return build_tube(sphere, 0.1, 0.1)
        pattern = r"tube node \(\d+, \d+, \d+\) at h=0\.1 reaches lattice node"
    messages = []
    for workers in (1, 3):
        monkeypatch.setattr(quad_core, "_pool_size", lambda: workers)
        with pytest.raises(ValueError, match=pattern) as err:
            build()
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_v_vanishes_at_tube_boundary(sphere_tube):
    tube = sphere_tube
    band = np.abs(tube.d) > 0.98 * tube.eps
    assert np.any(band)
    assert np.max(np.abs(tube.v[band])) < 1e-4 * np.max(np.abs(tube.v))
    assert float(delta_eps(tube.eps, tube.eps)) == 0.0


# ---------------------------------------------------------------------------
# plane subproblems
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings(*GEO_FILTERS)
def test_plane_problems_geometry(torus, torus_tube):
    xstar = torus.param_point(1.1, 2.3)
    probe = surface_probe(torus, xstar, h=torus_tube.h,
                          probe_distance=0.5 * torus.reach)
    axis = dominant_direction(probe.n)
    planes = plane_problems(probe, axis, torus_tube)
    assert planes, "singular band should cross several lattice planes"
    p0, p1, pw = AXIS_PERMUTATION[axis]
    n_w = probe.n[pw]
    h = torus_tube.h
    for pl in planes:
        assert abs(pl.eta) < torus_tube.eps
        assert pl.z == pytest.approx(torus_tube.origin[pw] + pl.index * h,
                                     abs=1e-12)
        # the singular point really lies on the normal line in this plane
        y0_pt = probe.xstar + pl.eta * probe.n
        assert y0_pt[pw] == pytest.approx(pl.z, abs=1e-10)
        assert pl.y0[0] == pytest.approx(y0_pt[p0], abs=1e-12)
        assert pl.y0[1] == pytest.approx(y0_pt[p1], abs=1e-12)
        # offset conventions: cell corner in [0,1)^2, nearest node in [-.5,.5)^2
        assert 0.0 <= pl.off2.alpha < 1.0 and 0.0 <= pl.off2.beta < 1.0
        assert -0.5 <= pl.off1.alpha < 0.5 and -0.5 <= pl.off1.beta < 0.5
        da = pl.off1.anchor[0] - pl.off2.anchor[0]
        db = pl.off1.anchor[1] - pl.off2.anchor[1]
        assert da in (0, 1) and db in (0, 1)
    # plane count matches the band width
    expected = sum(1 for k in range(-10 ** 5, 10 ** 5)
                   if abs((torus_tube.origin[pw] + k * h - probe.xstar[pw]) / n_w)
                   < torus_tube.eps)
    assert len(planes) == expected


# ---------------------------------------------------------------------------
# evaluators: structure
# ---------------------------------------------------------------------------

def test_exact_hit_guard(sphere, sphere_target):
    foot = np.array([sphere_target, sphere_target + 1e-16])
    normal = np.tile(sphere.normal(sphere_target), (2, 1))
    vals = kernel_values("SL", sphere_target, normal[0], foot, normal)
    assert np.all(vals == 0.0)
    assert np.all(np.isfinite(vals))


@pytest.mark.filterwarnings(*GEO_FILTERS)
def test_plane_decomposition_exactness(torus, torus_tube, table02, table11):
    xstar = torus.param_point(1.1, 2.3)
    h, eps = torus_tube.h, torus_tube.eps
    probe = surface_probe(torus, xstar, h=h, probe_distance=0.5 * torus.reach)
    details = evaluate_V3("SL", torus, None, xstar, h, eps, (table02, table11),
                          tube=torus_tube, probe=probe, return_details=True)
    # the product is the plain lattice sum of K*v over the whole tube
    plain = kernel_values("SL", probe.xstar, probe.n, torus_tube.foot,
                          torus_tube.normal) @ torus_tube.v
    assert details["product"] == pytest.approx(plain, rel=1e-14)


@pytest.mark.filterwarnings(*GEO_FILTERS)
def test_rho_zero_gives_zero(sphere, sphere_tube, sphere_target, table02, table11):
    tube = build_tube(sphere, sphere_tube.h, sphere_tube.eps,
                      rho=lambda p: np.zeros(p.shape[0]))
    val = evaluate_V3("SL", sphere, None, sphere_target, tube.h, tube.eps,
                      (table02, table11), tube=tube)
    assert val == 0.0


def test_table_and_tube_validation(sphere, sphere_tube, sphere_target,
                                   table02, table11):
    with pytest.raises(ValueError, match="k=0"):
        evaluate_V3("SL", sphere, None, sphere_target, sphere_tube.h,
                    sphere_tube.eps, (table11, table02), tube=sphere_tube)
    # the h^3 factors would silently use the wrong spacing
    with pytest.raises(ValueError, match="tube grid was built"):
        evaluate_V3("SL", sphere, None, sphere_target, 0.04, sphere_tube.eps,
                    (table02, table11), tube=sphere_tube)
    with pytest.raises(ValueError, match="tube grid was built"):
        evaluate_V3("SL", sphere, None, sphere_target, sphere_tube.h, 0.2,
                    (table02, table11), tube=sphere_tube)
    with pytest.raises(ValueError, match="second table"):
        evaluate_V3("SL", sphere, None, sphere_target, sphere_tube.h,
                    sphere_tube.eps, (table02, table02), tube=sphere_tube)


def test_curvature_limit_propagates_plane_index(sphere, sphere_tube,
                                                sphere_target, table02, table11):
    probe = dataclasses.replace(sphere.exact_probe(sphere_target),
                                kappa1=50.0, f3=(0.0, 0.0, 0.0, 0.0))
    with pytest.raises(CurvatureLimitError, match="plane"):
        evaluate_V3("SL", sphere, None, sphere_target, sphere_tube.h,
                    sphere_tube.eps, (table02, table11), tube=sphere_tube,
                    probe=probe)


# (V3, h^3 * product) values recorded before the tube build and the kernel
# sums were chunked: one torus level at h=0.04 (J from the lattice feet) with
# the variable density.  The DLC baseline was re-recorded when the baseline
# took the probe's normal at the target in place of the exact one
_PINNED_04 = {
    "SL": (1.146921674082111, 1.1364332193286044),
    "DL": (-0.77402017011972, -0.7616040491396241),
    "DLC": (-0.9444904950737325, -0.9316442913058505),
}


@pytest.mark.filterwarnings(*GEO_FILTERS)
@pytest.mark.parametrize("chunk", [None, 1000])
def test_values_pinned_bit_for_bit(torus, table02, table11, monkeypatch, chunk):
    """Chunked passes leave every value bit-identical, at any chunk size."""
    if chunk is not None:    # the 17,276-node tube then spans 18 chunks
        monkeypatch.setattr(ibim3d, "CHUNK", chunk)
    h, eps = 0.04, 0.1
    tube = build_tube(torus, h, eps, rho=torus.density_at)
    xstar = torus.param_point(1.1, 2.3)
    for kind, (v3, plain) in _PINNED_04.items():
        details = evaluate_V3(kind, torus, torus.density_at, xstar, h, eps,
                              (table02, table11), tube=tube,
                              return_details=True)
        assert details["total"] == v3, kind
        assert h ** 3 * details["product"] == plain, kind


@pytest.mark.filterwarnings(*GEO_FILTERS)
def test_kind_tuple_matches_single_kinds(torus, torus_tube, table02, table11):
    xstar = torus.param_point(-0.7, 0.4)
    h, eps = torus_tube.h, torus_tube.eps
    tabs = (table02, table11)
    kinds = ("DLC", "SL", "DL")
    together = evaluate_V3(kinds, torus, None, xstar, h, eps, tabs,
                           tube=torus_tube, return_details=True)
    assert isinstance(together, tuple) and len(together) == 3
    for kind, details in zip(kinds, together):
        alone = evaluate_V3(kind, torus, None, xstar, h, eps, tabs,
                            tube=torus_tube, return_details=True)
        assert details == alone, kind
    assert evaluate_V3(kinds[:1], torus, None, xstar, h, eps, tabs,
                       tube=torus_tube) == (together[0]["total"],)


@pytest.mark.filterwarnings(*GEO_FILTERS)
def test_dl_and_dlc_share_s0(torus, torus_tube, table02, table11, monkeypatch):
    """Per plane, the three kinds build 5 terms and interpolate 5 weight
    sets: DL and DLC have one s0, so its term and k=0 weights are shared."""
    calls = []
    for name in ("s0_term", "s1_term"):
        method = getattr(KernelExpansion, name)

        def counted(self, kind, method=method, name=name):
            calls.append(name)
            return method(self, kind)

        monkeypatch.setattr(KernelExpansion, name, counted)
    interpolate = ibim3d.interpolate_weights

    def counted_interpolate(*args):
        calls.append("interpolate")
        return interpolate(*args)

    monkeypatch.setattr(ibim3d, "interpolate_weights", counted_interpolate)
    xstar = torus.param_point(1.1, 2.3)
    details = evaluate_V3(KERNEL_KINDS, torus, None, xstar, torus_tube.h,
                          torus_tube.eps, (table02, table11), tube=torus_tube,
                          return_details=True)
    planes = len(details[0]["planes"])
    assert planes > 0
    assert calls.count("s0_term") == 2 * planes
    assert calls.count("s1_term") == 3 * planes
    assert calls.count("interpolate") == 5 * planes
    q2 = {kind: d["q2"] for kind, d in zip(KERNEL_KINDS, details)}
    assert q2["DL"] == q2["DLC"] != q2["SL"]


@pytest.mark.filterwarnings(*GEO_FILTERS)
@pytest.mark.parametrize("kinds", ["SL", "DLC", ("SL", "DL", "DLC")],
                         ids=["SL", "DLC", "all"])
def test_evaluation_memory_is_bounded(torus, torus_tube, table02, table11,
                                      monkeypatch, kinds):
    """Beyond the tube, an evaluation holds one (N,) array per kind.

    The rest is the temporaries of one chunk of kernel values -- P(y) - x*,
    r, 4 pi r^3, the exact-hit mask and a few per-kind rows -- which stay
    under 160 bytes per CHUNK row for up to three kinds.  Forming the
    kernel over the whole tube at once costs about 65 bytes per node.
    """
    monkeypatch.setattr(ibim3d, "CHUNK", 2048)
    xstar = torus.param_point(1.1, 2.3)
    h, eps = torus_tube.h, torus_tube.eps
    probe = surface_probe(torus, xstar, h=h, probe_distance=0.5 * torus.reach)

    def run():
        return evaluate_V3(kinds, torus, None, xstar, h, eps,
                           (table02, table11), tube=torus_tube, probe=probe)

    run()   # warm every cache first
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    n_kinds = 1 if isinstance(kinds, str) else len(kinds)
    assert peak <= 8 * torus_tube.n_nodes * n_kinds + 160 * ibim3d.CHUNK


# ---------------------------------------------------------------------------
# evaluators: accuracy anchors
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings(*GEO_FILTERS)
def test_sphere_layer_potential_anchors(sphere, sphere_tube, sphere_target,
                                        table02, table11):
    """SL of a unit density over a sphere is R; DL and DLC are -1/2."""
    h, eps = sphere_tube.h, sphere_tube.eps
    tabs = (table02, table11)
    sl = evaluate_V3("SL", sphere, None, sphere_target, h, eps, tabs,
                     tube=sphere_tube)
    dl = evaluate_V3("DL", sphere, None, sphere_target, h, eps, tabs,
                     tube=sphere_tube)
    dlc = evaluate_V3("DLC", sphere, None, sphere_target, h, eps, tabs,
                      tube=sphere_tube)
    assert abs(sl - 1.0) < 8e-4
    assert abs(dl + 0.5) < 4e-4
    # on a sphere the two normal derivatives coincide pointwise
    assert abs(dlc - dl) < 2e-5


@pytest.mark.filterwarnings(*GEO_FILTERS)
def test_sphere_on_grid_singular_line(sphere, table02, table11):
    """Pole target: the singular line runs down a lattice column (alpha=beta=0)."""
    xstar = np.array([0.0, 0.0, 1.0])
    h, eps = 0.05, 0.1
    tube = build_tube(sphere, h, eps)   # (1.1 + 4h)/h is an integer
    probe = sphere.exact_probe(xstar)
    planes = plane_problems(probe, dominant_direction(probe.n), tube)
    assert planes
    for pl in planes:
        assert pl.off1.alpha == pytest.approx(0.0, abs=1e-9)
        assert pl.off2.beta == pytest.approx(0.0, abs=1e-9)
    sl = evaluate_V3("SL", sphere, None, xstar, h, eps, (table02, table11),
                     tube=tube, probe=probe)
    assert abs(sl - 1.0) < 5e-3


@pytest.mark.filterwarnings(*GEO_FILTERS)
def test_torus_gauss_identity_and_baseline(torus, torus_tube, table02, table11):
    """DL of a unit density -> -1/2 on any closed surface; baseline lags far."""
    xstar = torus.param_point(1.1, 2.3)
    h, eps = torus_tube.h, torus_tube.eps
    details = evaluate_V3("DL", torus, None, xstar, h, eps, (table02, table11),
                          tube=torus_tube, return_details=True)
    dl, base = details["total"], h ** 3 * details["product"]
    assert abs(dl + 0.5) < 2e-4
    assert abs(dl + 0.5) < abs(base + 0.5) / 10.0


@pytest.mark.filterwarnings(*GEO_FILTERS)
def test_eps_independence(sphere, sphere_target, table02, table11):
    """The tube half-width is a free parameter of the converged value."""
    vals = [evaluate_V3("SL", sphere, None, sphere_target, 0.02, eps,
                        (table02, table11))
            for eps in (0.08, 0.12)]
    assert abs(vals[0] - vals[1]) < 5e-5


@pytest.mark.filterwarnings(*GEO_FILTERS)
def test_analytic_jacobian_value_agrees(torus, torus_tube, table02, table11):
    """J from the exact level_jacobian changes the value negligibly."""
    xstar = torus.param_point(-0.7, 0.4)
    h, eps = torus_tube.h, torus_tube.eps
    tube_an = _analytic_jacobian_tube(torus_level_jacobian, torus, torus_tube)
    probe = surface_probe(torus, xstar, h=h,
                          probe_distance=0.5 * torus.reach)
    a = evaluate_V3("SL", torus, None, xstar, h, eps, (table02, table11),
                    tube=torus_tube, probe=probe)
    b = evaluate_V3("SL", torus, None, xstar, h, eps, (table02, table11),
                    tube=tube_an, probe=probe)
    assert abs(a - b) < 2e-4


# ---------------------------------------------------------------------------
# study driver
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings(*GEO_FILTERS)
def test_convergence_study_structure(sphere, table02, table11, monkeypatch):
    evaluate, passes = ibim3d.evaluate_V3, {}

    def recorded_evaluate(kinds, surface, rho, x, h, *args, **kwargs):
        out = evaluate(kinds, surface, rho, x, h, *args, **kwargs)
        passes[(tuple(x), h)] = dict(zip(kinds, out))
        return out

    monkeypatch.setattr(ibim3d, "evaluate_V3", recorded_evaluate)
    targets = np.array([[0.31, -0.52, 0.80], [-0.61, 0.40, 0.56]])
    messages = []
    res = convergence_study_3d(sphere, targets, [0.08, 0.05],
                               (table02, table11), kinds=("SL", "DL"),
                               eps=0.1, include_baseline=True,
                               progress=messages.append)
    assert res["reference_h"] == pytest.approx(0.025)
    assert len(messages) == 3     # one per level plus the reference
    kinds_seen = {r["kind"] for r in res["rows"]}
    assert kinds_seen == {"SL", "DL", "SL:baseline", "DL:baseline"}
    main_rows = [r for r in res["rows"] if ":" not in r["kind"]]
    assert len(main_rows) == 2 * 2 * 2
    for r in main_rows:
        assert np.isfinite(r["value"]) and np.isfinite(r["error"])
        if r["h"] == 0.08:
            assert r["order"] is not None
        else:
            assert r["order"] is None
    assert set(res["mean_orders"]) == {"SL", "DL"}
    # each baseline is the uncorrected lattice sum of its kind's own pass
    for (label, ti, h), value in res["values"].items():
        kind, _, base = label.partition(":")
        part = passes[(tuple(res["targets"][ti]), h)][kind]
        assert value == (h ** 3 * part["product"] if base else part["total"])
    # errors against the reference shrink with h for the corrected rule
    for kind in ("SL", "DL"):
        for ti in range(2):
            errs = [r["error"] for r in main_rows
                    if r["kind"] == kind and r["target"] == ti]
            assert errs[1] < errs[0]
    # values converge to the sphere anchors
    sl_fine = [r["value"] for r in main_rows
               if r["kind"] == "SL" and r["h"] == 0.05]
    assert np.allclose(sl_fine, 1.0, atol=1e-3)


@pytest.mark.filterwarnings(*GEO_FILTERS)
def test_study_one_pass_per_target_and_level(sphere, table02, table11,
                                             monkeypatch):
    """All kinds in one evaluation; no tube outlives its level."""
    build, evaluate = ibim3d.build_tube, ibim3d.evaluate_V3
    tubes, calls = [], []

    def tracked_build(*args, **kwargs):
        assert all(ref() is None for ref in tubes), "previous tube still held"
        tube = build(*args, **kwargs)
        tubes.append(weakref.ref(tube))
        return tube

    def counted_evaluate(kind, *args, **kwargs):
        calls.append(kind)
        return evaluate(kind, *args, **kwargs)

    monkeypatch.setattr(ibim3d, "build_tube", tracked_build)
    monkeypatch.setattr(ibim3d, "evaluate_V3", counted_evaluate)
    targets = np.array([[0.31, -0.52, 0.80], [-0.61, 0.40, 0.56]])
    res = convergence_study_3d(sphere, targets, [0.1, 0.08],
                               (table02, table11), kinds=("DL", "SL"),
                               eps=0.1)
    assert calls == [("DL", "SL")] * (3 * 2)   # (2 levels + reference) x 2
    assert len(tubes) == 3
    assert list(res["values"]) == [(kind, ti, h) for h in (0.1, 0.08, 0.04)
                                   for ti in range(2) for kind in ("DL", "SL")]


def test_study_input_validation(sphere, table02, table11):
    with pytest.raises(ValueError, match="decreasing"):
        convergence_study_3d(sphere, np.zeros((1, 3)), [0.05, 0.08],
                             (table02, table11))
    with pytest.raises(ValueError, match="targets"):
        convergence_study_3d(sphere, np.zeros((2, 5)), [0.08, 0.05],
                             (table02, table11))
    with pytest.raises(ValueError, match="angle targets"):
        convergence_study_3d(sphere, np.zeros((1, 2)), [0.08, 0.05],
                             (table02, table11))
