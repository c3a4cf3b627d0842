"""Tests for the volumetric layer-potential evaluator on tube grids."""
from __future__ import annotations

import dataclasses
import math
import re
import sys
import threading
import tracemalloc
import warnings
import weakref

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from ctquad import geometry, ibim3d, quad_core
from ctquad.ibim3d import (
    build_tube,
    convergence_study_3d,
    DELTA_NORMALIZATION,
    delta_eps,
    dominant_direction,
    evaluate_V3,
    plane_problems,
)
from ctquad.geometry import (
    JACOBIAN_STENCIL,
    displaced_feet,
    projection_jacobian,
    surface_probe,
)
from ctquad.kernels3d import (
    AXIS_PERMUTATION,
    EXACT_HIT_RADIUS,
    KERNEL_KINDS,
    CurvatureLimitError,
    KernelExpansion,
    kernel_values,
    weighted_kernels,
)
from ctquad.surfaces import TiltedTorus, tilted_torus

from helpers import (
    Sphere,
    projection_jacobian_einsum,
    scan_band_ravel,
    sphere_level_jacobian,
    torus_foot_and_normal_stacked,
    torus_level_jacobian,
    tube_index,
    tube_jacobian,
    tube_points,
)

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
    assert abs(DELTA_NORMALIZATION - 7.51393) < 5e-5


def test_delta_normalization_matches_adaptive_quadrature():
    # the 30-digit tanh-sinh value rounds to the same double as scipy's
    # adaptive Gauss-Kronrod estimate with these settings
    val = quad(lambda t: math.exp(2.0 / (t * t - 1.0)), 0.0, 1.0,
               epsabs=1e-16, epsrel=1e-14, limit=200, full_output=1)[0]
    assert DELTA_NORMALIZATION == 1.0 / (2.0 * val) == 7.513931532835812


def test_delta_normalization_is_the_30_digit_quadrature():
    # the literal is the double nearest 1 / (2 int_0^1 exp(2/(t^2-1)) dt),
    # by tanh-sinh quadrature at 30 digits in a context of its own
    ctx = mp.MPContext()
    ctx.dps = 30
    val, err = ctx.quad(lambda t: ctx.exp(2 / (t * t - 1)), [0, 1], error=True)
    assert 2 * err <= 1e-25 * (2 * val)
    assert DELTA_NORMALIZATION == float(1 / (2 * val))


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
    assert abs(center - DELTA_NORMALIZATION * math.exp(-2.0)) < 1e-14
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
    index, points = tube_index(tube), tube_points(tube)
    J = tube_jacobian(sphere, tube.h, tube.eps)
    d = sphere.distance(points)
    assert np.all(np.abs(d) <= tube.eps)
    assert np.all(np.diff(tube.key) > 0)
    assert np.all(J > 0)
    assert np.allclose(np.linalg.norm(tube.normal, axis=1), 1.0, atol=1e-12)
    assert np.max(np.abs(sphere.distance(tube.foot))) < 1e-12
    # no density given: v is delta_eps(d) * J alone
    assert np.array_equal(tube.v, delta_eps(d, tube.eps) * J)
    # node positions match their lattice indices
    rec = tube.origin + tube.h * index
    assert np.max(np.abs(rec - points)) < 1e-12
    # row lookup round-trips on a sample and rejects absent triples
    sample = np.arange(0, tube.n_nodes, max(tube.n_nodes // 47, 1))
    rows, found = tube.rows_for(index[sample])
    assert np.all(found)
    assert np.array_equal(rows, sample)
    _, found = tube.rows_for(np.array([[-1, 0, 0], [10 ** 6, 3, 3], [0, 0, 0]]))
    assert not np.any(found)


def test_tube_fields_hold_no_lattice_triples(torus_tube):
    # the tube keeps what the rule reads: key, foot, normal and v, 64 bytes
    # per node; lattice triples and positions are derived from key
    n = torus_tube.n_nodes
    per_node = {f.name: getattr(torus_tube, f.name)
                for f in dataclasses.fields(torus_tube)
                if np.shape(getattr(torus_tube, f.name))[:1] == (n,)}
    assert set(per_node) == {"key", "foot", "normal", "v"}
    assert sum(a.nbytes for a in per_node.values()) == 64 * n
    wide = {name for name, a in per_node.items() if a.shape == (n, 3)}
    assert wide == {"foot", "normal"}
    index = tube_index(torus_tube)
    assert index.shape == tube_points(torus_tube).shape == (n, 3)
    assert np.array_equal(np.ravel_multi_index(index.T, torus_tube.shape),
                          torus_tube.key)


def test_tube_validation(sphere):
    with pytest.raises(ValueError, match="reach"):
        build_tube(sphere, 0.1, 1.5)
    with pytest.raises(ValueError, match="positive"):
        build_tube(sphere, -0.1, 0.1)
    with pytest.raises(ValueError, match="rho"):
        build_tube(sphere, 0.1, 0.1, rho=lambda p: np.zeros((3, 3)))


def _analytic_jacobian_tube(level_jacobian, surface, tube):
    """The surface's exact level_jacobian J at the constant-density tube's
    nodes, and the tube with v formed from it."""
    points = tube_points(tube)
    J = level_jacobian(surface, points)
    d = surface.distance(points)
    return J, dataclasses.replace(tube, v=delta_eps(d, tube.eps) * J)


def test_tube_analytic_jacobian_matches_fd(sphere):
    fd = build_tube(sphere, 0.05, 0.1)
    J, an = _analytic_jacobian_tube(sphere_level_jacobian, sphere, fd)
    assert np.max(np.abs(tube_jacobian(sphere, 0.05, 0.1) - J)) < 1e-4
    # the weighted field v differs as little, relative to its own scale
    assert np.max(np.abs(fd.v - an.v)) < 1e-4 * np.max(np.abs(fd.v))


def _tube_field(surface, tube, name):
    """A tube field by name; the lattice triples, node positions and signed
    distance d, which the tube does not keep, recomputed from its keys."""
    if name == "index":
        return tube_index(tube)
    if name == "points":
        return tube_points(tube)
    if name == "d":
        return surface.distance(tube_points(tube))
    return getattr(tube, name)


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
        assert np.array_equal(_tube_field(torus, tube, field), ref), field
    step = min(h, 0.45 * (torus.reach - eps))
    assert (step == h) == from_lattice
    J = projection_jacobian(displaced_feet(torus.project, tube_points(tube),
                                           step), step)
    if from_lattice:
        np.testing.assert_allclose(tube_jacobian(torus, h, eps), J,
                                   rtol=1e-12, atol=0.0)
    else:
        assert np.array_equal(tube_jacobian(torus, h, eps), J)


def test_tube_lattice_jacobian_matches_einsum_block(torus):
    """J from the lattice feet, one (axis, stencil node) gather at a time,
    is bit for bit the einsum over each tube node's (3, 4, 3) block of the
    stencil nodes' projections."""
    h, eps = 0.04, 0.1
    assert min(h, 0.45 * (torus.reach - eps)) == h
    tube = build_tube(torus, h, eps)
    shift = np.zeros((3, len(JACOBIAN_STENCIL), 3), dtype=np.int64)
    for a in range(3):
        shift[a, :, a] = JACOBIAN_STENCIL
    nodes = tube_index(tube)[:, None, None, :] + shift  # (N, 3, 4, 3) triples
    feet = torus.project((tube.origin + h * nodes).reshape(-1, 3))
    ref = projection_jacobian_einsum(feet.reshape(nodes.shape), h)
    assert np.array_equal(tube_jacobian(torus, h, eps), ref)


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
        index = tube_index(tube)
        extent = index.max(axis=0) - index.min(axis=0) + 1
        assert np.all(extent <= 4 * ibim3d.BLOCK)
    for field, ref in _reference_scan(surface, tube).items():
        assert np.array_equal(_tube_field(surface, tube, field), ref), field
    points = tube_points(tube)
    J = projection_jacobian(displaced_feet(surface.project, points, step),
                            step)
    tube_J = tube_jacobian(surface, h, eps)
    np.testing.assert_allclose(tube_J, J, rtol=1e-12, atol=0.0)
    # no density given: v is delta_eps(d) * J alone
    d = surface.distance(points)
    assert np.array_equal(tube.v, delta_eps(d, eps) * tube_J)


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


@pytest.mark.parametrize("case", ["torus-lattice", "torus-capped",
                                  "offset-sphere"])
def test_scan_matches_ravel_reference(torus, case):
    """The band scan's keys and distances, formed from per-axis coordinates
    and key arithmetic, equal the scan through lattice triples and
    np.ravel_multi_index, on both J routes' band widths."""
    surface, h, eps = {"torus-lattice": (torus, 0.04, 0.1),
                       "torus-capped": (torus, 0.075, 0.1),
                       "offset-sphere": (Sphere(1.0, center=(0.013, -0.021,
                                                             0.037)),
                                         0.05, 0.1)}[case]
    from_lattice = min(h, 0.45 * (surface.reach - eps)) == h
    assert from_lattice == (case != "torus-capped")
    width = eps + (ibim3d.BAND_CELLS + 1e-6) * h if from_lattice else eps
    tube = build_tube(surface, h, eps)
    key, d = ibim3d._scan_band(surface, tube.origin, h, tube.shape, width)
    ref_key, ref_d = scan_band_ravel(surface, tube.origin, h, tube.shape,
                                     width)
    assert (key.size > tube.n_nodes) == from_lattice
    assert np.array_equal(key, ref_key)
    assert np.array_equal(d, ref_d)


def test_tube_stencil_outside_band_is_named(sphere, monkeypatch):
    # a band one cell wide cannot hold the +-2 stencil nodes: the build must
    # name a tube node and h, never difference a missing neighbour's row
    monkeypatch.setattr(ibim3d, "BAND_CELLS", 1)
    with pytest.raises(ValueError, match=r"tube node \(\d+, \d+, \d+\) at "
                                         r"h=0\.1 reaches lattice node"):
        build_tube(sphere, 0.1, 0.1)


class _DoubledDistanceSphere(Sphere):
    """A sphere whose distance is twice the true one, so not 1-Lipschitz."""

    def distance(self, x):
        return 2.0 * super().distance(x)


def test_tube_missing_neighbour_is_named():
    # the band |2d| <= eps + 2h holds only |d| <= eps/2 + h, short of the
    # stencil's reach from the tube's outer nodes: the build must name the
    # tube node, the missing lattice node and h
    surface, h, eps = _DoubledDistanceSphere(1.0), 0.05, 0.1
    pattern = (r"J stencil of tube node \((\d+), (\d+), (\d+)\) at h=0\.05 "
               r"reaches lattice node \((\d+), (\d+), (\d+)\), which is "
               r"outside the scanned band")
    with pytest.raises(ValueError, match=pattern) as err:
        build_tube(surface, h, eps)
    named = np.array(re.search(pattern, str(err.value)).groups(), dtype=int)
    node, other = named[:3], named[3:]
    step = other - node
    assert np.count_nonzero(step) == 1 and int(step.sum()) in JACOBIAN_STENCIL
    lo, _ = surface.bounding_box
    origin = lo - (eps + ibim3d.MARGIN_CELLS * h)
    d_node, d_other = surface.distance(origin + h * np.stack([node, other]))
    assert abs(d_node) <= eps
    assert abs(d_other) > eps + ibim3d.BAND_CELLS * h


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


@pytest.mark.parametrize("h, module, name", [
    (0.04, "geometry", "stencil_area_ratio"),
    (0.075, "ibim3d", "projection_jacobian"),
])
def test_tube_nonpositive_jacobian_is_named(torus, monkeypatch, h, module,
                                            name):
    """A non-positive J from either route fails naming its node.

    At h=0.04 J comes from the lattice feet (geometry.stencil_area_ratio);
    at h=0.075 the reach caps the step and J comes from the displaced
    projections (ibim3d.projection_jacobian).  The patched route flips the
    sign of the first J it returns; on one worker that is tube row 0.
    """
    eps = 0.1
    assert (min(h, 0.45 * (torus.reach - eps)) == h) == (module == "geometry")
    node = tube_points(build_tube(torus, h, eps))[0]
    owner = {"geometry": geometry, "ibim3d": ibim3d}[module]
    area_ratio, flipped = getattr(owner, name), []

    def one_negative(*args):
        J = area_ratio(*args)
        if not flipped:
            J[0] = -J[0]
            flipped.append(J[0])
        return J

    monkeypatch.setattr(quad_core, "_pool_size", lambda: 1)
    monkeypatch.setattr(owner, name, one_negative)
    with pytest.raises(ValueError, match="non-positive area ratio") as err:
        build_tube(torus, h, eps)
    assert len(flipped) == 1 and flipped[0] < 0
    assert (f"J={flipped[0]:.3e} at node {node}; tube width exceeds the "
            f"usable reach") in str(err.value)


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
    # v from the density and the distance recomputed at the nodes
    assert np.array_equal(ref.v, torus.density_at(ref.foot) * delta_eps(
        torus.distance(tube_points(ref)), eps) * tube_jacobian(torus, h, eps))
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


@pytest.mark.parametrize("h, from_lattice", [(0.04, True), (0.075, False)])
def test_tube_bit_identical_to_stacked_projection(torus, monkeypatch, h,
                                                  from_lattice):
    """The coordinate-column feet and normals leave every field of the
    constant-density tube bit-identical to the (..., 3)-stack reference.
    At h=0.075 the reach caps the step, so `project` runs in
    displaced_feet too."""
    eps = 0.1
    assert (min(h, 0.45 * (torus.reach - eps)) == h) == from_lattice
    tube = build_tube(torus, h, eps)
    projected = []

    def project(self, x):
        projected.append(len(x))
        return torus_foot_and_normal_stacked(self, x)[0]

    monkeypatch.setattr(TiltedTorus, "foot_and_normal",
                        torus_foot_and_normal_stacked)
    monkeypatch.setattr(TiltedTorus, "project", project)
    ref = build_tube(torus, h, eps)
    assert bool(projected) != from_lattice
    for field in dataclasses.fields(tube):
        assert _same_bits(getattr(tube, field.name),
                          getattr(ref, field.name)), field.name


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


def test_v_vanishes_at_tube_boundary(sphere, sphere_tube):
    tube = sphere_tube
    band = np.abs(sphere.distance(tube_points(tube))) > 0.98 * tube.eps
    assert np.any(band)
    assert np.max(np.abs(tube.v[band])) < 1e-4 * np.max(np.abs(tube.v))
    assert float(delta_eps(tube.eps, tube.eps)) == 0.0


# ---------------------------------------------------------------------------
# plane subproblems
# ---------------------------------------------------------------------------

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
    """Exact hits read 0 for every kind, with no warning and nothing
    non-finite; a foot just beyond EXACT_HIT_RADIUS reads a finite, nonzero
    value, and each row of a tuple of kinds has its kind's single-name
    bits."""
    n = sphere.normal(sphere_target)
    other = sphere.project(np.array([-0.4, 0.7, 0.2]))
    foot = np.array([sphere_target, sphere_target + 1e-16,
                     sphere_target + 1.5 * EXACT_HIT_RADIUS * n, other])
    normal = np.array([n, n, n, sphere.normal(other)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        together = weighted_kernels(KERNEL_KINDS, sphere_target, n, foot.T,
                                    normal.T, 1.0)
        for kind, row in zip(KERNEL_KINDS, together):
            vals = kernel_values(kind, sphere_target, n, foot, normal)
            assert np.all(np.isfinite(vals)), kind
            assert np.all(vals[:2] == 0.0), kind
            assert np.all(vals[2:] != 0.0), kind
            assert _same_bits(row, vals), kind


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


# (V3, h^3 * product) values of one torus level at h=0.04 (J from the
# lattice feet) with the variable density.  The DLC baseline was
# re-recorded when the baseline took the probe's normal at the target in
# place of the exact one; the V3 totals when a term's modes were cut at
# RESOLUTION (moves of at most 9e-15 relative); the DL baseline when the
# density came from the local coordinates in place of atan2 angles (one
# ulp); the SL total when s0's cell values came from its closed form in
# place of its Fourier series (2 ulps).  All six were re-recorded when a
# level became one kernel sweep, with v folded into the kernels and the
# products summed in SUM_BLOCK blocks, and one batch of planes, with the
# expansion's operator products written out per coordinate.  Old -> new
# (relative move):
#   SL  total    1.1469216740821002 ->  1.1469216740821     (1.9e-16)
#   SL  product  1.1364332193286044 ->  1.1364332193286042  (2.0e-16)
#   DL  total   -0.7740201701197255 -> -0.7740201701197253  (1.4e-16)
#   DL  product -0.7616040491396242 -> -0.7616040491396241  (1.5e-16)
#   DLC total   -0.944490495073738  -> -0.9444904950737375  (4.7e-16)
#   DLC product -0.9316442913058505 -> -0.9316442913058501  (3.6e-16)
_PINNED_04 = {
    "SL": (1.1469216740821, 1.1364332193286042),
    "DL": (-0.7740201701197253, -0.7616040491396241),
    "DLC": (-0.9444904950737375, -0.9316442913058501),
}


@pytest.mark.parametrize("chunk", [None, 1000])
def test_values_pinned_bit_for_bit(torus, table02, table11, monkeypatch, chunk):
    """Chunked passes leave every value bit-identical, at any chunk size:
    the sweep sums its products in SUM_BLOCK blocks, whatever CHUNK is."""
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


# torus targets (theta, phi) of the multi-target evaluations
_TARGET_ANGLES = [(1.1, 2.3), (-0.7, 0.4), (2.9, 5.1), (0.3, 1.7),
                  (-2.2, 3.9)]


def test_target_batch_matches_single_targets(torus, torus_tube, table02,
                                            table11):
    """Each target's entry of a multi-target call, details and per-plane
    diagnostics included, equals its one-point call bit for bit."""
    h, eps = torus_tube.h, torus_tube.eps
    tabs = (table02, table11)
    xs = [torus.param_point(*a) for a in _TARGET_ANGLES]
    batch = evaluate_V3(KERNEL_KINDS, torus, torus.density_at, xs, h, eps,
                        tabs, tube=torus_tube, return_details=True)
    assert isinstance(batch, list) and len(batch) == len(xs)
    for x, entry in zip(xs, batch):
        alone = evaluate_V3(KERNEL_KINDS, torus, torus.density_at, x, h, eps,
                            tabs, tube=torus_tube, return_details=True)
        assert entry == alone
        for details in entry:
            n = len(details["planes"])
            assert n > 0
            assert details["eta"] == tuple(p.eta for p in details["planes"])
            for key in ("s0_top_mode", "s1_top_mode", "s0_dropped",
                        "s1_dropped"):
                assert len(details[key]) == n, key
            assert all(m > table02.n_modes for m in details["s1_top_mode"])
            assert all(0.0 <= c < 1.0 for c in details["s1_dropped"])
    totals = evaluate_V3("DLC", torus, torus.density_at, xs[:2], h, eps, tabs,
                         tube=torus_tube)
    assert totals == [entry[2]["total"] for entry in batch[:2]]


def test_unresolved_plane_is_named(torus, torus_tube, table02, table11,
                                   monkeypatch):
    """A plane whose s1 the samples never resolve, among resolved planes of
    two targets, raises naming that plane's index and eta."""
    h, eps = torus_tube.h, torus_tube.eps
    xs = [torus.param_point(1.1, 2.3), torus.param_point(-0.7, 0.4)]
    planes = evaluate_V3("SL", torus, None, xs[1], h, eps, (table02, table11),
                         tube=torus_tube, return_details=True)["planes"]
    bad = planes[len(planes) // 2]
    s1_eval = KernelExpansion.s1_eval

    def with_a_step(self, kind, y):
        out = s1_eval(self, kind, y)
        if np.ndim(self.eta) == 1:   # the batch: one row jumps at angle 0
            step = np.where(np.arctan2(y[..., 1], y[..., 0]) < 0.0, 1.0, 0.0)
            out = np.where((self.eta == bad.eta)[:, None], step, out)
        return out

    monkeypatch.setattr(KernelExpansion, "s1_eval", with_a_step)
    expected = (rf"plane {bad.index} \(eta={re.escape(f'{bad.eta:.6g}')}\): "
                rf".*65536 samples do not resolve phi")
    with pytest.raises(ValueError, match=expected):
        evaluate_V3("SL", torus, None, xs, h, eps, (table02, table11),
                    tube=torus_tube)


@pytest.mark.parametrize("resampled", [False, True],
                         ids=["first-samples", "resampled"])
def test_non_finite_plane_is_named(torus, torus_tube, table02, table11,
                                   monkeypatch, resampled):
    """A plane whose s1 has a sample that is not finite, among finite planes
    of two targets, raises naming that plane's index and eta and its row in
    the batch: on the first sample set, and on a resampling of that plane
    alone, where it is row 0 of the resampled rows."""
    h, eps = torus_tube.h, torus_tube.eps
    tabs = (table02, table11)
    xs = [torus.param_point(1.1, 2.3), torus.param_point(-0.7, 0.4)]
    first, second = (evaluate_V3("SL", torus, None, x, h, eps, tabs,
                                 tube=torus_tube, return_details=True)["planes"]
                     for x in xs)
    i = len(second) // 2
    bad, row = second[i], len(first) + i
    s1_eval = KernelExpansion.s1_eval

    def with_a_nan(self, kind, y):
        out = s1_eval(self, kind, y)
        n = y.shape[0]
        if resampled and n == quad_core.MIN_SAMPLES:
            # a step: never resolved, so the plane is sampled again
            value = np.where(np.arctan2(y[:, 1], y[:, 0]) < 0.0, 1.0, 0.0)
        else:
            value = np.where(np.arange(n) == 5, np.nan, 1.0)
        return np.where((self.eta == bad.eta)[:, None], value, out)

    monkeypatch.setattr(KernelExpansion, "s1_eval", with_a_nan)
    n = 2 * quad_core.MIN_SAMPLES if resampled else quad_core.MIN_SAMPLES
    expected = (rf"plane {bad.index} \(eta={re.escape(f'{bad.eta:.6g}')}\): "
                rf"row {row}: phi sample 5 of {n} is nan, not finite")
    with pytest.raises(ValueError, match=expected):
        evaluate_V3("SL", torus, None, xs, h, eps, tabs, tube=torus_tube)


def test_dl_and_dlc_share_s0(torus, torus_tube, table02, table11, monkeypatch):
    """Per batch of planes, the three kinds build 5 term batches and
    interpolate 5 weight batches: DL and DLC have one s0, so its terms and
    k=0 weights are shared."""
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
    xstar = [torus.param_point(1.1, 2.3), torus.param_point(-0.7, 0.4)]
    batch = evaluate_V3(KERNEL_KINDS, torus, None, xstar, torus_tube.h,
                        torus_tube.eps, (table02, table11), tube=torus_tube,
                        return_details=True)
    assert all(len(details[0]["planes"]) > 0 for details in batch)
    assert calls.count("s0_term") == 2
    assert calls.count("s1_term") == 3
    assert calls.count("interpolate") == 5
    for details in batch:
        q2 = {kind: d["q2"] for kind, d in zip(KERNEL_KINDS, details)}
        assert q2["DL"] == q2["DLC"] != q2["SL"]


@pytest.mark.parametrize("kinds", ["SL", "DLC", ("SL", "DL", "DLC")],
                         ids=["SL", "DLC", "all"])
def test_evaluation_memory_is_bounded(torus, torus_tube, table02, table11,
                                      monkeypatch, kinds):
    """Beyond the tube, an evaluation of 1, 2 or 5 targets holds no
    per-node array.

    What it holds is the temporaries of one sweep pass -- per target, the
    coordinates dx, dy, dz of x* - P(y), r2, r, the exact-hit mask, v over
    4 pi r and over r^3, and a row per kind -- and the batch of planes
    (about 7 planes per target here, sampled at 256 or 512 angles).  Both
    stay under 200 bytes per CHUNK row per target for up to three kinds
    and five targets.  The per-target passes this replaced held one (N,)
    array per kind, 8 bytes per node each, plus 160 bytes per CHUNK row.
    """
    monkeypatch.setattr(ibim3d, "CHUNK", 2048)
    h, eps = torus_tube.h, torus_tube.eps
    for n_targets in (1, 2, 5):
        xstar = [torus.param_point(*a) for a in _TARGET_ANGLES[:n_targets]]
        probe = [surface_probe(torus, x, h=h, probe_distance=0.5 * torus.reach)
                 for x in xstar]
        if n_targets == 1:
            xstar, probe = xstar[0], probe[0]

        def run():
            return evaluate_V3(kinds, torus, None, xstar, h, eps,
                               (table02, table11), tube=torus_tube,
                               probe=probe)

        run()   # warm every cache first
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            run()
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak <= 200 * ibim3d.CHUNK * n_targets, n_targets


# ---------------------------------------------------------------------------
# evaluators: accuracy anchors
# ---------------------------------------------------------------------------

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


def _no_series(*args, **kwargs):
    raise AssertionError("the 3D rule sums no Fourier series")


@pytest.mark.parametrize("case", ["torus", "sphere-pole"])
def test_cell_s0_comes_from_closed_form(case, torus, torus_tube, sphere,
                                        table02, table11, monkeypatch):
    """evaluate_V3 calls neither SingularTerm.phi nor SingularTerm.evaluate,
    and gives the same values with both made to raise.  At the sphere's pole
    the singular line runs through the nearest node of every plane, where
    s0's closed form divides by zero: the value there is never read, and no
    floating-point warning escapes."""
    if case == "torus":
        surface, tube, xstar = torus, torus_tube, torus.param_point(1.1, 2.3)
        probe = None
    else:
        surface, xstar = sphere, np.array([0.0, 0.0, 1.0])
        tube = build_tube(sphere, 0.05, 0.1)
        probe = sphere.exact_probe(xstar)

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return evaluate_V3(KERNEL_KINDS, surface, None, xstar, tube.h,
                               tube.eps, (table02, table11), tube=tube,
                               probe=probe)

    expected = run()
    monkeypatch.setattr(quad_core.SingularTerm, "phi", _no_series)
    monkeypatch.setattr(quad_core.SingularTerm, "evaluate", _no_series)
    assert run() == expected


def test_torus_gauss_identity_and_baseline(torus, torus_tube, table02, table11):
    """DL of a unit density -> -1/2 on any closed surface; baseline lags far."""
    xstar = torus.param_point(1.1, 2.3)
    h, eps = torus_tube.h, torus_tube.eps
    details = evaluate_V3("DL", torus, None, xstar, h, eps, (table02, table11),
                          tube=torus_tube, return_details=True)
    dl, base = details["total"], h ** 3 * details["product"]
    assert abs(dl + 0.5) < 2e-4
    assert abs(dl + 0.5) < abs(base + 0.5) / 10.0


def test_eps_independence(sphere, sphere_target, table02, table11):
    """The tube half-width is a free parameter of the converged value."""
    vals = [evaluate_V3("SL", sphere, None, sphere_target, 0.02, eps,
                        (table02, table11))
            for eps in (0.08, 0.12)]
    assert abs(vals[0] - vals[1]) < 5e-5


def test_analytic_jacobian_value_agrees(torus, torus_tube, table02, table11):
    """J from the exact level_jacobian changes the value negligibly."""
    xstar = torus.param_point(-0.7, 0.4)
    h, eps = torus_tube.h, torus_tube.eps
    _, tube_an = _analytic_jacobian_tube(torus_level_jacobian, torus,
                                         torus_tube)
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

def test_convergence_study_structure(sphere, table02, table11, monkeypatch):
    evaluate, passes = ibim3d.evaluate_V3, {}

    def recorded_evaluate(kinds, surface, rho, xs, h, *args, **kwargs):
        out = evaluate(kinds, surface, rho, xs, h, *args, **kwargs)
        for x, parts in zip(xs, out):
            passes[(tuple(x), h)] = dict(zip(kinds, parts))
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


def test_study_one_pass_per_target_and_level(sphere, table02, table11,
                                             monkeypatch):
    """All targets and kinds of a level in one evaluation; no tube
    outlives its level."""
    build, evaluate = ibim3d.build_tube, ibim3d.evaluate_V3
    tubes, calls = [], []

    def tracked_build(*args, **kwargs):
        assert all(ref() is None for ref in tubes), "previous tube still held"
        tube = build(*args, **kwargs)
        tubes.append(weakref.ref(tube))
        return tube

    def counted_evaluate(kind, surface, rho, xs, *args, **kwargs):
        calls.append((kind, len(xs)))
        return evaluate(kind, surface, rho, xs, *args, **kwargs)

    monkeypatch.setattr(ibim3d, "build_tube", tracked_build)
    monkeypatch.setattr(ibim3d, "evaluate_V3", counted_evaluate)
    targets = np.array([[0.31, -0.52, 0.80], [-0.61, 0.40, 0.56]])
    res = convergence_study_3d(sphere, targets, [0.1, 0.08],
                               (table02, table11), kinds=("DL", "SL"),
                               eps=0.1)
    assert calls == [(("DL", "SL"), 2)] * 3   # 2 levels + reference
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


@pytest.mark.parametrize("case", ["evaluate_V3", "convergence_study_3d"])
def test_empty_targets_name_their_cause(case, sphere, sphere_tube, table02,
                                        table11):
    # no target is an input error named as such, not an indexing or
    # stacking failure from deep inside the pass
    with pytest.raises(ValueError, match="at least one target is needed"):
        if case == "evaluate_V3":
            evaluate_V3("SL", sphere, None, [], sphere_tube.h,
                        sphere_tube.eps, (table02, table11), tube=sphere_tube)
        else:
            convergence_study_3d(sphere, np.empty((0, 3)), [0.08, 0.05],
                                 (table02, table11))
