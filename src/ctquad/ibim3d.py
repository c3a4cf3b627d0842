"""Volumetric evaluation of 3D Laplace layer potentials on a tubular grid.

The surface integral over a closed level-set surface is rewritten as a volume
integral over the tube T_eps = {|d(y)| <= eps}:

    I_eps[rho](x*) = int_T  K(x*, P(y)) * rho(P(y)) * delta_eps(d(y)) * J(y) dy,

with P the closest-point projection, delta_eps a normalized C-infinity bump of
the signed distance, and J the area ratio between the surface and the level
set through y.  On a uniform grid the integrand is smooth except along the
surface-normal line through the target x*, where the kernel K blows up like
1/r.  Slicing the tube into lattice planes perpendicular to the dominant
component of the normal makes each slice a 2D integral with one point
singularity, which the corrected trapezoidal rules handle at third order:

    V3_h = h^3 * sum_{tube minus the per-plane 4-node cells} K*v
         + h^2 * sum_k sum_{i=1..4} w_i[s0; alpha2, beta2] * v(node_i, z_k)
         + h^3 * sum_k w[s1; alpha1, beta1] * v(nearest node, z_k)
         + h^3 * sum_k sum_{cell minus nearest node} (K - s0) * v,

where s0, s1 are the first two terms of the kernel's expansion along the
plane (degrees -1 and 0) and v = rho(P) * delta_eps(d) * J collects the
smooth factors.  The correction weights come from the precomputed tables for
the k=0 order-2 and k=1 order-1 rules, looked up at the in-plane offset of
the singular point.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

from . import geometry
from .geometry import (
    JACOBIAN_STENCIL,
    displaced_feet,
    projection_jacobian,
    surface_probe,
)
from .kernels3d import (
    AXIS_PERMUTATION,
    KERNEL_KINDS,
    S0_KIND,
    CubicSurfaceModel,
    build_frame,
    expansion_at_plane,
    weighted_kernels,
)
from .quad_core import (
    BatchRowError,
    Grid2,
    GridOffset,
    _pooled,
    locate_singularity,
    pair_orders,
    stencil_for_order,
)
from .weights import WeightTable, interpolate_weights

__all__ = [
    "TubeGrid",
    "PlaneProblem",
    "build_tube",
    "convergence_study_3d",
    "delta_eps",
    "DELTA_NORMALIZATION",
    "dominant_direction",
    "evaluate_V3",
    "plane_problems",
]

# the lattice starts this many cells (plus eps) below the surface's bounding
# box and ends as many above it; the J stencil needs at least BAND_CELLS
MARGIN_CELLS = 4
# reach of the J stencil along each axis, in cells: the band around the tube
# that holds every stencil node when the difference step is h
BAND_CELLS = max(abs(s) for s in JACOBIAN_STENCIL)
# rows per task of the tube's pooled passes and values per kernel-sweep
# pass; a J pass spans whole x-planes holding at most CHUNK tube rows, at
# least one plane.  Small enough that OpenBLAS runs a task's pose product
# (x - c) @ rot on one thread, so its threads do not contend with the pool's
CHUNK = 16_384
# lattice nodes a J pass's row map may span, in CHUNKs (a pass of one
# x-plane may span more)
MAP_CHUNKS = 16
# rows per partial sum of the kernel sweep's products: the blocks' sums are
# added in tube order, so the products' bits follow this and not CHUNK
SUM_BLOCK = 1024
# nodes per side of the blocks that the tube scan keeps or skips whole
BLOCK = 4


# ---------------------------------------------------------------------------
# regularized delta function
# ---------------------------------------------------------------------------

# the constant a making a * exp(2/(t^2-1)) integrate to 1 over [-1, 1]:
# 1 / (2 * int_0^1 exp(2/(t^2-1)) dt), rounded to the nearest double.  The
# integrand is C-infinity with every derivative vanishing at t = 1, so a
# tanh-sinh quadrature at 30 digits gives it far past double precision
DELTA_NORMALIZATION = 7.513931532835812


def delta_eps(eta, eps: float):
    """Compactly supported averaging kernel delta_eps(eta) with unit mass.

    delta_eps(eta) = (a/eps) * exp(2/((eta/eps)^2 - 1)) for |eta| < eps and
    exactly zero outside; a = DELTA_NORMALIZATION.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    t = np.asarray(eta, dtype=float) / eps
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(2.0 / (ti * ti - 1.0))
    return DELTA_NORMALIZATION * out / eps


# ---------------------------------------------------------------------------
# dominant direction of the surface normal
# ---------------------------------------------------------------------------

def dominant_direction(n) -> str:
    """Axis ('x' | 'y' | 'z') whose lattice planes best cut the normal line.

    With n = (sin(theta)cos(phi), sin(theta)sin(phi), cos(theta)): z when
    |tan(theta)| < sqrt(2), else y when |tan(phi)| >= 1, else x.  Both
    comparisons are as written, so boundary ties go to the y/x branches.
    """
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise ValueError(f"expected a single 3-vector, got shape {n.shape}")
    if n[0] ** 2 + n[1] ** 2 < 2.0 * n[2] ** 2:
        return "z"
    if abs(n[1]) >= abs(n[0]):
        return "y"
    return "x"


# ---------------------------------------------------------------------------
# tube grid
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class TubeGrid:
    """Uniform lattice restricted to the tube {|d| <= eps}, with node fields.

    Nodes are stored in lexicographic (ix, iy, iz) order; ``key`` is the
    flattened index (strictly increasing), so membership lookups are binary
    searches.  The tube keeps what the rule reads and nothing else: four
    per-node fields, ``key``, ``foot``, ``normal`` and ``v``, 64 bytes per
    node.  Lattice triples, node positions, the signed distance and the
    area ratio J are not kept.  All per-node fields are target-independent:
    the same tube serves every target point and kernel at a given spacing.
    """

    h: float
    eps: float
    origin: np.ndarray            # world position of lattice index (0, 0, 0)
    shape: tuple[int, int, int]   # lattice extent per axis
    key: np.ndarray               # (N,) flattened lattice index, sorted
    foot: np.ndarray              # (N, 3) closest surface points P(y)
    normal: np.ndarray            # (N, 3) outward unit normals at the feet
    v: np.ndarray                 # (N,) rho(P) * delta_eps(d) * J

    @property
    def n_nodes(self) -> int:
        return self.key.size

    def rows_for(self, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tube rows holding the given lattice triples, plus a found mask.

        Triples outside the lattice extent or outside the tube come back with
        found=False (their row value is arbitrary but in range).
        """
        index = np.asarray(index, dtype=np.int64)
        bounds = np.asarray(self.shape, dtype=np.int64)
        inside = np.all((index >= 0) & (index < bounds), axis=-1)
        _, ny, nz = self.shape
        keys = (index[..., 0] * ny + index[..., 1]) * nz + index[..., 2]
        rows = np.searchsorted(self.key, keys)
        rows = np.minimum(rows, max(self.key.size - 1, 0))
        found = inside & (self.key.size > 0) & (self.key[rows] == keys)
        return rows, found


def build_tube(surface, h: float, eps: float, *,
               rho: Callable | None = None) -> TubeGrid:
    """Scan an axis-aligned lattice and keep the nodes with |d| <= eps.

    The kept nodes carry what the rule reads and nothing else: key, foot
    (projection), normal and the assembled smooth factor
    v = rho(P) * delta_eps(d) * J, 64 bytes per node.  The signed distance
    d, the density rho(P) and the area ratio J are formed for v only; J is
    formed in v's own buffer, checked positive there, and never kept.

    The scan is a narrow band.  The lattice, which starts MARGIN_CELLS cells
    (plus eps) below the surface's bounding box, is cut into blocks of BLOCK
    nodes per side, and d is evaluated at each block's centre.  A block whose
    centre lies farther than the band width plus the half-diagonal
    (sqrt(3)/2) * (BLOCK - 1) * h from the surface is skipped whole: d is
    1-Lipschitz, so none of its nodes can be in the band, and the cull is
    exact.  d is then evaluated node by node in the kept blocks, one slab of
    BLOCK x-planes at a time, each slab's nodes taken in lexicographic order,
    so the rows come out sorted without a global sort.  A slab's positions
    broadcast its x coordinates against its kept (y, z) columns, and its
    keys are ix * ny * nz + (iy * nz + iz): no lattice triples are formed.
    Each band node is projected once, and the same pass gives its normal.

    J is the sum of the 2x2 principal minors of the projection map's
    Jacobian, taken with 4th-order centered differences (nodes +-1, +-2
    steps along each axis).  The step is the grid spacing h, capped at
    0.45 * (reach - eps) so the difference points stay clear of the
    surface's medial axis.  The feet it differences come one of two ways:

    * step == h: the difference points are lattice nodes.  The scan keeps
      the band |d| <= eps + 2h (a hair more, against rounding), which holds
      every stencil node of every tube node because d is 1-Lipschitz, and
      the stencil feet are gathered from the band's feet, one (n, 3) block
      per (axis, stencil node) pair (geometry.stencil_area_ratio, the
      formula of projection_jacobian).  A pass takes whole x-planes while
      it holds at most CHUNK tube rows, and the row map that finds its
      stencil feet covers those planes plus the stencil's reach on each
      side, at most MAP_CHUNKS * CHUNK lattice nodes unless one plane
      needs more; it never spans the lattice.  A stencil node
      missing from the band raises ValueError naming the tube node, the
      missing lattice node and h; one off the lattice (found from the keys'
      per-axis extent) raises naming the tube node.
    * step < h (the cap binds, only on coarse grids): the band is the tube,
      and the 12 displaced points of every tube node are projected
      (geometry.displaced_feet).

    Memory stays near the finished tube's: no whole-tube array of lattice
    triples or positions is formed, the band's feet are moved onto the tube
    rows in place once J is done, and rho and v are formed CHUNK rows at a
    time, each v row over the J it replaces.

    The projection of the band, the J passes from the lattice feet and the
    rho/v fill run on a thread pool with one worker per available CPU, in
    tasks of about CHUNK rows (one J pass each).  The scan and the in-place move
    of the feet stay on the calling thread.  Every field is bit-identical
    at any worker count, and an error in a task reaches the caller as the
    serial loop would raise it.  ``rho`` is called from the pool's threads.
    """
    if h <= 0:
        raise ValueError(f"grid spacing must be positive, got {h}")
    if eps <= 0:
        raise ValueError(f"tube half-width must be positive, got {eps}")
    reach = float(surface.reach)
    if eps >= reach:
        raise ValueError(f"tube half-width eps={eps} must be below the "
                         f"surface reach {reach}")
    step = min(h, 0.45 * (reach - eps))
    from_lattice = step == h
    # a hair past eps + 2h, so that rounding in d cannot drop a stencil node
    width = eps + (BAND_CELLS + 1e-6) * h if from_lattice else eps

    lo, hi = surface.bounding_box
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    pad = eps + MARGIN_CELLS * h
    origin = lo - pad
    shape = tuple(int(c) for c in np.ceil((hi + pad - origin) / h) + 1)

    band_key, band_d = _scan_band(surface, origin, h, shape, width)
    inner = np.abs(band_d) <= eps
    n = int(np.count_nonzero(inner))
    if n == 0:
        raise ValueError("tube is empty: the lattice does not meet {|d| <= eps}")
    band_foot = np.empty((band_key.size, 3))
    normal = np.empty((n, 3))
    axes = _lattice_axes(origin, h, shape)

    def project(rows):
        sl, tube_sl = rows
        band_foot[sl], band_normal = surface.foot_and_normal(
            _lattice_points(band_key[sl], axes))
        normal[tube_sl] = band_normal[inner[sl]]

    _pooled(project, _band_chunks(inner))
    key, d = band_key[inner], band_d[inner]
    del band_d

    # J is formed in v's buffer and never kept: the fill below turns it into
    # v row by row
    v = np.empty(n)
    if from_lattice:
        _, ny, nz = shape
        plane = ny * nz
        shifts = np.array([plane, nz, 1])[:, None] * np.array(JACOBIAN_STENCIL)
        lo_shift, hi_shift = int(shifts.min()), int(shifts.max())

        def jacobian(span):
            x0, x1 = span
            first, last = x0 * plane, x1 * plane
            t0, t1 = np.searchsorted(key, [first, last])
            if t0 == t1:
                return
            keys = key[t0:t1]
            _check_stencil_inside(keys, shape, h)
            base = first + lo_shift
            b0, b1 = np.searchsorted(band_key, [base, last + hi_shift])
            # band row of each node the pass's stencils reach; -1 off the band
            row_of = np.full(last - first + hi_shift - lo_shift, -1,
                             dtype=np.int32)
            row_of[band_key[b0:b1] - base] = np.arange(b0, b1, dtype=np.int32)
            # (axis, stencil node, tube node): one contiguous row per pair
            rows = row_of[shifts[:, :, None] + (keys - base)]
            if np.any(rows < 0):
                _raise_missing_neighbour(_lattice_index(keys, shape),
                                         np.moveaxis(rows, -1, 0), h)
            # called through its module: on a pool thread, never through a
            # name imported here, which instrumentation that keeps a single
            # span stack may have rebound (perfbench's tracer does)
            v[t0:t1] = geometry.stencil_area_ratio(
                lambda a, k: np.take(band_foot, rows[a, k], axis=0), h)

        _pooled(jacobian, _plane_passes(key, plane, hi_shift - lo_shift))
    else:
        # only where the reach caps the step, on coarse grids: few nodes, so
        # the 12 projections per node stay on the calling thread
        for i0 in range(0, n, CHUNK):
            sl = slice(i0, i0 + CHUNK)
            points = _lattice_points(key[sl], axes)
            v[sl] = projection_jacobian(
                displaced_feet(surface.project, points, step), step)
    del band_key
    if not np.all(v > 0.0):
        bad = int(np.argmin(v))
        point = _lattice_points(key[bad:bad + 1], axes)[0]
        raise ValueError(f"non-positive area ratio J={v[bad]:.3e} at node "
                         f"{point}; tube width exceeds the usable reach")

    # tube row t holds band row >= t, so moving the feet up in order never
    # overwrites a row still to be read; in order, so on the calling thread
    for sl, tube_sl in _band_chunks(inner):
        band_foot[tube_sl] = band_foot[sl][inner[sl]]
    del inner
    foot = band_foot   # no view of it is alive, so it can shrink in place
    foot.resize((n, 3), refcheck=False)

    def fill(i0):
        sl = slice(i0, i0 + CHUNK)
        density = 1.0
        if rho is not None:
            density = np.asarray(rho(foot[sl]), dtype=float)
            if density.shape != d[sl].shape:
                raise ValueError(f"rho must map (N,3) surface points to (N,) "
                                 f"values; got shape {density.shape}")
        v[sl] = density * delta_eps(d[sl], eps) * v[sl]

    _pooled(fill, range(0, n, CHUNK))

    if np.any(np.diff(key) <= 0):
        raise AssertionError("tube nodes are not in lexicographic order")
    return TubeGrid(h=h, eps=eps, origin=origin, shape=shape, key=key,
                    foot=foot, normal=normal, v=v)


def _plane_passes(key: np.ndarray, plane: int,
                  reach: int) -> list[tuple[int, int]]:
    """The J passes over the tube rows ``key``: spans [x0, x1) of whole
    x-planes of ``plane`` lattice nodes each.  A pass adds planes while it
    holds at most CHUNK tube rows and its row map, its planes' nodes plus
    ``reach`` more, at most MAP_CHUNKS * CHUNK; it takes one plane at
    least."""
    x_lo, x_hi = int(key[0]) // plane, int(key[-1]) // plane
    starts = np.searchsorted(key, np.arange(x_lo, x_hi + 2) * plane).tolist()
    spans, i, n = [], 0, x_hi - x_lo + 1
    while i < n:
        j = i + 1
        while (j < n and starts[j + 1] - starts[i] <= CHUNK
               and (j + 1 - i) * plane + reach <= MAP_CHUNKS * CHUNK):
            j += 1
        spans.append((x_lo + i, x_lo + j))
        i = j
    return spans


def _band_chunks(inner: np.ndarray):
    """(band rows, tube rows) of each CHUNK of band rows, the tube rows being
    the band rows where ``inner`` holds, renumbered from 0."""
    t0 = 0
    for i0 in range(0, inner.size, CHUNK):
        sl = slice(i0, i0 + CHUNK)
        t1 = t0 + int(np.count_nonzero(inner[sl]))
        yield sl, slice(t0, t1)
        t0 = t1


def _lattice_index(key: np.ndarray, shape) -> np.ndarray:
    """(N, 3) lattice triples of flattened lattice keys."""
    return np.stack(np.unravel_index(key, shape), axis=1)


def _lattice_axes(origin: np.ndarray, h: float, shape) -> list[np.ndarray]:
    """World coordinate of each lattice line, per axis: origin + h * index."""
    return [origin[a] + h * np.arange(c) for a, c in enumerate(shape)]


def _lattice_points(key: np.ndarray, axes: list[np.ndarray]) -> np.ndarray:
    """(N, 3) positions of flattened lattice keys.

    Each axis's coordinate is gathered from ``axes`` (_lattice_axes) by the
    key's quotient and remainders, bit for bit origin + h * index.
    """
    ny, nz = axes[1].size, axes[2].size
    ix, rest = np.divmod(key, ny * nz)
    iy, iz = np.divmod(rest, nz)
    points = np.empty((key.size, 3))
    for a, i in enumerate((ix, iy, iz)):
        points[:, a] = axes[a][i]
    return points


def _scan_band(surface, origin: np.ndarray, h: float, shape,
               width: float) -> tuple[np.ndarray, np.ndarray]:
    """Flattened keys (sorted) and signed distances of the nodes |d| <= width.

    Blocks of BLOCK nodes per side whose centre is too far from the surface
    for any node to be within width are never scanned; see build_tube.
    """
    nx, ny, nz = shape
    blocks = [np.arange(0, c, BLOCK) for c in shape]
    starts = np.stack(np.meshgrid(*blocks, indexing="ij"), axis=-1)
    centres = origin + h * (starts + 0.5 * (BLOCK - 1))
    # the relative hair keeps rounding in d from culling a block on the edge
    cull = (width + 0.5 * math.sqrt(3.0) * (BLOCK - 1) * h) * (1.0 + 1e-9)
    kept = np.abs(surface.distance(centres)) <= cull
    xs, ys, zs = _lattice_axes(origin, h, shape)
    key_parts, d_parts = [], []
    for bx, x0 in enumerate(blocks[0]):
        cols = np.repeat(np.repeat(kept[bx], BLOCK, axis=0), BLOCK, axis=1)
        iy, iz = np.nonzero(cols[:ny, :nz])
        if iy.size == 0:
            continue
        ix = np.arange(x0, min(x0 + BLOCK, nx))
        # the slab's nodes in lexicographic order: x-planes of kept columns
        points = np.empty((ix.size, iy.size, 3))
        points[..., 0] = xs[ix, None]
        points[..., 1] = ys[iy]
        points[..., 2] = zs[iz]
        d = np.asarray(surface.distance(points.reshape(-1, 3)), dtype=float)
        keep = (np.abs(d) <= width).reshape(ix.size, iy.size)
        key_parts.append(((ix * (ny * nz))[:, None] + (iy * nz + iz))[keep])
        d_parts.append(d[keep.ravel()])
    if not key_parts:
        return np.empty(0, dtype=np.int64), np.empty(0)
    return np.concatenate(key_parts), np.concatenate(d_parts)


def _check_stencil_inside(keys: np.ndarray, shape, h: float) -> None:
    """Raise unless every J stencil node of the tube nodes ``keys`` (sorted,
    not empty) is on the lattice.

    Flattened keys of off-lattice nodes would wrap onto other nodes.  The
    per-axis extent comes from integer arithmetic on the keys; the lattice
    triples are formed only to name an offending node.
    """
    _, ny, nz = shape
    iy, iz = keys // nz % ny, keys % nz
    low = np.array([keys[0] // (ny * nz), iy.min(), iz.min()])
    high = np.array([keys[-1] // (ny * nz), iy.max(), iz.max()])
    bounds = np.asarray(shape) - 1
    if np.all(low >= BAND_CELLS) and np.all(high <= bounds - BAND_CELLS):
        return
    index = _lattice_index(keys, shape)
    outside = np.any((index < BAND_CELLS) | (index > bounds - BAND_CELLS),
                     axis=1)
    node = tuple(int(i) for i in index[np.argmax(outside)])
    raise ValueError(f"J stencil of tube node {node} leaves the lattice "
                     f"{tuple(shape)} at h={h}")


def _raise_missing_neighbour(index: np.ndarray, rows: np.ndarray, h: float):
    """Name the first tube node whose J stencil reaches outside the band."""
    i, a, k = (int(j[0]) for j in np.nonzero(rows < 0))
    node = tuple(int(c) for c in index[i])
    other = list(node)
    other[a] += JACOBIAN_STENCIL[k]
    raise ValueError(f"J stencil of tube node {node} at h={h} reaches lattice "
                     f"node {tuple(other)}, which is outside the scanned band")


# ---------------------------------------------------------------------------
# per-plane singular subproblems
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class PlaneProblem:
    """Geometry of one corrected lattice plane along the dominant axis.

    The singular line {x* + t n} meets plane ``index`` (world coordinate
    ``z``) at signed distance ``eta`` from the surface; ``y0`` is the
    intersection's in-plane coordinates in permuted axis order.  ``off1`` and
    ``off2`` anchor the one-node (nearest node) and four-node (cell corners)
    stencils with their fractional offsets.
    """

    index: int
    z: float
    eta: float
    y0: tuple[float, float]
    off1: GridOffset
    off2: GridOffset


def plane_problems(probe, axis: str, tube: TubeGrid) -> list[PlaneProblem]:
    """All corrected planes (|eta| < eps) for a target probe on a tube grid."""
    perm = AXIS_PERMUTATION[axis]
    p0, p1, pw = perm
    n_w = float(probe.n[pw])
    if abs(n_w) < 1e-12:
        raise ValueError(f"normal has no component along the dominant axis "
                         f"{axis!r}; direction rule violated")
    xs = probe.xstar
    w_star = float(xs[pw])
    ow = float(tube.origin[pw])
    h = tube.h
    # the tube lattice on the two in-plane axes
    grid = Grid2(h=h, origin=(float(tube.origin[p0]), float(tube.origin[p1])),
                 extent=((0, tube.shape[p0] - 1), (0, tube.shape[p1] - 1)))
    band = tube.eps * abs(n_w)
    k_lo = math.ceil((w_star - band - ow) / h)
    k_hi = math.floor((w_star + band - ow) / h)
    out = []
    for k in range(k_lo, k_hi + 1):
        z = ow + k * h
        eta = (z - w_star) / n_w
        if abs(eta) >= tube.eps:
            continue
        y0_pt = xs + eta * probe.n
        y0 = (float(y0_pt[p0]), float(y0_pt[p1]))
        out.append(PlaneProblem(
            index=k, z=z, eta=eta, y0=y0,
            off1=locate_singularity(y0, grid, 1)[1],
            off2=locate_singularity(y0, grid, 2)[1]))
    return out


def _check_tables(tables) -> tuple[WeightTable, WeightTable]:
    """Validate the pair (table_k0, table_k1): the (0, 2) and (1, 1) rules."""
    t0, t1 = tables
    if not (t0.k == 0 and t0.p == 2):
        raise ValueError(f"first table must be the (k=0, p=2) rule, got "
                         f"k={t0.k}, p={t0.p}")
    if not (t1.k == 1 and t1.p == 1):
        raise ValueError(f"second table must be the (k=1, p=1) rule, got "
                         f"k={t1.k}, p={t1.p}")
    return t0, t1


def _default_probe(surface, xstar, h: float):
    return surface_probe(surface, xstar, h=h,
                         probe_distance=0.5 * float(surface.reach))


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------

def _check_tube(tube: TubeGrid, h: float, eps: float) -> None:
    """Raise unless the tube was built for this (h, eps)."""
    if not (math.isclose(tube.h, h, rel_tol=1e-12)
            and math.isclose(tube.eps, eps, rel_tol=1e-12)):
        raise ValueError(f"tube grid was built for (h={tube.h}, eps={tube.eps}), "
                         f"not (h={h}, eps={eps})")


def _kernel_products(kinds: tuple[str, ...], probes,
                     tube: TubeGrid) -> np.ndarray:
    """The plain lattice sums sum_y K(x*, P(y)) v(y), as (kinds, targets).

    One pass over the tube forms every target's kernel rows with v folded
    in (`weighted_kernels`), as (targets, rows) arrays of about CHUNK
    values in all: a whole number of SUM_BLOCK rows, at least one.  Each
    block's values are summed alone, and the blocks' sums are added in
    tube order, so the bits follow SUM_BLOCK and not CHUNK or the targets
    alongside.  Beyond the tube this holds a bound in CHUNK.
    """
    xs = np.array([p.xstar for p in probes], dtype=float).T[:, :, None]
    ns = np.array([p.n for p in probes], dtype=float).T[:, :, None]
    rows = max(1, CHUNK // (SUM_BLOCK * len(probes))) * SUM_BLOCK
    total = np.zeros((len(kinds), len(probes)))
    for i0 in range(0, tube.n_nodes, rows):
        sl = slice(i0, i0 + rows)
        values = weighted_kernels(kinds, xs, ns, tube.foot[sl].T,
                                  tube.normal[sl].T, tube.v[sl])
        blocks = np.stack([_block_sums(v) for v in values])
        for block in np.moveaxis(blocks, -1, 0):
            total += block
    return total


def _block_sums(values: np.ndarray) -> np.ndarray:
    """Sums of each run of SUM_BLOCK values along the last axis (the last
    run may be shorter)."""
    n = values.shape[-1]
    cut = n - n % SUM_BLOCK
    parts = [values[..., :cut].reshape(values.shape[:-1] + (-1, SUM_BLOCK))
             .sum(axis=-1)]
    if cut < n:
        parts.append(values[..., cut:].sum(axis=-1, keepdims=True))
    return np.concatenate(parts, axis=-1)


def _target_batch(xstar, probe, surface, h: float):
    """(one point?, probes) from evaluate_V3's xstar and probe arguments."""
    points = np.asarray(xstar, dtype=float)
    single = points.ndim == 1
    if points.size == 0:
        raise ValueError("at least one target is needed, got none")
    points = points.reshape(-1, 3)
    if probe is None:
        probes = [_default_probe(surface, x, h) for x in points]
    else:
        probes = [probe] if single else list(probe)
    if len(probes) != len(points):
        raise ValueError(f"{len(points)} targets need as many probes, got "
                         f"{len(probes)}")
    return single, probes


def _dropped(term, n_modes: int) -> float:
    """The largest |coefficient| of the term beyond mode n_modes (0 if none)."""
    out = 0.0
    for (_, m), c in reversed(term.coefficients.items()):
        if m <= n_modes:
            break
        out = max(out, abs(c))
    return out


# the per-plane parts of an evaluation, summed over each target's planes
_PLANE_PARTS = ("excluded", "q2", "q1", "remainder")


def evaluate_V3(kind: str | tuple[str, ...], surface, rho: Callable | None,
                xstar, h: float, eps: float, tables, *,
                tube: TubeGrid | None = None, probe=None,
                return_details: bool = False):
    """Third-order plane-by-plane corrected value of I_eps[rho](x*).

    The full lattice sum of K*v runs once over the tube; each plane within
    |eta| < eps of the surface along the dominant normal direction then
    swaps its 4-node singular cell for the corrected rules: the k=0 order-2
    correction of s0*v at the cell offset, the k=1 order-1 correction of
    s1*v at the nearest node, and the (K - s0)*v re-addition on the cell
    minus that node.  Planes beyond the band keep the plain sum (the
    integrand's compact support vanishes around their singular point).

    ``kind`` is one kernel name, or a tuple of names: then each target's
    result is a tuple with one entry per name, and the kernel values, the
    frame, the planes, their row lookups and expansions are formed once for
    all of them.  ``xstar`` is one point, or a sequence of points evaluated
    in one pass: the result is then a list with one entry per point.  A
    level is evaluated like this:

    * one sweep of the tube forms every (target, kind) kernel row, with v
      folded in, and sums the products in blocks of SUM_BLOCK rows
      (`_kernel_products`);
    * every corrected plane of every target is one batch: one expansion
      over the planes' offsets eta, one sampled term per kind and order
      (DL and DLC share s0), one table lookup per term kind, and the 4-node
      cells' kernel values from the same per-node expression as the sweep.

    Each entry is bit-identical to its one-point call, and each name's to
    its single-name call.

    ``tube`` and ``probe`` may be precomputed and shared across kernels and
    targets; they must match (surface, h, eps) and xstar respectively (a
    sequence of probes for a sequence of points).  With ``return_details``
    each entry is a dict of the total and its parts: the uncorrected
    lattice sum ``product``, the ``excluded`` 4-node cells, the corrections
    ``q2``, ``q1`` and ``remainder``, and the ``planes``.  h^3 * product is
    the first-order punctured baseline: the plain lattice sum of K*v, with
    only the exact hits of the singular line left out.  Per plane, in the
    order of ``planes``, it also holds tuples of ``eta``, the top mode of
    the kind's s0 and s1 terms (``s0_top_mode``, ``s1_top_mode``) and the
    largest |coefficient| beyond each table's n_modes, the angular mass the
    lookup drops (``s0_dropped``, ``s1_dropped``).
    """
    kinds = (kind,) if isinstance(kind, str) else tuple(kind)
    table0, table1 = _check_tables(tables)
    single, probes = _target_batch(xstar, probe, surface, h)
    if tube is None:
        tube = build_tube(surface, h, eps, rho=rho)
    _check_tube(tube, h, eps)

    products = _kernel_products(kinds, probes, tube)

    # every corrected plane of every target, in target order
    planes, owner, frames, models, perms = [], [], [], [], []
    for t, pr in enumerate(probes):
        axis = dominant_direction(pr.n)
        frame, model = build_frame(pr, axis), CubicSurfaceModel.from_probe(pr)
        for plane in plane_problems(pr, axis, tube):
            planes.append(plane)
            owner.append(t)
            frames.append(frame)
            models.append(model)
            perms.append(AXIS_PERMUTATION[axis])
    owner = np.array(owner, dtype=np.int64)

    # per plane and kind: the excluded cell, q2, q1 and the remainder
    per_plane = np.zeros((len(_PLANE_PARTS), len(kinds), len(planes)))
    s0_kinds = list(dict.fromkeys(S0_KIND[name] for name in kinds))
    terms = {}
    if planes:
        try:
            expansion = expansion_at_plane(
                frames, models, np.array([p.eta for p in planes]))
            for s0_kind in s0_kinds:
                terms["s0", s0_kind] = expansion.s0_term(s0_kind)
            for name in kinds:
                terms["s1", name] = expansion.s1_term(name)
        except BatchRowError as e:   # its row names the plane in the batch
            plane = planes[e.row]
            raise type(e)(f"plane {plane.index} (eta={plane.eta:.6g}): "
                          f"{e}") from e
        cells = _plane_cells(kinds, planes, perms, probes, owner, tube)
        v4, keep = cells["v4"], cells["keep"]
        off2 = [p.off2 for p in planes]
        off1 = [p.off1 for p in planes]
        s0, w0 = {}, {}
        for s0_kind in s0_kinds:
            # s0 is not finite at an exact hit, which keep leaves out
            with np.errstate(divide="ignore", invalid="ignore"):
                s0[s0_kind] = np.where(
                    keep, expansion.s0_eval(s0_kind, cells["dxy"]), 0.0)
            w0[s0_kind] = interpolate_weights(table0, terms["s0", s0_kind],
                                              off2)
        for ki, name in enumerate(kinds):
            w1 = interpolate_weights(table1, terms["s1", name], off1)[:, 0]
            k4v = cells["values"][ki]
            per_plane[:, ki] = (
                np.where(cells["found"], k4v, 0.0).sum(axis=-1),
                (w0[S0_KIND[name]] * v4).sum(axis=-1),
                w1 * cells["nearest"],
                np.where(keep, k4v - s0[S0_KIND[name]] * v4, 0.0).sum(axis=-1))

    out = []
    for t in range(len(probes)):
        rows = np.flatnonzero(owner == t)
        target_planes = [planes[i] for i in rows]
        entry = []
        for ki, name in enumerate(kinds):
            part = {"product": float(products[ki, t])}
            for key, values in zip(_PLANE_PARTS, per_plane[:, ki, rows]):
                part[key] = sum(values.tolist(), 0.0)
            total = (h ** 3 * (part["product"] - part["excluded"])
                     + h ** 2 * part["q2"] + h ** 3 * part["q1"]
                     + h ** 3 * part["remainder"])
            if not return_details:
                entry.append(total)
                continue
            s0_terms = [terms["s0", S0_KIND[name]][i] for i in rows]
            s1_terms = [terms["s1", name][i] for i in rows]
            entry.append({
                "total": total, **part, "planes": target_planes,
                "eta": tuple(p.eta for p in target_planes),
                "s0_top_mode": tuple(_top_mode(x) for x in s0_terms),
                "s1_top_mode": tuple(_top_mode(x) for x in s1_terms),
                "s0_dropped": tuple(_dropped(x, table0.n_modes)
                                    for x in s0_terms),
                "s1_dropped": tuple(_dropped(x, table1.n_modes)
                                    for x in s1_terms)})
        out.append(entry[0] if isinstance(kind, str) else tuple(entry))
    return out[0] if single else out


def _top_mode(term) -> int:
    return next(reversed(term.coefficients))[1]


def _plane_cells(kinds, planes, perms, probes, owner, tube: TubeGrid) -> dict:
    """The 4-node singular cell of every plane: v there (0 off the tube),
    which nodes are found, which are kept for the remainder (found, and not
    the nearest node), v at the nearest node, the nodes' in-plane offsets
    ``dxy`` from the singular point, and each kind's K*v at the nodes."""
    n = len(planes)
    offsets4 = np.asarray(stencil_for_order(2).offsets, dtype=np.int64)
    corner_of = {tuple(o): i for i, o in enumerate(offsets4.tolist())}
    triples = np.empty((n, 4, 3), dtype=np.int64)
    dxy = np.empty((n, 4, 2))
    nearest_corner = np.empty(n, dtype=np.int64)
    for i, (plane, (p0, p1, pw)) in enumerate(zip(planes, perms)):
        ia2, ja2 = plane.off2.anchor
        ia1, ja1 = plane.off1.anchor
        triples[i, :, p0] = ia2 + offsets4[:, 0]
        triples[i, :, p1] = ja2 + offsets4[:, 1]
        triples[i, :, pw] = plane.index
        nearest_corner[i] = corner_of[(ia1 - ia2, ja1 - ja2)]
        dxy[i, :, 0] = tube.origin[p0] + triples[i, :, p0] * tube.h - plane.y0[0]
        dxy[i, :, 1] = tube.origin[p1] + triples[i, :, p1] * tube.h - plane.y0[1]
    rows, found = tube.rows_for(triples)
    v4 = np.where(found, tube.v[rows], 0.0)
    keep = found.copy()
    keep[np.arange(n), nearest_corner] = False
    xs = np.array([probes[t].xstar for t in owner], dtype=float).reshape(-1, 3)
    ns = np.array([probes[t].n for t in owner], dtype=float).reshape(-1, 3)
    values = weighted_kernels(kinds, xs.T[:, :, None], ns.T[:, :, None],
                              np.moveaxis(tube.foot[rows], -1, 0),
                              np.moveaxis(tube.normal[rows], -1, 0), v4)
    return {"v4": v4, "found": found, "keep": keep, "dxy": dxy,
            "nearest": v4[np.arange(n), nearest_corner], "values": values}


# ---------------------------------------------------------------------------
# convergence study driver
# ---------------------------------------------------------------------------

def _study_targets(surface, targets) -> np.ndarray:
    """Normalize targets to surface points: (m, 2) angles or (m, 3) points."""
    arr = np.asarray(targets, dtype=float)
    if arr.size == 0:
        raise ValueError("at least one target is needed, got none")
    if arr.ndim != 2 or arr.shape[1] not in (2, 3):
        raise ValueError("targets must be (m, 2) surface angles or (m, 3) points")
    if arr.shape[1] == 2:
        if not hasattr(surface, "param_point"):
            raise ValueError("angle targets need a parametric surface handle")
        return np.stack([surface.param_point(a, b) for a, b in arr])
    return np.stack([surface.project(p) for p in arr])


def convergence_study_3d(surface, targets, levels: Sequence[float], tables, *,
                         kinds: Sequence[str] = KERNEL_KINDS, eps: float = 0.1,
                         rho: Callable | None = None,
                         include_baseline: bool = False,
                         progress: Callable | None = None) -> dict:
    """Self-convergence study of the corrected rule over grid spacings.

    Evaluates every (kernel, target) pair at each spacing plus a reference
    spacing at half the finest, reports E(h) = |V(h) - V(h_ref)| and the
    observed orders log(E_i/E_{i+1}) / log(h_i/h_{i+1}), each on the
    coarser row of its pair.  The tube and the per-target probes are
    rebuilt per level from the grid alone, so frames, curvatures, third
    derivatives and J all carry the resolution being measured.  Each level
    is one `evaluate_V3` call for all targets and kinds (one sweep of the
    tube and one batch of planes), and each level's tube is released
    before the next one is built.  The values are those of one call per
    target, bit for bit.

    Returns a dict with the raw values; per-target ``rows`` ready for
    tabulation; ``mean_rows``, which average the per-target errors at each
    level and carry the orders of those averages; the averaged errors per
    label in ``mean_errors``; and the mean of the per-target orders per
    kernel in ``mean_orders``.  Baseline rows, when requested, are labelled
    "<kind>:baseline" and follow the corrected ones; each value is
    h^3 * ``product`` from the same `evaluate_V3` pass, and they have no
    ``mean_orders`` entry.
    """
    hs = [float(h) for h in levels]
    if len(hs) < 2 or hs[-1] <= 0 or any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("levels must be a strictly decreasing list of at "
                         "least two positive spacings")
    h_ref = hs[-1] / 2.0
    pts = _study_targets(surface, targets)
    for kind in kinds:
        if kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {kind!r}")

    kinds = tuple(kinds)
    values: dict[tuple[str, int, float], float] = {}
    for h in hs + [h_ref]:
        tube = build_tube(surface, h, eps, rho=rho)
        if progress is not None:
            progress(f"h={h:.6g}: tube has {tube.n_nodes} nodes")
        probes = [_default_probe(surface, x, h) for x in pts]
        level = evaluate_V3(kinds, surface, rho, pts, h, eps, tables,
                            tube=tube, probe=probes, return_details=True)
        for ti, parts in enumerate(level):
            for kind, part in zip(kinds, parts):
                values[(kind, ti, h)] = part["total"]
                if include_baseline:
                    values[(f"{kind}:baseline", ti, h)] = h ** 3 * part["product"]
        # the next level's build must not run beside this level's tube
        del tube

    labels = list(kinds)
    if include_baseline:
        labels += [f"{kind}:baseline" for kind in kinds]
    rows: list[dict] = []
    mean_rows: list[dict] = []
    mean_errors: dict[str, list[float]] = {}
    mean_orders: dict[str, float] = {}
    for label in labels:
        errs = [[abs(values[(label, ti, h)] - values[(label, ti, h_ref)])
                 for h in hs] for ti in range(len(pts))]
        label_rows = [{"kind": label, "target": ti, "h": h,
                       "value": values[(label, ti, h)], "error": e,
                       "order": order}
                      for ti in range(len(pts))
                      for h, e, order in zip(
                          hs, errs[ti], pair_orders(errs[ti], hs) + [None])]
        rows.extend(label_rows)
        means = [float(np.mean([e[i] for e in errs])) for i in range(len(hs))]
        mean_errors[label] = means
        mean_rows.extend({"kind": label, "target": "mean", "h": h,
                          "value": None, "error": e, "order": order}
                         for h, e, order in zip(
                             hs, means, pair_orders(means, hs) + [None]))
        if label in kinds:
            orders = [r["order"] for r in label_rows if r["order"] is not None]
            mean_orders[label] = float(np.mean(orders)) if orders else math.nan

    return {"levels": hs, "reference_h": h_ref, "eps": eps,
            "targets": pts, "values": values, "rows": rows,
            "mean_rows": mean_rows, "mean_errors": mean_errors,
            "mean_orders": mean_orders}
