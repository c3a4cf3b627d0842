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
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad as _scipy_quad

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
    CurvatureLimitError,
    build_frame,
    expansion_at_plane,
    kernel_values,
)
from .quad_core import GridOffset, _pooled, pair_orders, stencil_for_order
from .weights import WeightTable, interpolate_weights

__all__ = [
    "TubeGrid",
    "PlaneProblem",
    "build_tube",
    "convergence_study_3d",
    "delta_eps",
    "delta_normalization",
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
# rows per task of the tube's pooled passes and per kernel-value pass; a J
# pass spans CHUNK lattice nodes' worth of x-planes, at least one.  Small
# enough that OpenBLAS runs a task's pose product (x - c) @ rot on one
# thread, so its threads do not contend with the pool's
CHUNK = 16_384
# nodes per side of the blocks that the tube scan keeps or skips whole
BLOCK = 4


# ---------------------------------------------------------------------------
# regularized delta function
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def delta_normalization() -> float:
    """Constant a making a * exp(2/(t^2-1)) integrate to 1 over [-1, 1].

    Computed once by adaptive quadrature; the integrand is C-infinity with
    all derivatives vanishing at the endpoints, so the estimate is reliable
    well past 1e-12.
    """
    out = _scipy_quad(lambda t: math.exp(2.0 / (t * t - 1.0)), 0.0, 1.0,
                      epsabs=1e-16, epsrel=1e-14, limit=200, full_output=1)
    val, err = out[0], out[1]
    total = 2.0 * val
    if 2.0 * err > 1e-12 * total:
        raise RuntimeError(f"delta normalization quadrature too loose: err={err:.2e}")
    return 1.0 / total


def delta_eps(eta, eps: float):
    """Compactly supported averaging kernel delta_eps(eta) with unit mass.

    delta_eps(eta) = (a/eps) * exp(2/((eta/eps)^2 - 1)) for |eta| < eps and
    exactly zero outside; a = delta_normalization().
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    t = np.asarray(eta, dtype=float) / eps
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(2.0 / (ti * ti - 1.0))
    return delta_normalization() * out / eps


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
    searches.  The lattice triples ``index`` and node positions ``points``
    are derived from ``key`` when asked for, not stored.  All per-node
    fields are target-independent: the same tube serves every target point
    and kernel at a given spacing.
    """

    h: float
    eps: float
    origin: np.ndarray            # world position of lattice index (0, 0, 0)
    shape: tuple[int, int, int]   # lattice extent per axis
    key: np.ndarray               # (N,) flattened lattice index, sorted
    d: np.ndarray                 # (N,) signed distances
    foot: np.ndarray              # (N, 3) closest surface points P(y)
    normal: np.ndarray            # (N, 3) outward unit normals at the feet
    jacobian: np.ndarray          # (N,) area ratios J
    density: np.ndarray           # (N,) rho at the feet
    v: np.ndarray                 # (N,) rho * delta_eps(d) * J

    @property
    def n_nodes(self) -> int:
        return self.key.size

    @property
    def index(self) -> np.ndarray:
        """(N, 3) int lattice indices."""
        return _lattice_index(self.key, self.shape)

    @property
    def points(self) -> np.ndarray:
        """(N, 3) node positions."""
        return self.origin + self.h * self.index

    def flat_key(self, index: np.ndarray) -> np.ndarray:
        index = np.asarray(index, dtype=np.int64)
        _, ny, nz = self.shape
        return (index[..., 0] * ny + index[..., 1]) * nz + index[..., 2]

    def rows_for(self, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tube rows holding the given lattice triples, plus a found mask.

        Triples outside the lattice extent or outside the tube come back with
        found=False (their row value is arbitrary but in range).
        """
        index = np.asarray(index, dtype=np.int64)
        bounds = np.asarray(self.shape, dtype=np.int64)
        inside = np.all((index >= 0) & (index < bounds), axis=-1)
        keys = self.flat_key(index)
        rows = np.searchsorted(self.key, keys)
        rows = np.minimum(rows, max(self.key.size - 1, 0))
        found = inside & (self.key.size > 0) & (self.key[rows] == keys)
        return rows, found


def build_tube(surface, h: float, eps: float, *,
               rho: Callable | None = None) -> TubeGrid:
    """Scan an axis-aligned lattice and keep the nodes with |d| <= eps.

    The kept nodes carry everything the quadratures need: signed distance,
    projection, normal, area ratio J, surface density rho(P), and the
    assembled smooth factor v = rho * delta_eps(d) * J.

    The scan is a narrow band.  The lattice, which starts MARGIN_CELLS cells
    (plus eps) below the surface's bounding box, is cut into blocks of BLOCK
    nodes per side, and d is evaluated at each block's centre.  A block whose
    centre lies farther than the band width plus the half-diagonal
    (sqrt(3)/2) * (BLOCK - 1) * h from the surface is skipped whole: d is
    1-Lipschitz, so none of its nodes can be in the band, and the cull is
    exact.  d is then evaluated node by node in the kept blocks, one slab of
    BLOCK x-planes at a time, each slab's nodes taken in lexicographic order,
    so the rows come out sorted without a global sort.  Each band node is
    projected once, and the same pass gives its normal.

    J is the sum of the 2x2 principal minors of the projection map's
    Jacobian, taken with 4th-order centered differences (nodes +-1, +-2
    steps along each axis).  The step is the grid spacing h, capped at
    0.45 * (reach - eps) so the difference points stay clear of the
    surface's medial axis.  The feet it differences come one of two ways:

    * step == h: the difference points are lattice nodes.  The scan keeps
      the band |d| <= eps + 2h (a hair more, against rounding), which holds
      every stencil node of every tube node because d is 1-Lipschitz, and
      the stencil feet are gathered from the band's feet.  The row map that
      finds them covers CHUNK nodes' worth of x-planes plus the stencil's
      reach on each side, and slides along x; it never spans the lattice.
      A stencil node missing from the band raises ValueError naming the
      tube node and h.
    * step < h (the cap binds, only on coarse grids): the band is the tube,
      and the 12 displaced points of every tube node are projected
      (geometry.displaced_feet).

    Memory stays near the finished tube's: no whole-tube array of lattice
    triples or positions is formed, the band's feet are moved onto the tube
    rows in place once J is done, and rho and v are formed CHUNK rows at a
    time.

    The projection of the band, the J passes from the lattice feet and the
    rho/v fill run on a thread pool with one worker per available CPU, in
    tasks of CHUNK rows (one J pass each).  The scan and the in-place move
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

    def project(rows):
        sl, tube_sl = rows
        band_foot[sl], band_normal = surface.foot_and_normal(
            origin + h * _lattice_index(band_key[sl], shape))
        normal[tube_sl] = band_normal[inner[sl]]

    _pooled(project, _band_chunks(inner))
    key, d = band_key[inner], band_d[inner]
    del band_d

    jac = np.empty(n)
    if from_lattice:
        _, ny, nz = shape
        plane = ny * nz
        shifts = np.array([plane, nz, 1])[:, None] * np.array(JACOBIAN_STENCIL)
        lo_shift, hi_shift = int(shifts.min()), int(shifts.max())
        planes = max(1, CHUNK // plane)  # x-planes of tube nodes per pass

        def jacobian(x0):
            first, last = x0 * plane, (x0 + planes) * plane
            t0, t1 = np.searchsorted(key, [first, last])
            _check_stencil_inside(_lattice_index(key[t0:t1], shape), shape, h)
            base = first + lo_shift
            b0, b1 = np.searchsorted(band_key, [base, last + hi_shift])
            # band row of each node the pass's stencils reach; -1 off the band
            row_of = np.full(planes * plane + hi_shift - lo_shift, -1,
                             dtype=np.int32)
            row_of[band_key[b0:b1] - base] = np.arange(b0, b1, dtype=np.int32)
            rows = row_of[key[t0:t1, None, None] - base + shifts]
            if np.any(rows < 0):
                _raise_missing_neighbour(_lattice_index(key[t0:t1], shape),
                                         rows, h)
            # called through its module: on a pool thread, never through a
            # name imported here, which instrumentation that keeps a single
            # span stack may have rebound (perfbench's tracer does)
            jac[t0:t1] = geometry.projection_jacobian(
                np.take(band_foot, rows, axis=0), h)

        _pooled(jacobian, range(int(key[0]) // plane, int(key[-1]) // plane + 1,
                                planes))
    else:
        # only where the reach caps the step, on coarse grids: few nodes, so
        # the 12 projections per node stay on the calling thread
        for i0 in range(0, n, CHUNK):
            sl = slice(i0, i0 + CHUNK)
            points = origin + h * _lattice_index(key[sl], shape)
            jac[sl] = projection_jacobian(
                displaced_feet(surface.project, points, step), step)
    del band_key
    if not np.all(jac > 0.0):
        bad = int(np.argmin(jac))
        point = origin + h * _lattice_index(key[bad:bad + 1], shape)[0]
        raise ValueError(f"non-positive area ratio J={jac[bad]:.3e} at node "
                         f"{point}; tube width exceeds the usable reach")

    # tube row t holds band row >= t, so moving the feet up in order never
    # overwrites a row still to be read; in order, so on the calling thread
    for sl, tube_sl in _band_chunks(inner):
        band_foot[tube_sl] = band_foot[sl][inner[sl]]
    del inner
    foot = band_foot   # no view of it is alive, so it can shrink in place
    foot.resize((n, 3), refcheck=False)

    density = np.ones(n) if rho is None else np.empty(n)
    v = np.empty(n)

    def fill(i0):
        sl = slice(i0, i0 + CHUNK)
        if rho is not None:
            part = np.asarray(rho(foot[sl]), dtype=float)
            if part.shape != d[sl].shape:
                raise ValueError(f"rho must map (N,3) surface points to (N,) "
                                 f"values; got shape {part.shape}")
            density[sl] = part
        v[sl] = density[sl] * delta_eps(d[sl], eps) * jac[sl]

    _pooled(fill, range(0, n, CHUNK))

    if np.any(np.diff(key) <= 0):
        raise AssertionError("tube nodes are not in lexicographic order")
    return TubeGrid(h=h, eps=eps, origin=origin, shape=shape, key=key, d=d,
                    foot=foot, normal=normal, jacobian=jac, density=density,
                    v=v)


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
    key_parts, d_parts = [], []
    for bx, x0 in enumerate(blocks[0]):
        cols = np.repeat(np.repeat(kept[bx], BLOCK, axis=0), BLOCK, axis=1)
        iy, iz = np.nonzero(cols[:ny, :nz])
        if iy.size == 0:
            continue
        ix = np.arange(x0, min(x0 + BLOCK, nx))
        index = np.stack([np.repeat(ix, iy.size), np.tile(iy, ix.size),
                          np.tile(iz, ix.size)], axis=1)
        d = np.asarray(surface.distance(origin + h * index), dtype=float)
        keep = np.abs(d) <= width
        key_parts.append(np.ravel_multi_index(index[keep].T, shape))
        d_parts.append(d[keep])
    if not key_parts:
        return np.empty(0, dtype=np.int64), np.empty(0)
    return np.concatenate(key_parts), np.concatenate(d_parts)


def _check_stencil_inside(index: np.ndarray, shape, h: float) -> None:
    """Raise unless every J stencil node of every tube node is on the lattice.

    Flattened keys of off-lattice nodes would wrap onto other nodes.
    """
    bounds = np.asarray(shape) - 1
    outside = np.any((index < BAND_CELLS) | (index > bounds - BAND_CELLS),
                     axis=1)
    if np.any(outside):
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

    axis: str
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
        ta = (float(y0_pt[p0]) - float(tube.origin[p0])) / h
        tb = (float(y0_pt[p1]) - float(tube.origin[p1])) / h
        ia2, ja2 = math.floor(ta), math.floor(tb)
        ia1, ja1 = math.floor(ta + 0.5), math.floor(tb + 0.5)
        out.append(PlaneProblem(
            axis=axis, index=k, z=z, eta=eta,
            y0=(float(y0_pt[p0]), float(y0_pt[p1])),
            off1=GridOffset(alpha=ta - ia1, beta=tb - ja1, anchor=(ia1, ja1)),
            off2=GridOffset(alpha=ta - ia2, beta=tb - ja2, anchor=(ia2, ja2))))
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


def _kernel_rows(kinds: tuple[str, ...], xstar, nstar,
                 tube: TubeGrid) -> list[np.ndarray]:
    """Each kind's (N,) kernel values on the tube, formed CHUNK rows at a time.

    The temporaries of `kernel_values` span one chunk, so beyond the tube
    this holds 8 bytes per node per kind plus a bound in CHUNK.
    """
    kv = [np.empty(tube.n_nodes) for _ in kinds]
    for i0 in range(0, tube.n_nodes, CHUNK):
        sl = slice(i0, i0 + CHUNK)
        part = kernel_values(kinds, xstar, nstar, tube.foot[sl], tube.normal[sl])
        for values, row in zip(kv, part):
            values[sl] = row
    return kv


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

    ``kind`` is one kernel name, or a tuple of names: then the result is a
    tuple with one entry per name, and the kernel values, the frame, the
    planes, their row lookups and expansions are formed once for all of
    them.  Each name's value is bit-identical to its single-name call.

    ``tube`` and ``probe`` may be precomputed and shared across kernels and
    targets; they must match (surface, h, eps) and xstar respectively.
    With ``return_details`` the result is a dict of the total and its parts:
    the uncorrected lattice sum ``product``, the ``excluded`` 4-node cells,
    the corrections ``q2``, ``q1`` and ``remainder``, and the ``planes``.
    h^3 * product is the first-order punctured baseline: the plain lattice
    sum of K*v, with only the exact hits of the singular line left out.
    """
    kinds = (kind,) if isinstance(kind, str) else tuple(kind)
    table0, table1 = _check_tables(tables)
    if tube is None:
        tube = build_tube(surface, h, eps, rho=rho)
    _check_tube(tube, h, eps)
    if probe is None:
        probe = _default_probe(surface, xstar, h)

    kv = _kernel_rows(kinds, probe.xstar, probe.n, tube)
    parts = [{"product": float(values @ tube.v), "excluded": 0.0, "q2": 0.0,
              "q1": 0.0, "remainder": 0.0} for values in kv]

    axis = dominant_direction(probe.n)
    frame = build_frame(probe, axis)
    model = CubicSurfaceModel.from_probe(probe)
    planes = plane_problems(probe, axis, tube)
    perm = AXIS_PERMUTATION[axis]
    p0, p1, pw = perm
    stencil4 = stencil_for_order(2)
    offsets4 = np.asarray(stencil4.offsets, dtype=np.int64)
    corner_of = {tuple(o): i for i, o in enumerate(stencil4.offsets)}

    for plane in planes:
        try:
            expansion = expansion_at_plane(frame, model, plane.eta)
        except CurvatureLimitError as e:
            raise CurvatureLimitError(
                f"plane {plane.index} (eta={plane.eta:.6g}): {e}") from e

        ia2, ja2 = plane.off2.anchor
        triples = np.empty((4, 3), dtype=np.int64)
        triples[:, p0] = ia2 + offsets4[:, 0]
        triples[:, p1] = ja2 + offsets4[:, 1]
        triples[:, pw] = plane.index
        rows, found = tube.rows_for(triples)
        v4 = np.where(found, tube.v[rows], 0.0)

        ia1, ja1 = plane.off1.anchor
        j1 = corner_of[(ia1 - ia2, ja1 - ja2)]
        dx = tube.origin[p0] + triples[:, p0] * tube.h - plane.y0[0]
        dy = tube.origin[p1] + triples[:, p1] * tube.h - plane.y0[1]
        keep = found.copy()
        keep[j1] = False

        # k=0 weights and cell values of each distinct s0 (DL and DLC share)
        s0_parts = {}
        for name, values, part in zip(kinds, kv, parts):
            s0_kind = S0_KIND[name]
            if s0_kind not in s0_parts:
                term0 = expansion.s0_term(s0_kind)
                s0_parts[s0_kind] = (
                    interpolate_weights(table0, term0, plane.off2),
                    np.asarray(term0.evaluate(dx, dy), dtype=float))
            w0, s0 = s0_parts[s0_kind]
            w1 = interpolate_weights(table1, expansion.s1_term(name), plane.off1)
            k4 = np.where(found, values[rows], 0.0)
            part["excluded"] += float(k4 @ v4)
            part["q2"] += float(w0 @ v4)
            part["q1"] += float(w1[0]) * float(v4[j1])
            part["remainder"] += float(np.sum((k4 - s0)[keep] * v4[keep]))

    out = []
    for part in parts:
        total = (h ** 3 * (part["product"] - part["excluded"])
                 + h ** 2 * part["q2"] + h ** 3 * part["q1"]
                 + h ** 3 * part["remainder"])
        out.append({"total": total, **part, "planes": planes}
                   if return_details else total)
    return out[0] if isinstance(kind, str) else tuple(out)


# ---------------------------------------------------------------------------
# convergence study driver
# ---------------------------------------------------------------------------

def _study_targets(surface, targets) -> np.ndarray:
    """Normalize targets to surface points: (m, 2) angles or (m, 3) points."""
    arr = np.asarray(targets, dtype=float)
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
    derivatives and J all carry the resolution being measured.  Each
    (level, target) is one `evaluate_V3` call for all kinds, and each
    level's tube is released before the next one is built.

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
        for ti, x in enumerate(pts):
            probe = _default_probe(surface, x, h)
            parts = evaluate_V3(kinds, surface, rho, x, h, eps, tables,
                                tube=tube, probe=probe, return_details=True)
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
