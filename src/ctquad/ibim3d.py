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
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.integrate import quad as _scipy_quad

from .geometry import (
    JACOBIAN_STENCIL,
    displaced_feet,
    projection_jacobian,
    surface_probe,
)
from .kernels3d import (
    AXIS_PERMUTATION,
    KERNEL_KINDS,
    CubicSurfaceModel,
    CurvatureLimitError,
    build_frame,
    expansion_at_plane,
)
from .quad_core import GridOffset, stencil_for_order
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
    "evaluate_punctured3",
    "plane_problems",
]

# kernel values are zeroed (and the node dropped from every rule) when a
# lattice node lands on the singular line closer than this
EXACT_HIT_RADIUS = 1e-13

# the lattice starts this many cells (plus eps) below the surface's bounding
# box and ends as many above it; the J stencil needs at least BAND_CELLS
MARGIN_CELLS = 4
# reach of the J stencil along each axis, in cells: the band around the tube
# that holds every stencil node when the difference step is h
BAND_CELLS = max(abs(s) for s in JACOBIAN_STENCIL)
# lattice nodes per block in the distance scan and the projection passes
CHUNK = 400_000


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
    searches.  All per-node fields are target-independent: the same tube
    serves every target point and kernel at a given spacing.
    """

    h: float
    eps: float
    origin: np.ndarray            # world position of lattice index (0, 0, 0)
    shape: tuple[int, int, int]   # lattice extent per axis
    index: np.ndarray             # (N, 3) int lattice indices
    points: np.ndarray            # (N, 3) node positions
    d: np.ndarray                 # (N,) signed distances
    foot: np.ndarray              # (N, 3) closest surface points P(y)
    normal: np.ndarray            # (N, 3) outward unit normals at the feet
    jacobian: np.ndarray          # (N,) area ratios J
    density: np.ndarray           # (N,) rho at the feet
    v: np.ndarray                 # (N,) rho * delta_eps(d) * J
    key: np.ndarray               # (N,) flattened lattice index, sorted

    @property
    def n_nodes(self) -> int:
        return self.points.shape[0]

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


def _surface_reach(surface) -> float | None:
    reach = getattr(surface, "reach", None)
    return float(reach) if reach is not None else None


def build_tube(surface, h: float, eps: float, *, rho: Callable | None = None,
               origin_shift: Sequence[float] = (0.0, 0.0, 0.0),
               jacobian: str = "fd") -> TubeGrid:
    """Scan an axis-aligned lattice and keep the nodes with |d| <= eps.

    The kept nodes carry everything the quadratures need: signed distance,
    projection, normal, area ratio J, surface density rho(P), and the
    assembled smooth factor v = rho * delta_eps(d) * J.

    jacobian="fd" (default) differentiates the projection map with 4th-order
    centered differences (nodes +-1, +-2 steps along each axis) and sums the
    2x2 principal minors.  The step is the grid spacing h, capped at
    0.45 * (reach - eps) so the difference points stay clear of the
    surface's medial axis.  The feet it differences come one of two ways:

    * step == h: the difference points are lattice nodes.  The scan keeps
      the band |d| <= eps + 2h (a hair more, against rounding), which holds
      every stencil node of every tube node because d is 1-Lipschitz; each
      band node is projected once, and the stencil feet are gathered from
      the band through a dense lattice-to-row map.  A stencil node missing
      from the band raises ValueError naming the tube node and h.
    * step < h (the cap binds, only on coarse grids): the 12 displaced
      points of every tube node are projected (geometry.displaced_feet).

    jacobian="analytic" uses the surface's own level_jacobian (exact
    curvature transfer) and is intended for debugging.

    The lattice starts MARGIN_CELLS cells (plus eps) below the surface's
    bounding box, displaced by origin_shift (in units of h) so grid/surface
    alignment is configurable.
    """
    if h <= 0:
        raise ValueError(f"grid spacing must be positive, got {h}")
    if eps <= 0:
        raise ValueError(f"tube half-width must be positive, got {eps}")
    reach = _surface_reach(surface)
    if reach is not None and eps >= reach:
        raise ValueError(f"tube half-width eps={eps} must be below the "
                         f"surface reach {reach}")
    if jacobian not in ("fd", "analytic"):
        raise ValueError(f"jacobian must be 'fd' or 'analytic', got {jacobian!r}")
    if jacobian == "analytic" and not hasattr(surface, "level_jacobian"):
        raise ValueError("surface does not provide level_jacobian; "
                         "use jacobian='fd'")
    step = None
    if jacobian == "fd":
        step = h if reach is None else min(h, 0.45 * (reach - eps))
    from_lattice = step == h
    # a hair past eps + 2h, so that rounding in d cannot drop a stencil node
    width = eps + (BAND_CELLS + 1e-6) * h if from_lattice else eps

    lo, hi = surface.bounding_box
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    pad = eps + MARGIN_CELLS * h
    origin = lo - pad + np.asarray(origin_shift, dtype=float) * h
    counts = np.ceil((hi + pad - origin) / h).astype(int) + 1
    if np.any(counts <= 0):
        raise ValueError("lattice origin lies beyond the padded bounding box")
    nx, ny, nz = (int(c) for c in counts)

    ys = origin[1] + h * np.arange(ny)
    zs = origin[2] + h * np.arange(nz)
    block = max(1, int(CHUNK // max(ny * nz, 1)))

    idx_parts, pts_parts, d_parts = [], [], []
    for i0 in range(0, nx, block):
        ixs = np.arange(i0, min(i0 + block, nx))
        xs = origin[0] + h * ixs
        pts = np.stack(np.meshgrid(xs, ys, zs, indexing="ij"), axis=-1)
        pts = pts.reshape(-1, 3)
        d = np.asarray(surface.distance(pts), dtype=float)
        keep = np.abs(d) <= width
        if not np.any(keep):
            continue
        flat = np.nonzero(keep)[0]
        iz = flat % nz
        iy = (flat // nz) % ny
        ix = ixs[flat // (ny * nz)]
        idx_parts.append(np.stack([ix, iy, iz], axis=1).astype(np.int64))
        pts_parts.append(pts[keep])
        d_parts.append(d[keep])

    band_d = np.concatenate(d_parts) if d_parts else np.empty(0)
    inner = np.abs(band_d) <= eps
    if not np.any(inner):
        raise ValueError("tube is empty: the lattice does not meet {|d| <= eps}")
    band_index = np.concatenate(idx_parts)
    band_key = (band_index[:, 0] * ny + band_index[:, 1]) * nz + band_index[:, 2]
    band_points = np.concatenate(pts_parts)
    band_foot = np.empty_like(band_points)
    for i0 in range(0, band_points.shape[0], CHUNK):
        sl = slice(i0, i0 + CHUNK)
        band_foot[sl] = surface.project(band_points[sl])
    index, key, points, d = (band_index[inner], band_key[inner],
                             band_points[inner], band_d[inner])
    foot = band_foot[inner]
    n = points.shape[0]
    normal = np.empty_like(points)
    jac = np.empty(n)
    if from_lattice:
        # band row of every lattice node, -1 off the band
        row_of = np.full(nx * ny * nz, -1, dtype=np.int32)
        row_of[band_key] = np.arange(band_key.size, dtype=np.int32)
        _check_stencil_inside(index, (nx, ny, nz), h)
        strides = np.array([ny * nz, nz, 1])
        shifts = strides[:, None] * np.array(JACOBIAN_STENCIL)  # (axis, node)
    for i0 in range(0, n, CHUNK):
        sl = slice(i0, i0 + CHUNK)
        normal[sl] = surface.normal(points[sl])
        if jacobian == "analytic":
            jac[sl] = surface.level_jacobian(points[sl])
        elif from_lattice:
            rows = row_of[key[sl, None, None] + shifts]
            if np.any(rows < 0):
                _raise_missing_neighbour(index[sl], rows, h)
            jac[sl] = projection_jacobian(band_foot[rows], h)
        else:
            jac[sl] = projection_jacobian(
                displaced_feet(surface.project, points[sl], step), step)
    if not np.all(jac > 0.0):
        bad = int(np.argmin(jac))
        raise ValueError(f"non-positive area ratio J={jac[bad]:.3e} at node "
                         f"{points[bad]}; tube width exceeds the usable reach")

    density = np.ones(n) if rho is None else np.asarray(rho(foot), dtype=float)
    if density.shape != (n,):
        raise ValueError(f"rho must map (N,3) surface points to (N,) values; "
                         f"got shape {density.shape}")
    v = density * delta_eps(d, eps) * jac

    if np.any(np.diff(key) <= 0):
        raise AssertionError("tube nodes are not in lexicographic order")
    return TubeGrid(h=h, eps=eps, origin=origin, shape=(nx, ny, nz),
                    index=index, points=points, d=d, foot=foot, normal=normal,
                    jacobian=jac, density=density, v=v, key=key)


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
# kernel values on the tube
# ---------------------------------------------------------------------------

def _kernel_values(kind: str, xstar: np.ndarray, nstar: np.ndarray,
                   foot: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """K(x*, P(y)) for every node, with exact hits zeroed (handled separately)."""
    if kind not in KERNEL_KINDS:
        raise ValueError(f"kind must be one of {KERNEL_KINDS}, got {kind!r}")
    diff = foot - xstar
    r = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "SL":
            val = 1.0 / (4.0 * np.pi * r)
        elif kind == "DL":
            val = -np.einsum("ij,ij->i", diff, normal) / (4.0 * np.pi * r ** 3)
        else:  # DLC
            val = diff @ nstar / (4.0 * np.pi * r ** 3)
    return np.where(r < EXACT_HIT_RADIUS, 0.0, val)


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
    """Accept {0: table, 1: table} or (table_k0, table_k1); validate orders."""
    if isinstance(tables, Mapping):
        try:
            t0, t1 = tables[0], tables[1]
        except KeyError as e:
            raise ValueError("tables mapping must provide entries for k=0 "
                             "and k=1") from e
    else:
        t0, t1 = tables
    if not (t0.k == 0 and t0.p == 2):
        raise ValueError(f"first table must be the (k=0, p=2) rule, got "
                         f"k={t0.k}, p={t0.p}")
    if not (t1.k == 1 and t1.p == 1):
        raise ValueError(f"second table must be the (k=1, p=1) rule, got "
                         f"k={t1.k}, p={t1.p}")
    return t0, t1


def _default_probe(surface, xstar, h: float, probe_source: str):
    reach = _surface_reach(surface)
    probe_distance = 0.5 * reach if reach is not None else None
    return surface_probe(surface, xstar, h=h, source=probe_source,
                         probe_distance=probe_distance)


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------

def evaluate_V3(kind: str, surface, rho: Callable | None, xstar, h: float,
                eps: float, tables, *, tube: TubeGrid | None = None,
                probe=None, probe_source: str = "fd", jacobian: str = "fd",
                origin_shift: Sequence[float] = (0.0, 0.0, 0.0),
                corrections: bool = True, return_details: bool = False):
    """Third-order plane-by-plane corrected value of I_eps[rho](x*).

    The full lattice sum of K*v runs once over the tube; each plane within
    |eta| < eps of the surface along the dominant normal direction then
    swaps its 4-node singular cell for the corrected rules: the k=0 order-2
    correction of s0*v at the cell offset, the k=1 order-1 correction of
    s1*v at the nearest node, and the (K - s0)*v re-addition on the cell
    minus that node.  Planes beyond the band keep the plain sum (the
    integrand's compact support vanishes around their singular point).

    ``tube`` and ``probe`` may be precomputed and shared across kernels and
    targets; they must match (surface, h, eps) and xstar respectively.
    """
    table0, table1 = _check_tables(tables)
    if tube is None:
        tube = build_tube(surface, h, eps, rho=rho, origin_shift=origin_shift,
                          jacobian=jacobian)
    if not (math.isclose(tube.h, h, rel_tol=1e-12)
            and math.isclose(tube.eps, eps, rel_tol=1e-12)):
        raise ValueError(f"tube grid was built for (h={tube.h}, eps={tube.eps}), "
                         f"not (h={h}, eps={eps})")
    if probe is None:
        probe = _default_probe(surface, xstar, h, probe_source)

    xs = probe.xstar
    kv = _kernel_values(kind, xs, probe.n, tube.foot, tube.normal)
    product = float(kv @ tube.v)

    if not corrections:
        total = h ** 3 * product
        if return_details:
            return {"total": total, "product": product, "excluded": 0.0,
                    "q2": 0.0, "q1": 0.0, "remainder": 0.0, "planes": []}
        return total

    axis = dominant_direction(probe.n)
    frame = build_frame(probe, axis)
    model = CubicSurfaceModel.from_probe(probe)
    planes = plane_problems(probe, axis, tube)
    perm = AXIS_PERMUTATION[axis]
    p0, p1, pw = perm
    stencil4 = stencil_for_order(2)
    offsets4 = np.asarray(stencil4.offsets, dtype=np.int64)
    corner_of = {tuple(o): i for i, o in enumerate(stencil4.offsets)}

    excluded = 0.0
    q2 = 0.0
    q1 = 0.0
    remainder = 0.0
    for plane in planes:
        try:
            expansion = expansion_at_plane(frame, model, plane.eta)
        except CurvatureLimitError as e:
            raise CurvatureLimitError(
                f"plane {plane.index} (eta={plane.eta:.6g}): {e}") from e
        term0 = expansion.s0_term(kind)
        term1 = expansion.s1_term(kind)
        w0 = interpolate_weights(table0, term0, plane.off2)
        w1 = interpolate_weights(table1, term1, plane.off1)

        ia2, ja2 = plane.off2.anchor
        triples = np.empty((4, 3), dtype=np.int64)
        triples[:, p0] = ia2 + offsets4[:, 0]
        triples[:, p1] = ja2 + offsets4[:, 1]
        triples[:, pw] = plane.index
        rows, found = tube.rows_for(triples)
        v4 = np.where(found, tube.v[rows], 0.0)
        k4 = np.where(found, kv[rows], 0.0)

        excluded += float(k4 @ v4)
        q2 += float(w0 @ v4)

        ia1, ja1 = plane.off1.anchor
        j1 = corner_of[(ia1 - ia2, ja1 - ja2)]
        q1 += float(w1[0]) * float(v4[j1])

        dx = tube.origin[p0] + triples[:, p0] * tube.h - plane.y0[0]
        dy = tube.origin[p1] + triples[:, p1] * tube.h - plane.y0[1]
        s0 = np.asarray(term0.evaluate(dx, dy), dtype=float)
        keep = found.copy()
        keep[j1] = False
        remainder += float(np.sum((k4 - s0)[keep] * v4[keep]))

    total = (h ** 3 * (product - excluded) + h ** 2 * q2 + h ** 3 * q1
             + h ** 3 * remainder)
    if return_details:
        return {"total": total, "product": product, "excluded": excluded,
                "q2": q2, "q1": q1, "remainder": remainder, "planes": planes}
    return total


def evaluate_punctured3(kind: str, surface, rho: Callable | None, xstar,
                        h: float, eps: float, *, tube: TubeGrid | None = None,
                        jacobian: str = "fd",
                        origin_shift: Sequence[float] = (0.0, 0.0, 0.0),
                        axis: str | None = None) -> float:
    """Uncorrected baseline: the plain punctured lattice sum h^3 sum K*v.

    Nodes on the singular line itself (closer than the exact-hit radius) are
    skipped; nothing else is corrected, so the error decays at first order.
    With ``axis`` given, the sum is grouped into lattice planes along that
    axis and accumulated plane by plane, which is the decomposition the
    corrected rule refines; the total is the same up to roundoff.
    """
    if tube is None:
        tube = build_tube(surface, h, eps, rho=rho, origin_shift=origin_shift,
                          jacobian=jacobian)
    xs = np.asarray(surface.project(np.asarray(xstar, dtype=float)), dtype=float)
    nstar = np.asarray(surface.normal(xs), dtype=float)
    kv = _kernel_values(kind, xs, nstar, tube.foot, tube.normal)
    if axis is None:
        return h ** 3 * float(kv @ tube.v)
    try:
        ax = "xyz".index(axis)
    except ValueError:
        raise ValueError(f"axis must be 'x', 'y' or 'z', got {axis!r}")
    per_plane = np.bincount(tube.index[:, ax], weights=kv * tube.v,
                            minlength=tube.shape[ax])
    return h ** 3 * float(np.sum(per_plane))


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
                         rho: Callable | None = None, probe_source: str = "fd",
                         jacobian: str = "fd",
                         origin_shift: Sequence[float] = (0.0, 0.0, 0.0),
                         reference_h: float | None = None,
                         include_baseline: bool = False,
                         progress: Callable | None = None) -> dict:
    """Self-convergence study of the corrected rule over grid spacings.

    Evaluates every (kernel, target) pair at each spacing plus a reference
    spacing (half the finest by default), reports E(h) = |V(h) - V(h_ref)|
    and the observed orders log(E_i/E_{i+1}) / log(h_i/h_{i+1}).  The tube
    and the per-target probes are rebuilt per level from the grid alone, so
    frames, curvatures, third derivatives and J all carry the resolution
    being measured.

    Returns a dict with the raw values, per-row records ready for tabulation,
    and the mean observed order per kernel (baseline rows, when requested,
    are keyed "<kind>:baseline" and excluded from the means).
    """
    hs = [float(h) for h in levels]
    if len(hs) < 2 or any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("levels must be a strictly decreasing list of at "
                         "least two spacings")
    h_ref = float(reference_h) if reference_h is not None else hs[-1] / 2.0
    if h_ref >= hs[-1]:
        raise ValueError("reference spacing must be finer than every level")
    pts = _study_targets(surface, targets)
    for kind in kinds:
        if kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {kind!r}")

    all_h = hs + [h_ref]
    values: dict[tuple[str, int, float], float] = {}
    for h in all_h:
        tube = build_tube(surface, h, eps, rho=rho, origin_shift=origin_shift,
                          jacobian=jacobian)
        if progress is not None:
            progress(f"h={h:.6g}: tube has {tube.n_nodes} nodes")
        for ti, x in enumerate(pts):
            probe = _default_probe(surface, x, h, probe_source)
            for kind in kinds:
                values[(kind, ti, h)] = evaluate_V3(
                    kind, surface, rho, x, h, eps, tables,
                    tube=tube, probe=probe)
                if include_baseline:
                    values[(f"{kind}:baseline", ti, h)] = evaluate_punctured3(
                        kind, surface, rho, x, h, eps, tube=tube)

    def order_rows(label: str, kind_key: str, ti: int) -> list[dict]:
        errs = [abs(values[(kind_key, ti, h)] - values[(kind_key, ti, h_ref)])
                for h in hs]
        rows = []
        for i, h in enumerate(hs):
            order = None
            if i + 1 < len(hs) and errs[i] > 0 and errs[i + 1] > 0:
                order = math.log(errs[i] / errs[i + 1]) / math.log(hs[i] / hs[i + 1])
            rows.append({"kind": label, "target": ti, "h": h,
                         "value": values[(kind_key, ti, h)],
                         "error": errs[i], "order": order})
        return rows

    rows: list[dict] = []
    mean_orders: dict[str, float] = {}
    for kind in kinds:
        kind_orders = []
        for ti in range(len(pts)):
            rws = order_rows(kind, kind, ti)
            rows.extend(rws)
            kind_orders.extend(r["order"] for r in rws if r["order"] is not None)
        mean_orders[kind] = float(np.mean(kind_orders)) if kind_orders else math.nan
    if include_baseline:
        for kind in kinds:
            for ti in range(len(pts)):
                rows.extend(order_rows(f"{kind}:baseline", f"{kind}:baseline", ti))

    return {"levels": hs, "reference_h": h_ref, "eps": eps,
            "targets": pts, "values": values, "rows": rows,
            "mean_orders": mean_orders}
