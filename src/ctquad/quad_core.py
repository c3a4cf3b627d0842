"""Trapezoidal rules on uniform 2D grids, with corrections for point singularities.

Everything here integrates functions of the form s(x - x0) * v(x), where v is
smooth and s blows up (or merely loses smoothness) at a single point x0.  The
plain trapezoidal rule drops to low order on such integrands.  The corrected
rules repair the accuracy order by order: they puncture the sum at a few nodes
near x0 and add back weighted values of v at those nodes.  The rules take
their weights as arguments; the `weights` module computes them.

Conventions used throughout:

* a grid node is ``origin + h * (i, j)`` for integer indices ``(i, j)``;
* the singular factor of homogeneity k is ``s_k(x) = |x|**(k-1) * phi(theta)``
  with phi a smooth 2*pi-periodic function;
* the offset of x0 inside the grid is ``(alpha, beta) = (x0 - anchor)/h`` where
  the anchor is the nearest node (single-node corrections) or the lower-left
  cell corner (larger stencils).
"""
from __future__ import annotations

import dataclasses
import math
import os
from types import MappingProxyType
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Grid2",
    "BatchRowError",
    "SingularTerm",
    "SingularFunction",
    "GridOffset",
    "Stencil",
    "STENCIL_OFFSETS",
    "correction_monomials",
    "stencil_for_order",
    "punctured_trapezoidal",
    "grid_values",
    "row_blocks",
    "block_nodes",
    "locate_singularity",
    "corrected_Qp",
    "composite_Up",
    "grid_with_offset",
    "pair_orders",
]


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Grid2:
    """Uniform axis-aligned grid: nodes at origin + h*(i, j).

    ``extent`` holds inclusive index ranges ((i_lo, i_hi), (j_lo, j_hi)); the
    grid owns every node with i_lo <= i <= i_hi, j_lo <= j <= j_hi.
    """

    h: float
    origin: tuple[float, float]
    extent: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self) -> None:
        if not (self.h > 0.0):
            raise ValueError(f"grid spacing must be positive, got h={self.h}")
        (i0, i1), (j0, j1) = self.extent
        if i1 < i0 or j1 < j0:
            raise ValueError(f"empty grid extent {self.extent}")

    @property
    def shape(self) -> tuple[int, int]:
        (i0, i1), (j0, j1) = self.extent
        return (i1 - i0 + 1, j1 - j0 + 1)

    def axis_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Physical node coordinates along each axis."""
        (i0, i1), (j0, j1) = self.extent
        xs = self.origin[0] + self.h * np.arange(i0, i1 + 1)
        ys = self.origin[1] + self.h * np.arange(j0, j1 + 1)
        return xs, ys

    def node_xy(self, i: int, j: int) -> tuple[float, float]:
        return (self.origin[0] + self.h * i, self.origin[1] + self.h * j)

    def contains_index(self, i: int, j: int) -> bool:
        (i0, i1), (j0, j1) = self.extent
        return i0 <= i <= i1 and j0 <= j <= j1


# RESOLUTION * norm is the one bar between a mode of phi and rounding: it
# sits above the FFT rounding floor (about 1e-14 at 256 samples).
# from_callable samples phi at 256, 512, ... angles until no coefficient
# above mode n/4 exceeds it, and a term's mode map keeps the coefficients
# above it
MIN_SAMPLES, MAX_SAMPLES, RESOLUTION = 256, 2 ** 16, 1e-13


def _spectrum(samples: np.ndarray):
    """Coefficients a[..., j] of cos(j*theta) and b[..., j] of sin(j*theta)
    from n uniform samples of phi on [0, 2*pi) along the last axis, their
    largest magnitude norm, and -1 where the samples resolve phi, else the
    mode above n/4 with the largest coefficient.

    Each row of (P, n) samples is transformed by one rfft over the array,
    with the bits of its own transform.
    """
    n = samples.shape[-1]
    if n < 4 or (n & (n - 1)) != 0:
        raise ValueError(f"phi sample count must be a power of two >= 4, got {n}")
    c = np.fft.rfft(samples) / n
    a = 2.0 * c.real
    a[..., [0, -1]] = c[..., [0, -1]].real
    b = -2.0 * c.imag
    b[..., [0, -1]] = 0.0
    norm = np.maximum(np.maximum(np.max(np.abs(a), axis=-1),
                                 np.max(np.abs(b), axis=-1)), 1e-300)
    top = np.maximum(np.abs(a), np.abs(b))
    j = n // 4 + 1 + np.argmax(top[..., n // 4 + 1:], axis=-1)
    big = np.take_along_axis(top, j[..., None], -1)[..., 0] > RESOLUTION * norm
    return a, b, norm, np.where(big, j, -1)


def _check_k(k) -> None:
    if k < 0 or k != int(k):
        raise ValueError(f"homogeneity index k must be a nonnegative integer, got {k}")


class BatchRowError(ValueError):
    """An error in one row of a batch, which ``row`` names and the message
    leads with (None outside a batch): samples of phi that are not finite or
    do not resolve it (see `_spectrum`), or a plane at the curvature limit."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row


def _check_finite(samples: np.ndarray, rows=None) -> None:
    """Raise naming the first sample that is not finite; in (P, n) samples
    of a batch, by its batch row ``rows[i]``, which the error carries."""
    if not np.all(np.isfinite(samples)):
        *i, s = np.argwhere(~np.isfinite(samples))[0]
        raise BatchRowError(f"phi sample {s} of {samples.shape[-1]} is "
                            f"{samples[(*i, s)]}, not finite",
                            row=None if rows is None else int(rows[i[0]]))


def _unresolved_message(n: int, a, b, norm: float, j: int) -> str:
    return (f"{n} samples do not resolve phi: mode {j} has coefficient "
            f"{max(abs(a[j]), abs(b[j])):.3e} > {RESOLUTION:g} x norm {norm:.3e}")


class SingularTerm:
    """One term s_k(x) = |x|**(k-1) * phi(x/|x|) of a singular-function expansion.

    A term is its mode map ``coefficients``, {("c"|"s", m): coefficient}:
    ("c", 0), then ("c", m) and ("s", m) for ascending m, each a Fourier
    coefficient of n uniform samples of phi on [0, 2*pi) above RESOLUTION
    times the largest; n is a power of two (>= 4) that resolves phi (see
    `_spectrum`).  Every consumer of phi reads the map: `phi` sums it, and
    the weights' moment right-hand sides, dual solves and table lookups sum
    over it in that order.
    """

    def __init__(self, k: int, samples: np.ndarray):
        samples = np.asarray(samples, dtype=float)
        _check_k(k)
        _check_finite(samples)
        a, b, norm, j = _spectrum(samples)
        if j >= 0:
            raise BatchRowError(_unresolved_message(samples.size, a, b, norm, j))
        self._set_modes(k, a, b, norm)

    def _set_modes(self, k: int, a: np.ndarray, b: np.ndarray, norm) -> None:
        """Keep the coefficients above RESOLUTION * norm as the mode map."""
        self.k = int(k)
        # a[j] multiplies cos(j*theta) (a[0] is the mean), b[j] sin(j*theta)
        big_a = np.abs(a) > RESOLUTION * norm
        big_b = np.abs(b) > RESOLUTION * norm
        coefficients = {("c", 0): float(a[0])}
        for m in (np.flatnonzero(big_a[1:] | big_b[1:]) + 1).tolist():
            if big_a[m]:
                coefficients[("c", m)] = float(a[m])
            if big_b[m]:
                coefficients[("s", m)] = float(b[m])
        self.coefficients = MappingProxyType(coefficients)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_callable(cls, k: int, phi: Callable[..., np.ndarray]):
        """Sample phi at 256, 512, ... angles until resolved; raise past MAX_SAMPLES.

        ``phi(theta)`` maps n angles to n samples of one function, giving one
        term, or to (P, n) samples of a batch of P functions, giving a list
        of P terms.  One function is a one-row batch: every sample set, of
        one row or of P, is transformed once by one rfft (`_spectrum`), and
        each row is judged alone.  The rows it finds unresolved are sampled
        again at twice as many angles, a batch's by ``phi(theta, rows)``
        with the indices of those rows alone.  A row with a sample that is
        not finite, in any sample set, or still unresolved at MAX_SAMPLES
        raises, naming its index in a batch (``BatchRowError.row``).
        """
        _check_k(k)
        n = MIN_SAMPLES
        samples = np.asarray(phi(2.0 * np.pi * np.arange(n) / n), dtype=float)
        batch = samples.ndim == 2
        terms = [None] * (samples.shape[0] if batch else 1)
        rows = np.arange(len(terms))
        while True:
            _check_finite(samples, rows if batch else None)
            a, b, norm, j = (np.reshape(x, (rows.size, -1))
                             for x in _spectrum(samples))
            for i, row in enumerate(rows.tolist()):
                if j[i, 0] < 0:
                    terms[row] = term = cls.__new__(cls)
                    term._set_modes(k, a[i], b[i], norm[i, 0])
            open_ = np.flatnonzero(j[:, 0] >= 0)
            if open_.size == 0:
                return terms if batch else terms[0]
            if n == MAX_SAMPLES:
                i = int(open_[0])
                raise BatchRowError(
                    _unresolved_message(n, a[i], b[i], norm[i, 0], j[i, 0]),
                    row=int(rows[i]) if batch else None)
            n *= 2
            rows = rows[open_]
            theta = 2.0 * np.pi * np.arange(n) / n
            samples = np.asarray(phi(theta, rows) if batch else phi(theta),
                                 dtype=float)

    @classmethod
    def from_coefficients(cls, k: int, a0: float,
                          a: Sequence[float] = (),
                          b: Sequence[float] = ()) -> "SingularTerm":
        """Build from explicit cos/sin coefficients (a[j-1] multiplies cos(j t))."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        nmode = max(len(a), len(b))
        n = 4
        while n < 4 * (nmode + 1):
            n *= 2
        theta = 2.0 * np.pi * np.arange(n) / n
        vals = np.full(n, float(a0))
        for j in range(1, nmode + 1):
            if j <= len(a) and a[j - 1] != 0.0:
                vals += a[j - 1] * np.cos(j * theta)
            if j <= len(b) and b[j - 1] != 0.0:
                vals += b[j - 1] * np.sin(j * theta)
        return cls(k, vals)

    # -- evaluation --------------------------------------------------------

    def phi(self, theta: np.ndarray) -> np.ndarray:
        """Evaluate phi by summing the modes of ``coefficients``.

        Uses the cos/sin Chebyshev-style recurrence up to the map's top mode,
        so the cost is one pair of multiply-adds per mode up to that one,
        independent of how theta was produced.
        """
        theta = np.asarray(theta, dtype=float)
        out = np.full(theta.shape, self.coefficients[("c", 0)])
        jmax = next(reversed(self.coefficients))[1]
        if jmax == 0:
            return out
        c1 = np.cos(theta)
        s1 = np.sin(theta)
        cj, sj = c1, s1
        for j in range(1, jmax + 1):
            if j > 1:
                cj, sj = c1 * cj - s1 * sj, s1 * cj + c1 * sj
            if ("c", j) in self.coefficients:
                out += self.coefficients[("c", j)] * cj
            if ("s", j) in self.coefficients:
                out += self.coefficients[("s", j)] * sj
        return out

    def evaluate(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """s_k at displacement (dx, dy) from the singular point."""
        dx = np.asarray(dx, dtype=float)
        dy = np.asarray(dy, dtype=float)
        r = np.hypot(dx, dy)
        theta = np.arctan2(dy, dx)
        with np.errstate(divide="ignore", invalid="ignore"):
            rad = r ** (self.k - 1)
        return rad * self.phi(theta)

    def __repr__(self) -> str:  # pragma: no cover
        top = next(reversed(self.coefficients))[1]
        return f"SingularTerm(k={self.k}, top_mode={top})"


@dataclasses.dataclass
class SingularFunction:
    """A singularity s(x) = s_0(x) + s_1(x) + ... plus the full callable.

    ``full(dx, dy)`` must be valid away from the origin.  The q-th remainder
    is full minus the first q+1 terms; it vanishes like |x|**q at the origin.
    """

    terms: list[SingularTerm]
    full: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        for idx, t in enumerate(self.terms):
            if t.k != idx:
                raise ValueError(f"terms must be ordered with k = 0,1,...; "
                                 f"slot {idx} holds k={t.k}")

    def partial(self, q: int, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """Sum of the terms s_0..s_q."""
        out = np.zeros(np.broadcast(dx, dy).shape)
        for t in self.terms[: q + 1]:
            out = out + t.evaluate(dx, dy)
        return out

    def remainder(self, q: int, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """full - (s_0 + ... + s_q); bounded by C*|x|**q near the origin."""
        if q + 1 > len(self.terms):
            raise ValueError(f"need terms through k={q} for the order-{q} remainder, "
                             f"have {len(self.terms)}")
        return np.asarray(self.full(dx, dy)) - self.partial(q, dx, dy)


@dataclasses.dataclass(frozen=True)
class GridOffset:
    """Dimensionless position of x0 inside its grid cell, plus the anchor node."""

    alpha: float
    beta: float
    anchor: tuple[int, int]


@dataclasses.dataclass(frozen=True)
class Stencil:
    """Correction stencil: p_tilde integer node offsets from the anchor."""

    p: int
    offsets: tuple[tuple[int, int], ...]

    @property
    def p_tilde(self) -> int:
        return len(self.offsets)

    def node_indices(self, anchor: tuple[int, int]) -> list[tuple[int, int]]:
        return [(anchor[0] + di, anchor[1] + dj) for (di, dj) in self.offsets]


# frozen correction stencils, p_tilde >= p(p+1)/2 nodes each; kept literal
# so tables and tests can rely on the node ordering
STENCIL_OFFSETS: dict[int, tuple[tuple[int, int], ...]] = {
    1: ((0, 0),),
    2: ((0, 0), (1, 0), (1, 1), (0, 1)),
    3: ((0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (1, 2)),
    4: ((0, 0), (1, 0), (1, 1), (0, 1),
        (2, 0), (2, 1), (1, 2), (0, 2), (-1, 1), (-1, 0), (0, -1), (1, -1)),
}


def correction_monomials(p: int) -> list[tuple[int, int]]:
    """Exponent pairs (a, b) of the monomial test functions for order p.

    All monomials of total degree <= p-1 (that is p(p+1)/2 of them), padded up
    to p_tilde with higher-degree ones.  The pad for p=2 is x*y.  For p=4 the
    pad must avoid x**4, y**4 and x**2*y**2: on the 12-node stencil those
    coincide with lower-degree combinations at every node (each node has
    |x-1/2| or |y-1/2| equal to 1/2 or 3/2 in cell-centered coordinates), so
    the test matrix would be exactly singular.  x**3*y and x*y**3 are the only
    degree-4 pair that stays independent.
    """
    if p not in STENCIL_OFFSETS:
        raise ValueError(f"correction order must be 1..4, got {p}")
    monos = [(d - b, b) for d in range(p) for b in range(d + 1)]
    if p == 2:
        monos.append((1, 1))
    elif p == 4:
        monos.extend([(3, 1), (1, 3)])
    return monos


def stencil_for_order(p: int) -> Stencil:
    """The frozen order-p correction stencil."""
    if p not in STENCIL_OFFSETS:
        raise ValueError(f"correction order must be 1..4, got {p}")
    return Stencil(p, STENCIL_OFFSETS[p])


# --------------------------------------------------------------------------
# punctured sums
# --------------------------------------------------------------------------

def _kahan_rows(row_sums: np.ndarray) -> float:
    """Compensated sum of per-row partial sums (fixed, documented order).

    Rows are first reduced with np.sum (pairwise), then combined sequentially
    with Kahan compensation in increasing row index.  The reduction tree is
    therefore fixed by the grid shape alone, which keeps results deterministic
    and reproducible across runs.
    """
    total = 0.0
    comp = 0.0
    for v in row_sums:
        y = float(v) - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def punctured_trapezoidal(values: np.ndarray, grid: Grid2,
                          skip_indices: Sequence[tuple[int, int]]) -> float:
    """Trapezoidal rule h^2 * sum values with the listed nodes left out.

    ``values`` holds the node values, shaped like grid.shape (see
    `grid_values`).  The excluded entries are never read, so they may hold
    anything, inf at a singular node too; with none excluded this is the
    plain rule.  The corrected rules pass ``stencil.node_indices(offset.anchor)``.
    A non-finite kept value raises, naming the first such node in row-major
    order.
    """
    (i0, _), (j0, _) = grid.extent
    values = np.ascontiguousarray(values, dtype=float)
    if values.shape != grid.shape:
        raise ValueError(f"value array shape {values.shape} does not match "
                         f"grid {grid.shape}")
    for idx in skip_indices:
        if not grid.contains_index(*idx):
            raise ValueError(f"excluded node {idx} lies outside the grid extent")
    rows, cols = (np.array(skip_indices, dtype=int).reshape(-1, 2) - (i0, j0)).T
    finite = np.isfinite(values)
    finite[rows, cols] = True    # excluded entries are not read
    if not finite.all():
        row, col = divmod(int(np.argmin(finite)), values.shape[1])
        i, j = row + i0, col + j0
        raise ValueError(f"non-finite integrand value at grid node (i={i}, j={j}), "
                         f"x={grid.node_xy(i, j)}")
    # each row reduced on its own, pairwise as np.sum of that row alone; a
    # row holding excluded nodes over its kept entries only
    row_sums = np.sum(values, axis=1)
    for row in np.unique(rows):
        keep = np.ones(values.shape[1], dtype=bool)
        keep[cols[rows == row]] = False
        row_sums[row] = np.sum(values[row][keep])
    return grid.h * grid.h * _kahan_rows(row_sums)


# grid_values hands f blocks of whole rows of at most this many nodes (one
# row at least), so temporaries stay bounded however fine the grid
BLOCK_NODES = 16384


def row_blocks(grid: Grid2) -> list[slice]:
    """The grid's rows cut into blocks of at most BLOCK_NODES nodes, in order."""
    nx, ny = grid.shape
    rows = max(1, BLOCK_NODES // ny)
    return [slice(r, min(r + rows, nx)) for r in range(0, nx, rows)]


def block_nodes(grid: Grid2, rows: slice) -> tuple[np.ndarray, np.ndarray]:
    """x and y of every node in a block of rows, each shaped (rows, ny)."""
    xs, ys = grid.axis_nodes()
    return tuple(np.meshgrid(xs[rows], ys, indexing="ij"))


def grid_values(f, grid: Grid2) -> np.ndarray:
    """f(x, y) at every node of the grid, as an array shaped like grid.shape.

    f is called on the `row_blocks` of the grid, with (rows, ny) coordinate
    arrays, from the threads of `_pooled`: it must be elementwise (a node's
    value may not depend on the block it came in) and thread-safe.  Every
    node is evaluated, a singular one too.  The result is bit-identical at
    any worker count.
    """
    out = np.empty(grid.shape)

    def fill(rows):
        out[rows] = f(*block_nodes(grid, rows))

    _pooled(fill, row_blocks(grid))
    return out


def _pool_size() -> int:
    """Threads of `_pooled`: one per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):    # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pooled(task: Callable, items) -> None:
    """Call ``task(item)`` for every item on a pool of `_pool_size` threads.

    NumPy releases the interpreter lock in the tasks' array work, so they
    overlap.  Each task writes only into disjoint slices of arrays the
    calling thread allocated and returns nothing, so no array a worker
    allocated outlives its task (glibc would keep such memory in the
    worker's own arena).  Results are read in item order: an error reaches
    the caller from the first failing item, as in a serial loop, and the
    items not yet started are cancelled.  The pool is shut down before this
    returns, so no thread outlives the call and a later fork finds none.
    """
    from concurrent.futures import ThreadPoolExecutor  # on first use

    with ThreadPoolExecutor(max_workers=_pool_size()) as pool:
        for _ in pool.map(task, items):
            pass


# --------------------------------------------------------------------------
# locating the singular point
# --------------------------------------------------------------------------

def locate_singularity(x0: Sequence[float], grid: Grid2, p: int) -> tuple[Stencil, GridOffset]:
    """Anchor node, cell offset (alpha, beta) and stencil for a singular point.

    For p=1 the anchor is the nearest node and (alpha, beta) lands in
    [-1/2, 1/2)^2; for p>=2 it is the lower-left corner of the containing
    cell and (alpha, beta) lands in [0, 1)^2.
    """
    stencil = stencil_for_order(p)
    tx = (x0[0] - grid.origin[0]) / grid.h
    ty = (x0[1] - grid.origin[1]) / grid.h
    if p == 1:
        ia, ja = math.floor(tx + 0.5), math.floor(ty + 0.5)
    else:
        ia, ja = math.floor(tx), math.floor(ty)
    off = GridOffset(alpha=tx - ia, beta=ty - ja, anchor=(ia, ja))
    # the stencil must fit inside the grid with one extra node of margin
    (i0, i1), (j0, j1) = grid.extent
    diam = max(max(abs(di), abs(dj)) for di, dj in stencil.offsets) + 1
    if not (i0 + diam <= ia <= i1 - diam and j0 + diam <= ja <= j1 - diam):
        raise ValueError(f"x0={tuple(x0)} is within one stencil diameter of the "
                         f"grid boundary (anchor {(ia, ja)})")
    return stencil, off


# --------------------------------------------------------------------------
# corrected rules
# --------------------------------------------------------------------------

def _node_values(f, grid: Grid2, indices) -> np.ndarray:
    """f at each listed node, called on one node's 0-d coordinates at a time."""
    return np.array([float(f(*map(np.asarray, grid.node_xy(i, j))))
                     for (i, j) in indices])


def _checked_weights(weights, stencil: Stencil) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.size != stencil.p_tilde:
        raise ValueError(f"the order-{stencil.p} stencil expects {stencil.p_tilde} "
                         f"weights, got {w.size}")
    return w


def corrected_Qp(term: SingularTerm, v: Callable, x0: Sequence[float], grid: Grid2,
                 p: int, weights, values) -> float:
    """Order-p corrected trapezoidal rule for s_k(x - x0) * v(x).

    ``values`` holds s_k(x - x0) * v(x) at every node, shaped like
    grid.shape (see `grid_values`); the punctured sum reads it outside the
    stencil, so stencil entries may be non-finite (x0 on a node).  The
    correction adds h**(k+1) * sum_i w_i * v(node_i) over the stencil nodes.
    ``weights`` are the p_tilde weights of this term at this grid's offset of
    x0 (see the `weights` module).
    """
    stencil, offset = locate_singularity(x0, grid, p)
    w = _checked_weights(weights, stencil)
    nodes = stencil.node_indices(offset.anchor)
    t0 = punctured_trapezoidal(values, grid, nodes)
    vx = _node_values(v, grid, nodes)
    return t0 + grid.h ** (term.k + 1) * float(np.dot(w, vx))


def composite_Up(s: SingularFunction, v: Callable, x0: Sequence[float], grid: Grid2,
                 p: int, weights_by_k, values) -> float:
    """Composite corrected rule of order p for s(x - x0) * v(x), 2 <= p <= 5.

    Applies the order-(p-1-k) correction to each expansion term s_k,
    k = 0..p-2, assembled in a single pass:

    * full s*v summed outside the largest stencil (the one for s_0),
    * partial re-additions of s_k*v on the ring between the largest stencil
      and the smaller one that s_k actually uses,
    * all stencil corrections h**(k+1) * sum w_i[s_k] * v,
    * the remainder s - s_0 - ... - s_{p-3} re-added on the largest stencil
      minus the anchor (where only the k=p-2 correction, a bare one-node rule,
      is active).

    ``values`` holds s(x - x0) * v(x) at every node, shaped like grid.shape
    (see `grid_values`); only entries outside the largest stencil are read,
    so stencil entries may be non-finite.  ``weights_by_k[k]`` are the
    weights of s_k's correction at this grid's offset of x0, for k = 0..p-2.
    """
    if not 2 <= p <= 5:
        raise ValueError(f"composite rule supports p = 2..5, got {p}")
    if len(s.terms) < p - 1:
        raise ValueError(f"composite rule of order {p} needs expansion terms "
                         f"s_0..s_{p-2}; have {len(s.terms)}")
    h = grid.h
    # stencil and offset per correction order q = p-1-k
    located = {q: locate_singularity(x0, grid, q) for q in range(1, p)}
    weights = [_checked_weights(weights_by_k[k], located[p - 1 - k][0])
               for k in range(p - 1)]
    big_stencil, big_off = located[p - 1]
    big_nodes = big_stencil.node_indices(big_off.anchor)
    # the largest stencil holds every smaller one, so v is needed only there
    vx = dict(zip(big_nodes, _node_values(v, grid, big_nodes)))

    def times_v(g, nodes) -> np.ndarray:
        """g(x - x0) * v(x) at each of the given nodes."""
        gx = _node_values(lambda x, y: g(x - x0[0], y - x0[1]), grid, nodes)
        return gx * np.array([vx[idx] for idx in nodes])

    total = punctured_trapezoidal(values, grid, big_nodes)

    # per-term corrections + ring re-additions
    for k in range(p - 1):
        stencil, off = located[p - 1 - k]
        nodes = stencil.node_indices(off.anchor)
        if 1 <= k <= p - 3:
            # a left-to-right sum, which keeps the study outputs' bits
            ring = 0.0
            for val in times_v(s.terms[k].evaluate,
                               [idx for idx in big_nodes if idx not in nodes]):
                ring += val
            total += h * h * ring
        vk = np.array([vx[idx] for idx in nodes])
        total += h ** (k + 1) * float(np.dot(weights[k], vk))

    # remainder on the largest stencil minus the anchor (all of s when p = 2)
    anchor = located[1][1].anchor
    rest = [idx for idx in big_nodes if idx != anchor]
    for val in times_v(lambda dx, dy: s.remainder(p - 3, dx, dy), rest):
        total += h * h * val
    return float(total)


# --------------------------------------------------------------------------
# grid helpers for convergence studies
# --------------------------------------------------------------------------

def grid_with_offset(h: float, radius: float, x0: Sequence[float],
                     alpha: float, beta: float) -> Grid2:
    """Grid arranged so x0 sits at cell offset (alpha, beta) at this spacing.

    Convergence studies refine h while keeping (alpha, beta) fixed; the grid
    origin absorbs the shift.  The window is centered on x0 and reaches at
    least radius from it along each axis.
    """
    origin = (x0[0] - h * alpha, x0[1] - h * beta)
    n = int(math.ceil(radius / h)) + 4
    return Grid2(h=h, origin=origin, extent=((-n, n), (-n, n)))


def pair_orders(errors: Sequence[float],
                hs: Sequence[float]) -> list[float | None]:
    """Observed orders log(e_i/e_{i+1}) / log(h_i/h_{i+1}) of successive levels.

    errors[i] belongs to spacing hs[i]; one order per pair of neighbouring
    errors, None where either error is zero.
    """
    return [math.log(a / b) / math.log(g / h) if a > 0 and b > 0 else None
            for a, b, g, h in zip(errors, errors[1:], hs, hs[1:])]
