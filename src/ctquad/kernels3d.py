"""Laplace layer kernels and their per-plane singular expansions.

The volumetric layer potentials integrate K(x*, P(y)) against a smooth
density over a thin tube around the surface.  Restricted to one grid plane,
the kernel is singular at the point where the plane crosses the normal line
of the target x*; this module builds the leading terms of that singularity
analytically from local surface geometry, so that the corrected trapezoidal
rules of `quad_core` can integrate each plane to high order.

Writing y for the in-plane offset from the singular point, the kernel
expands as

    s(y) = s0(y) + s1(y) + O(|y|),

where s0 is (-1)-homogeneous and s1 is 0-homogeneous.  Both are assembled
from the principal frame at the target, the plane's offset eta along the
normal, the principal curvatures, and the third derivatives of the local
height function.  The dominant grid axis enters through the orthogonal
change-of-basis Q between (permuted) grid coordinates and the frame, whose
transpose is tiled as

    Q^T = [[A, c], [d^T, a33]],

so in-plane grid offsets y map to tangent coordinates y' = A y and the
height coordinate z' = d.y + eta.  One expansion is a batch of planes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .quad_core import BatchRowError, SingularTerm

__all__ = [
    "PrincipalFrame",
    "CubicSurfaceModel",
    "KernelExpansion",
    "kernel_values",
    "weighted_kernels",
    "build_frame",
    "expansion_at_plane",
    "AXIS_PERMUTATION",
    "KERNEL_KINDS",
    "S0_KIND",
    "FrameAxisError",
    "CurvatureLimitError",
]

KERNEL_KINDS = ("SL", "DL", "DLC")

# the kind whose leading term s0 each kind has: DL and DLC differ from s1 on
S0_KIND = {"SL": "SL", "DL": "DL", "DLC": "DL"}

# kernel values are zeroed (and the node dropped from every rule) when a
# lattice node lands on the singular line closer than this
EXACT_HIT_RADIUS = 1e-13

# permutation of world coordinates that puts the dominant axis last; all
# three are cyclic, so a right-handed frame stays right-handed
AXIS_PERMUTATION = {"x": (1, 2, 0), "y": (2, 0, 1), "z": (0, 1, 2)}


class FrameAxisError(ValueError):
    """The chosen dominant axis is (nearly) tangent to the surface."""


class CurvatureLimitError(BatchRowError):
    """A plane offset eta reaches 1/kappa, where the expansion breaks down;
    ``row`` is that plane's row in its batch."""


def kernel_values(kind: str, xstar: np.ndarray,
                  nstar: np.ndarray, foot: np.ndarray,
                  normal: np.ndarray) -> np.ndarray:
    """Layer kernel K(x*, P(y)) at surface points P(y), vectorized over rows.

    kind 'SL': 1/(4 pi r); 'DL': -(P(y)-x*).n_y / (4 pi r^3); 'DLC':
    +(P(y)-x*).n_x / (4 pi r^3), where r = |P(y) - x*|, ``foot`` holds the
    (N, 3) points P(y), ``normal`` the (N, 3) outward normals n_y there and
    ``nstar`` the outward normal n_x at x*.  Points closer to x* than
    EXACT_HIT_RADIUS (exact hits of the singular line) get the value 0; the
    quadratures handle them separately.  The values are `weighted_kernels`
    of the one kind with v = 1, an (N,) array.
    """
    return weighted_kernels((kind,), xstar, nstar, foot.T, normal.T, 1.0)[0]


def weighted_kernels(kinds: tuple[str, ...], xstar, nstar, foot, normal,
                     v) -> list[np.ndarray]:
    """K(x*, P(y)) * v for each kind, elementwise over broadcast coordinates.

    ``xstar``, ``nstar``, ``foot`` and ``normal`` are each three coordinate
    arrays (or one (3, ...) array) that broadcast together and with ``v``:
    (T, 1) target columns against (n,) tube rows give (T, n) values, and
    (P, 1) columns against (P, 4) cell nodes (P, 4).  The formulas are
    formed on the coordinates of x* - P(y) (so DL's dot product needs no
    sign change, and DLC's takes -n_x), with r from their squares r2,
    v / (4 pi) / r for SL, and that over r2 folded into both normal
    derivatives.  Every value is an elementwise function of its own node,
    target and v, so it does not depend on what it was formed beside.
    Exact hits (r < EXACT_HIT_RADIUS) read 0.
    """
    for k in kinds:
        if k not in KERNEL_KINDS:
            raise ValueError(f"kind must be one of {KERNEL_KINDS}, got {k!r}")
    dx = xstar[0] - foot[0]
    dy = xstar[1] - foot[1]
    dz = xstar[2] - foot[2]
    r2 = dx * dx
    r2 += dy * dy
    r2 += dz * dz
    r = np.sqrt(r2)
    hit = r < EXACT_HIT_RADIUS
    out = []
    with np.errstate(divide="ignore", invalid="ignore"):
        v_r = np.asarray(v, dtype=float) / (4.0 * np.pi) / r
        if "DL" in kinds or "DLC" in kinds:
            v_r3 = v_r / r2
        for k in kinds:
            if k == "SL":
                out.append(v_r)
                continue
            n = normal if k == "DL" else [-np.asarray(c) for c in nstar[:3]]
            val = dx * n[0]
            val += dy * n[1]
            val += dz * n[2]
            val *= v_r3
            out.append(val)
    if np.any(hit):
        out = [np.where(hit, 0.0, val) for val in out]
    return out


@dataclasses.dataclass(frozen=True, eq=False)
class PrincipalFrame:
    """The grid-to-frame change of basis at a target, as the expansion reads it.

    Q has columns (tau1, tau2, n), the principal directions and outward
    normal, in the permuted world coordinates that put the dominant axis
    last.  A is the upper-left 2x2 block of Q^T and d the first two entries
    of its last row: Q^T = [[A, c], [d^T, a33]], with det A = a33 = n's
    component along the dominant axis.
    """

    A: np.ndarray
    d: np.ndarray


def build_frame(probe, axis: str) -> PrincipalFrame:
    """Assemble the grid-to-frame change of basis for one dominant axis.

    probe supplies tau1/tau2/n (duck-typed; see geometry.SurfaceProbe).
    Raises ValueError when they are not orthonormal, and FrameAxisError when
    the normal is (numerically) perpendicular to the chosen axis, i.e.
    |det A| < 1e-12.
    """
    if axis not in AXIS_PERMUTATION:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    perm = list(AXIS_PERMUTATION[axis])
    QT = np.array([np.asarray(v, dtype=float)[perm]
                   for v in (probe.tau1, probe.tau2, probe.n)])
    if np.max(np.abs(QT @ QT.T - np.eye(3))) > 1e-10:
        raise ValueError("probe frame is not orthonormal")
    A = QT[:2, :2].copy()
    if abs(np.linalg.det(A)) < 1e-12:
        raise FrameAxisError(
            f"surface normal is perpendicular to axis {axis!r}; "
            "pick the dominant axis from the normal direction")
    return PrincipalFrame(A=A, d=QT[2, :2].copy())


@dataclasses.dataclass(frozen=True)
class CubicSurfaceModel:
    """Local height function through third order, in the principal frame.

    The surface is w = f(y1, y2) with f(0) = 0, grad f(0) = 0, quadratic part
    diag(kappa1, kappa2), and cubic coefficients f3 = (fxxx, fxxy, fxyy,
    fyyy): the cubic term B of the Taylor expansion is `_cubic` and its
    gradient form C = grad B `_cubic_gradient`.
    """

    kappa1: float
    kappa2: float
    f3: tuple[float, float, float, float]

    @classmethod
    def from_probe(cls, probe) -> CubicSurfaceModel:
        if probe.f3 is None:
            raise ValueError("probe has no third derivatives (f3 is None)")
        return cls(kappa1=float(probe.kappa1), kappa2=float(probe.kappa2),
                   f3=tuple(float(v) for v in probe.f3))


def _cubic(f3, x1, x2):
    """The cubic term B of the height function with coefficients f3 at the
    point with components (x1, x2); f3's entries broadcast with them."""
    fxxx, fxxy, fxyy, fyyy = f3
    x11, x22 = x1 * x1, x2 * x2
    return 0.5 * (fxxx * x11 * x1 / 3.0 + fyyy * x22 * x2 / 3.0
                  + fxxy * x11 * x2 + fxyy * x1 * x22)


def _cubic_gradient(f3, x1, x2):
    """The components of C = grad B at (x1, x2), as for `_cubic`."""
    fxxx, fxxy, fxyy, fyyy = f3
    x11, x12, x22 = x1 * x1, x1 * x2, x2 * x2
    return (0.5 * (fxxx * x11 + 2.0 * fxxy * x12 + fxyy * x22),
            0.5 * (fyyy * x22 + 2.0 * fxyy * x12 + fxxy * x11))


class KernelExpansion:
    """Singular expansion s = s0 + s1 + O(|y|) of the kernel trace on a
    batch of planes.

    Built by `expansion_at_plane`.  The building blocks are functions of
    in-plane offsets y, with M = diag(kappa1, kappa2), D0 = diag(1/(1 - eta
    kappa_i)), w = D0 A y and C the gradient form of the cubic term B:

        chi0(y) = D0 A y = w                            (degree 1)
        chi1(y) = (d.y) D0 M w + eta D0 C(w, w)         (degree 2)
        xi0(y)  = (1/2) w^T M w                         (degree 2)
        xi1, xitilde1                                   (degree 3)
        psi0(y) = |chi0(y)|,  psi1(y) = chi0.chi1/|chi0|

    and the assembled kernels, including the 1/(4 pi) factor:

        s0_SL  = (1/4pi) / psi0(y)
        s1_SL  = -(1/4pi) psi1/psi0^2
        s0_DL  = s0_DLC = (1/4pi) xi0/psi0^3
        s1_DLC = (1/4pi) (-3 xi0 psi1/psi0^4 + xi1/psi0^3)
        s1_DL  = (1/4pi) (-3 xi0 psi1/psi0^4 + xitilde1/psi0^3)

    (written here in the scale-invariant form: by homogeneity the assembled
    expressions evaluated on raw offsets already carry the right powers of
    |y|).  s0 is homogeneous of degree -1 and s1 of degree 0.  D0 and M are
    diagonal, so every operator product is written out per coordinate:

        xi1      = eta w.(D0 M C) + B(w) + (d.y) w^T D0 M^2 w
        xitilde1 = w.(D0 C) - B(w) + (d.y) w^T D0 M^2 w

    with C = C(w, w).  The planes' offsets eta (P,), their frames' A
    (P, 2, 2) and d (P, 2), curvatures (P, 2) and third derivatives f3
    (P, 4) give each plane's constants as a (P, 1) column, so offsets y of
    shape (n, 2) (the same for every plane) or (P, m, 2) (one set per
    plane) give (P, n) or (P, m) values.  Every value is elementwise in its
    plane's constants and its offset, so it does not depend on the batch it
    was formed in.
    """

    def __init__(self, eta, A, d, kap, f3):
        denom = 1.0 - eta[:, None] * kap
        low = np.min(denom, axis=1) <= 1e-8
        if np.any(low):
            i = int(np.argmax(low))
            raise CurvatureLimitError(
                f"plane offset eta={eta[i]} reaches the curvature limit "
                f"(1 - eta*kappa = {denom[i].min():.3e})", row=i)
        self._arrays = (eta, A, d, kap, f3)
        self.eta = eta
        g = 1.0 / denom
        self._eta = eta[:, None]
        self._k = [kap[:, i, None] for i in range(2)]
        self._g = [g[:, i, None] for i in range(2)]
        self._gk = [(g[:, i] * kap[:, i])[:, None] for i in range(2)]
        self._gkk = [(g[:, i] * kap[:, i] * kap[:, i])[:, None]
                     for i in range(2)]
        self._D0A = [[(g[:, i] * A[:, i, j])[:, None] for j in range(2)]
                     for i in range(2)]
        self._d = [d[:, i, None] for i in range(2)]
        self._f3 = [f3[:, i, None] for i in range(4)]

    def _rows(self, rows) -> KernelExpansion:
        """The batch's planes ``rows`` (all of them for None)."""
        if rows is None:
            return self
        return KernelExpansion(*(x[rows] for x in self._arrays))

    # -- building blocks ------------------------------------------------------

    def _w(self, y):
        """Components of w = D0 A y, and of y."""
        y = np.asarray(y, dtype=float)
        y1, y2 = y[..., 0], y[..., 1]
        (a11, a12), (a21, a22) = self._D0A
        return a11 * y1 + a12 * y2, a21 * y1 + a22 * y2, y1, y2

    def _xi0(self, w1, w2):
        return 0.5 * (self._k[0] * w1 * w1 + self._k[1] * w2 * w2)

    def _terms(self, y):
        """w's components, psi0, psi1, xi0, C(w, w) and d.y at offsets y."""
        w1, w2, y1, y2 = self._w(y)
        p0 = np.sqrt(w1 * w1 + w2 * w2)
        dy = self._d[0] * y1 + self._d[1] * y2
        c1, c2 = _cubic_gradient(self._f3, w1, w2)
        chi1 = (dy * self._gk[0] * w1 + self._eta * self._g[0] * c1,
                dy * self._gk[1] * w2 + self._eta * self._g[1] * c2)
        p1 = (w1 * chi1[0] + w2 * chi1[1]) / p0
        return w1, w2, p0, p1, self._xi0(w1, w2), c1, c2, dy

    def _xi1(self, w1, w2, c1, c2, dy):
        return (self._eta * (self._gk[0] * w1 * c1 + self._gk[1] * w2 * c2)
                + _cubic(self._f3, w1, w2) + self._dy_term(w1, w2, dy))

    def _xitilde1(self, w1, w2, c1, c2, dy):
        return (self._g[0] * w1 * c1 + self._g[1] * w2 * c2
                - _cubic(self._f3, w1, w2) + self._dy_term(w1, w2, dy))

    def _dy_term(self, w1, w2, dy):
        """(d.y) w^T D0 M^2 w, shared by xi1 and xitilde1."""
        return dy * (self._gkk[0] * w1 * w1 + self._gkk[1] * w2 * w2)

    # -- assembled singular terms ----------------------------------------------

    def s0_eval(self, kind: str, y: np.ndarray) -> np.ndarray:
        """Leading singular term at in-plane offsets y (nonzero)."""
        pref = 1.0 / (4.0 * np.pi)
        w1, w2, _, _ = self._w(y)
        p0 = np.sqrt(w1 * w1 + w2 * w2)
        if S0_KIND[kind] == "SL":
            return pref / p0
        return pref * self._xi0(w1, w2) / (p0 * p0 * p0)

    def s1_eval(self, kind: str, y: np.ndarray) -> np.ndarray:
        """First correction term at in-plane offsets y (nonzero)."""
        pref = 1.0 / (4.0 * np.pi)
        w1, w2, p0, p1, xi0, c1, c2, dy = self._terms(y)
        p0_2 = p0 * p0
        if kind == "SL":
            return -pref * p1 / p0_2
        xi = {"DLC": self._xi1, "DL": self._xitilde1}[kind](w1, w2, c1, c2, dy)
        p0_3 = p0_2 * p0
        return pref * (-3.0 * xi0 * p1 / (p0_3 * p0) + xi / p0_3)

    def s0_term(self, kind: str):
        """s0 as SingularTerms, one per plane, sampled in one call: each
        plane's phi is its s0 on the unit circle."""
        return SingularTerm.from_callable(
            0, lambda th, rows=None: self._rows(rows).s0_eval(kind, _unit(th)))

    def s1_term(self, kind: str):
        """s1 as SingularTerms, one per plane, sampled in one call: each
        plane's phi is its s1 on the unit circle."""
        return SingularTerm.from_callable(
            1, lambda th, rows=None: self._rows(rows).s1_eval(kind, _unit(th)))


def _unit(theta: np.ndarray) -> np.ndarray:
    """Unit vectors (cos theta, sin theta), stacked along the last axis."""
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def expansion_at_plane(frames, models, eta) -> KernelExpansion:
    """Singular expansion of the kernel on the planes at normal offsets eta.

    ``eta`` is a vector, one entry per plane, and ``frames`` and ``models``
    are sequences with one entry per plane (planes of several targets).  A
    plane at the curvature limit raises CurvatureLimitError, whose ``row``
    names it within the batch.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.ndim != 1 or not len(frames) == len(models) == eta.size:
        raise ValueError(f"a vector of plane offsets needs one frame and one "
                         f"model per plane, got eta of shape {eta.shape}")
    return KernelExpansion(
        eta, np.array([f.A for f in frames], dtype=float).reshape(-1, 2, 2),
        np.array([f.d for f in frames], dtype=float).reshape(-1, 2),
        np.array([(m.kappa1, m.kappa2) for m in models], dtype=float),
        np.array([m.f3 for m in models], dtype=float).reshape(-1, 4))
