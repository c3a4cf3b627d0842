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
from closures chi0, chi1, xi0, xi1, xitilde1, psi0, psi1 that depend on the
principal frame at the target, the plane's offset eta along the normal, the
principal curvatures, and the third derivatives of the local height
function.  The dominant grid axis enters through the orthogonal
change-of-basis Q between (permuted) grid coordinates and the frame, whose
transpose is tiled as

    Q^T = [[A, c], [d^T, a33]],

so in-plane grid offsets y map to tangent coordinates y' = A y and the
height coordinate z' = d.y + eta.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .quad_core import SingularTerm

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


class CurvatureLimitError(ValueError):
    """A plane offset eta reaches 1/kappa, where the expansion breaks down."""


def kernel_values(kind: str | tuple[str, ...], xstar: np.ndarray,
                  nstar: np.ndarray, foot: np.ndarray,
                  normal: np.ndarray) -> np.ndarray:
    """Layer kernel K(x*, P(y)) at surface points P(y), vectorized over rows.

    kind 'SL': 1/(4 pi r); 'DL': -(P(y)-x*).n_y / (4 pi r^3); 'DLC':
    +(P(y)-x*).n_x / (4 pi r^3), where r = |P(y) - x*|, ``foot`` holds the
    (N, 3) points P(y), ``normal`` the (N, 3) outward normals n_y there and
    ``nstar`` the outward normal n_x at x*.  Points closer to x* than
    EXACT_HIT_RADIUS (exact hits of the singular line) get the value 0; the
    quadratures handle them separately.

    ``kind`` is one name, giving an (N,) array, or a tuple of names, giving
    one row per name.  The values are `weighted_kernels` with v = 1.
    """
    kinds = (kind,) if isinstance(kind, str) else tuple(kind)
    out = np.array(weighted_kernels(kinds, xstar, nstar, foot.T, normal.T, 1.0))
    return out[0] if isinstance(kind, str) else out


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
    """Principal frame at a target plus its grid-coordinate change of basis.

    tau1, tau2, n are the world-coordinate principal directions and outward
    normal (right-handed, orthonormal); kappa1/kappa2 pair with tau1/tau2.
    Q has columns (tau1, tau2, n) expressed in the permuted world coordinates
    that put the dominant axis last, and A, c, d, a33 tile its transpose:
    Q^T = [[A, c], [d^T, a33]].  a33 = e_axis . n = det A.
    """

    tau1: np.ndarray
    tau2: np.ndarray
    n: np.ndarray
    kappa1: float
    kappa2: float
    axis: str
    Q: np.ndarray
    A: np.ndarray
    c: np.ndarray
    d: np.ndarray
    a33: float


def build_frame(probe, axis: str) -> PrincipalFrame:
    """Assemble the grid-to-frame change of basis for one dominant axis.

    probe supplies tau1/tau2/n/kappa1/kappa2 (duck-typed; see
    geometry.SurfaceProbe).  Raises FrameAxisError when the normal is
    (numerically) perpendicular to the chosen axis, i.e. |det A| < 1e-12.
    """
    if axis not in AXIS_PERMUTATION:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    perm = list(AXIS_PERMUTATION[axis])
    tau1 = np.asarray(probe.tau1, dtype=float)
    tau2 = np.asarray(probe.tau2, dtype=float)
    n = np.asarray(probe.n, dtype=float)
    Q = np.column_stack([tau1[perm], tau2[perm], n[perm]])
    if np.max(np.abs(Q.T @ Q - np.eye(3))) > 1e-10:
        raise ValueError("probe frame is not orthonormal")
    QT = Q.T
    A = QT[:2, :2].copy()
    c = QT[:2, 2].copy()
    d = QT[2, :2].copy()
    a33 = float(QT[2, 2])
    if abs(np.linalg.det(A)) < 1e-12:
        raise FrameAxisError(
            f"surface normal is perpendicular to axis {axis!r}; "
            "pick the dominant axis from the normal direction")
    return PrincipalFrame(tau1=tau1, tau2=tau2, n=n,
                          kappa1=float(probe.kappa1), kappa2=float(probe.kappa2),
                          axis=axis, Q=Q, A=A, c=c, d=d, a33=a33)


@dataclasses.dataclass(frozen=True)
class CubicSurfaceModel:
    """Local height function through third order, in the principal frame.

    The surface is w = f(y1, y2) with f(0) = 0, grad f(0) = 0, quadratic part
    diag(kappa1, kappa2), and cubic coefficients f3 = (fxxx, fxxy, fxyy,
    fyyy).  B is the cubic form of the Taylor expansion evaluated on one
    vector, and C = grad B its gradient form.
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

    def B(self, y: np.ndarray) -> np.ndarray:
        """Cubic term of f at y, vectorized over (..., 2)."""
        y = np.asarray(y, dtype=float)
        return _cubic(self.f3, y[..., 0], y[..., 1])

    def C(self, y: np.ndarray) -> np.ndarray:
        """Gradient of the cubic term at y, vectorized over (..., 2)."""
        y = np.asarray(y, dtype=float)
        return np.stack(_cubic_gradient(self.f3, y[..., 0], y[..., 1]), axis=-1)


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
    """Singular expansion s = s0 + s1 + O(|y|) of the kernel trace on one
    plane, or on a batch of planes.

    Built by `expansion_at_plane`.  The building blocks are closures over
    in-plane offsets y (vectorized over (..., 2)), with M = diag(kappa1,
    kappa2), D0 = diag(1/(1 - eta kappa_i)) and w = D0 A y:

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

    with C = C(w, w).  A scalar eta gives one plane, whose closures map y to
    y's shape.  A vector eta gives a batch: each plane's constants are a
    (P, 1) column, so offsets y of shape (n, 2) (the same for every plane)
    or (P, m, 2) (one set per plane) give (P, n) or (P, m) values.  Every
    value is elementwise in its plane's constants and its offset, so it
    does not depend on the batch it was formed in.
    """

    def __init__(self, frame, model, eta):
        eta = np.asarray(eta, dtype=float)
        etas = eta.reshape(-1)

        def per_plane(x):
            return list(x) if isinstance(x, (list, tuple)) else [x] * etas.size

        frames, models = per_plane(frame), per_plane(model)
        if not len(frames) == len(models) == etas.size:
            raise ValueError(f"{etas.size} plane offsets need as many frames "
                             f"and models, got {len(frames)} and {len(models)}")
        self._setup(etas,
                    np.array([f.A for f in frames], dtype=float).reshape(-1, 2, 2),
                    np.array([f.d for f in frames], dtype=float).reshape(-1, 2),
                    np.array([(m.kappa1, m.kappa2) for m in models], dtype=float),
                    np.array([m.f3 for m in models], dtype=float).reshape(-1, 4),
                    single=eta.ndim == 0)

    def _setup(self, eta, A, d, kap, f3, single: bool) -> None:
        denom = 1.0 - eta[:, None] * kap
        low = np.min(denom, axis=1) <= 1e-8
        if np.any(low):
            i = int(np.argmax(low))
            err = CurvatureLimitError(
                f"plane offset eta={eta[i]} reaches the curvature limit "
                f"(1 - eta*kappa = {denom[i].min():.3e})")
            err.row = None if single else i
            raise err
        self._arrays = (eta, A, d, kap, f3)
        self.eta = float(eta[0]) if single else eta

        def col(x):   # a per-plane constant: a scalar, or a (P, 1) column
            return x[0] if single else x[:, None]

        g = 1.0 / denom
        self._eta = col(eta)
        self._k = [col(kap[:, i]) for i in range(2)]
        self._g = [col(g[:, i]) for i in range(2)]
        self._gk = [col(g[:, i] * kap[:, i]) for i in range(2)]
        self._gkk = [col(g[:, i] * kap[:, i] * kap[:, i]) for i in range(2)]
        self._D0A = [[col(g[:, i] * A[:, i, j]) for j in range(2)]
                     for i in range(2)]
        self._d = [col(d[:, i]) for i in range(2)]
        self._f3 = [col(f3[:, i]) for i in range(4)]

    def _rows(self, rows) -> KernelExpansion:
        """The batch's planes ``rows`` (all of them for None)."""
        if rows is None:
            return self
        out = KernelExpansion.__new__(KernelExpansion)
        out._setup(*(x[rows] for x in self._arrays), single=False)
        return out

    # -- closures -------------------------------------------------------------

    def _w(self, y):
        """Components of w = D0 A y, and of y."""
        y = np.asarray(y, dtype=float)
        y1, y2 = y[..., 0], y[..., 1]
        (a11, a12), (a21, a22) = self._D0A
        return a11 * y1 + a12 * y2, a21 * y1 + a22 * y2, y1, y2

    def _xi0(self, w1, w2):
        return 0.5 * (self._k[0] * w1 * w1 + self._k[1] * w2 * w2)

    def _chi1(self, w1, w2, c1, c2, dy):
        return (dy * self._gk[0] * w1 + self._eta * self._g[0] * c1,
                dy * self._gk[1] * w2 + self._eta * self._g[1] * c2)

    def _terms(self, y):
        """w's components, psi0, psi1, xi0, C(w, w) and d.y at offsets y."""
        w1, w2, y1, y2 = self._w(y)
        p0 = np.sqrt(w1 * w1 + w2 * w2)
        dy = self._d[0] * y1 + self._d[1] * y2
        c1, c2 = _cubic_gradient(self._f3, w1, w2)
        chi1 = self._chi1(w1, w2, c1, c2, dy)
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

    def chi0(self, y: np.ndarray) -> np.ndarray:
        w1, w2, _, _ = self._w(y)
        return np.stack([w1, w2], axis=-1)

    def chi1(self, y: np.ndarray) -> np.ndarray:
        w1, w2, _, _, _, c1, c2, dy = self._terms(y)
        return np.stack(self._chi1(w1, w2, c1, c2, dy), axis=-1)

    def xi0(self, y: np.ndarray) -> np.ndarray:
        return self._terms(y)[4]

    def xi1(self, y: np.ndarray) -> np.ndarray:
        w1, w2, _, _, _, c1, c2, dy = self._terms(y)
        return self._xi1(w1, w2, c1, c2, dy)

    def xitilde1(self, y: np.ndarray) -> np.ndarray:
        w1, w2, _, _, _, c1, c2, dy = self._terms(y)
        return self._xitilde1(w1, w2, c1, c2, dy)

    def psi0(self, y: np.ndarray) -> np.ndarray:
        return self._terms(y)[2]

    def psi1(self, y: np.ndarray) -> np.ndarray:
        return self._terms(y)[3]

    # -- assembled singular terms ----------------------------------------------

    def s0_eval(self, kind: str, y: np.ndarray) -> np.ndarray:
        """Leading singular term at in-plane offsets y (nonzero)."""
        pref = 1.0 / (4.0 * np.pi)
        s0_kind = S0_KIND.get(kind)
        if s0_kind is None:
            raise ValueError(f"unknown kernel kind {kind!r}")
        w1, w2, _, _ = self._w(y)
        p0 = np.sqrt(w1 * w1 + w2 * w2)
        if s0_kind == "SL":
            return pref / p0
        return pref * self._xi0(w1, w2) / (p0 * p0 * p0)

    def s1_eval(self, kind: str, y: np.ndarray) -> np.ndarray:
        """First correction term at in-plane offsets y (nonzero)."""
        pref = 1.0 / (4.0 * np.pi)
        if kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {kind!r}")
        w1, w2, p0, p1, xi0, c1, c2, dy = self._terms(y)
        p0_2 = p0 * p0
        if kind == "SL":
            return -pref * p1 / p0_2
        xi = (self._xi1 if kind == "DLC" else self._xitilde1)(w1, w2, c1, c2, dy)
        p0_3 = p0_2 * p0
        return pref * (-3.0 * xi0 * p1 / (p0_3 * p0) + xi / p0_3)

    def s0_term(self, kind: str):
        """s0 as a SingularTerm: its phi is s0 on the unit circle.  A batch
        gives a list of terms, one per plane, sampled in one call."""
        return SingularTerm.from_callable(
            0, lambda th, rows=None: self._rows(rows).s0_eval(kind, _unit(th)))

    def s1_term(self, kind: str):
        """s1 as a SingularTerm: its phi is s1 on the unit circle.  A batch
        gives a list of terms, one per plane, sampled in one call."""
        return SingularTerm.from_callable(
            1, lambda th, rows=None: self._rows(rows).s1_eval(kind, _unit(th)))


def _unit(theta: np.ndarray) -> np.ndarray:
    """Unit vectors (cos theta, sin theta), stacked along the last axis."""
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def expansion_at_plane(frame, model, eta) -> KernelExpansion:
    """Singular expansion of the kernel on the plane at normal offset eta.

    A vector eta gives one batch of planes; ``frame`` and ``model`` are then
    one for all of them or sequences with one entry per plane (planes of
    several targets).  A plane at the curvature limit raises
    CurvatureLimitError, whose ``row`` names it within a batch.
    """
    return KernelExpansion(frame, model, eta)
