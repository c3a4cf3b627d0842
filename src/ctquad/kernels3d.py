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

    The formulas are formed on coordinates: P(y) - x* is the three (N,)
    columns dx, dy, dz, and each dot product is summed from them explicitly
    (1-D operations are several times faster than (N, 3) ones).

    ``kind`` is one name, giving an (N,) array, or a tuple of names, giving
    one row per name: P(y) - x*, r and 4 pi r^3 are then formed once for all.
    """
    kinds = (kind,) if isinstance(kind, str) else tuple(kind)
    for k in kinds:
        if k not in KERNEL_KINDS:
            raise ValueError(f"kind must be one of {KERNEL_KINDS}, got {k!r}")
    dx = foot[:, 0] - xstar[0]
    dy = foot[:, 1] - xstar[1]
    dz = foot[:, 2] - xstar[2]
    r = np.sqrt(dx * dx + dy * dy + dz * dz)
    hit = r < EXACT_HIT_RADIUS
    out = np.empty((len(kinds), r.shape[0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        if "DL" in kinds or "DLC" in kinds:
            four_pi_r3 = 4.0 * np.pi * (r * r * r)
        for row, k in zip(out, kinds):
            if k == "SL":
                val = 1.0 / (4.0 * np.pi * r)
            elif k == "DL":
                val = -(dx * normal[:, 0] + dy * normal[:, 1]
                        + dz * normal[:, 2]) / four_pi_r3
            else:  # DLC
                val = (dx * nstar[0] + dy * nstar[1]
                       + dz * nstar[2]) / four_pi_r3
            row[:] = np.where(hit, 0.0, val)
    return out[0] if isinstance(kind, str) else out


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

    @property
    def M(self) -> np.ndarray:
        return np.diag([self.kappa1, self.kappa2])

    def B(self, y: np.ndarray) -> np.ndarray:
        """Cubic term of f at y, vectorized over (..., 2)."""
        fxxx, fxxy, fxyy, fyyy = self.f3
        y = np.asarray(y, dtype=float)
        x1, x2 = y[..., 0], y[..., 1]
        return 0.5 * (fxxx * x1**3 / 3.0 + fyyy * x2**3 / 3.0
                      + fxxy * x1**2 * x2 + fxyy * x1 * x2**2)

    def C(self, y: np.ndarray) -> np.ndarray:
        """Gradient of the cubic term at y, vectorized over (..., 2)."""
        fxxx, fxxy, fxyy, fyyy = self.f3
        y = np.asarray(y, dtype=float)
        x1, x2 = y[..., 0], y[..., 1]
        return 0.5 * np.stack([
            fxxx * x1**2 + 2.0 * fxxy * x1 * x2 + fxyy * x2**2,
            fyyy * x2**2 + 2.0 * fxyy * x1 * x2 + fxxy * x1**2,
        ], axis=-1)


class KernelExpansion:
    """Singular expansion s = s0 + s1 + O(|y|) of one plane's kernel trace.

    Built by `expansion_at_plane`.  The building blocks are closures over
    in-plane offsets y (vectorized over (..., 2)):

        chi0(y) = D0 A y                                (degree 1)
        chi1(y) = (d.y) D0 D0 M A y + eta D0 C(w, w)    (degree 2, w = D0 A y)
        xi0(y)  = (1/2) y^T (A^T D0 M D0 A) y           (degree 2)
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
    |y|).  s0 is homogeneous of degree -1 and s1 of degree 0.
    """

    def __init__(self, frame: PrincipalFrame, model: CubicSurfaceModel, eta: float):
        self.frame = frame
        self.model = model
        self.eta = float(eta)
        kap = np.array([model.kappa1, model.kappa2])
        denom = 1.0 - self.eta * kap
        if np.min(denom) <= 1e-8:
            raise CurvatureLimitError(
                f"plane offset eta={eta} reaches the curvature limit "
                f"(1 - eta*kappa = {denom.min():.3e})")
        self.D0 = np.diag(1.0 / denom)
        self._M = model.M
        self._A = frame.A
        self._d = frame.d
        # fixed 2x2 operator products used by the closures
        self._D0A = self.D0 @ self._A
        self._chi1_lin = self.D0 @ self.D0 @ self._M @ self._A
        self._xi0_quad = self._A.T @ self.D0 @ self._M @ self.D0 @ self._A
        self._xi1_quad = (self._M.T @ self.D0.T @ self.D0.T @ self._M @ self.D0)
        self._xit_quad = self.D0 @ self._M @ self.D0 @ self.D0 @ self._M

    # -- closures -------------------------------------------------------------

    def chi0(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return y @ self._D0A.T

    def chi1(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        w = y @ self._D0A.T
        lead = (y @ self._d)[..., None] * (y @ self._chi1_lin.T)
        return lead + self.eta * (self.model.C(w) @ self.D0.T)

    def xi0(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return 0.5 * np.einsum("...i,ij,...j->...", y, self._xi0_quad, y)

    def xi1(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        w = y @ self._D0A.T
        dc = self.model.C(w) @ self.D0.T  # D0 C(w, w)
        mw = w @ self._M.T  # M D0 A y = M w
        t1 = 0.5 * self.eta * np.sum(dc * mw, axis=-1)
        t2 = 0.5 * self.eta * np.sum(w * (dc @ self._M.T), axis=-1)
        t3 = self.model.B(w)
        z = y @ self._A.T
        t4 = (y @ self._d) * np.einsum("...i,ij,...j->...", z, self._xi1_quad, z)
        return t1 + t2 + t3 + t4

    def xitilde1(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        w = y @ self._D0A.T
        dc = self.model.C(w) @ self.D0.T
        mw = w @ self._M.T
        bracket = np.sum(dc * mw, axis=-1) - np.sum(w * (dc @ self._M.T), axis=-1)
        z = y @ self._A.T
        op = self.D0.T @ (np.eye(2) + self.eta * self._M @ self.D0)
        t3 = np.sum(z * (self.model.C(w) @ op.T), axis=-1)
        t4 = (y @ self._d) * np.einsum("...i,ij,...j->...", z, self._xit_quad, z)
        return 0.5 * self.eta * bracket - self.model.B(w) + t3 + t4

    def psi0(self, y: np.ndarray) -> np.ndarray:
        return np.linalg.norm(self.chi0(y), axis=-1)

    def psi1(self, y: np.ndarray) -> np.ndarray:
        chi0 = self.chi0(y)
        return np.sum(chi0 * self.chi1(y), axis=-1) / np.linalg.norm(chi0, axis=-1)

    # -- assembled singular terms ----------------------------------------------

    def s0_eval(self, kind: str, y: np.ndarray) -> np.ndarray:
        """Leading singular term at in-plane offsets y (nonzero)."""
        pref = 1.0 / (4.0 * np.pi)
        p0 = self.psi0(y)
        s0_kind = S0_KIND.get(kind)
        if s0_kind == "SL":
            return pref / p0
        if s0_kind == "DL":
            return pref * self.xi0(y) / p0**3
        raise ValueError(f"unknown kernel kind {kind!r}")

    def s1_eval(self, kind: str, y: np.ndarray) -> np.ndarray:
        """First correction term at in-plane offsets y (nonzero)."""
        pref = 1.0 / (4.0 * np.pi)
        p0 = self.psi0(y)
        p1 = self.psi1(y)
        if kind == "SL":
            return -pref * p1 / p0**2
        if kind == "DLC":
            return pref * (-3.0 * self.xi0(y) * p1 / p0**4 + self.xi1(y) / p0**3)
        if kind == "DL":
            return pref * (-3.0 * self.xi0(y) * p1 / p0**4 + self.xitilde1(y) / p0**3)
        raise ValueError(f"unknown kernel kind {kind!r}")

    def s0_term(self, kind: str) -> SingularTerm:
        """s0 as a SingularTerm: its phi is s0 on the unit circle."""
        return SingularTerm.from_callable(0, lambda th: self.s0_eval(kind, _unit(th)))

    def s1_term(self, kind: str) -> SingularTerm:
        """s1 as a SingularTerm: its phi is s1 on the unit circle."""
        return SingularTerm.from_callable(1, lambda th: self.s1_eval(kind, _unit(th)))


def _unit(theta: np.ndarray) -> np.ndarray:
    """Unit vectors (cos theta, sin theta), stacked along the last axis."""
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def expansion_at_plane(frame: PrincipalFrame, model: CubicSurfaceModel,
                       eta: float) -> KernelExpansion:
    """Singular expansion of the kernel on the plane at normal offset eta."""
    return KernelExpansion(frame, model, eta)
