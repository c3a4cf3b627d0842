"""Analytic test surfaces for the volumetric layer-potential quadratures.

Every surface here is a closed level set presented through the same small
interface (duck-typed, no base class required):

``distance(x)``
    signed distance to the surface, negative inside, vectorized over the
    leading axes of ``x`` with shape ``(..., 3)``;
``project(x)``
    closest point on the surface (raises near the medial axis where the
    projection is not unique);
``normal(x)``
    unit gradient of the signed distance (points outward);
``foot_and_normal(x)``
    ``(project(x), normal(x))`` from one pass over the points;
``reach``
    largest tube half-width on which the projection is single valued;
``bounding_box``
    ``(lo, hi)`` corners of an axis-aligned box containing the surface.

``distance`` must be the exact signed distance, so 1-Lipschitz:
``ibim3d.build_tube`` skips a lattice block when the distance at its centre
rules out every node of the block, which is exact only under that bound.

The tilted torus is the standard convergence fixture: its pose is generic so
an axis-aligned grid shares no symmetry with it, yet distance, projection,
frames, curvatures and a surface parametrization are all available in closed
form.  A high-accuracy parametric quadrature for the layer potentials on the
torus (`layer_potential_oracle`) provides reference values that are
independent of the volumetric quadrature under test.
"""

from __future__ import annotations

import dataclasses
import json
from importlib import resources

import numpy as np

from .kernels3d import kernel_values
from .weights import BumpFunction

__all__ = [
    "TorusSpec",
    "TiltedTorus",
    "tilted_torus",
    "torus_density",
    "random_targets",
    "layer_potential_oracle",
    "NonUniqueProjectionError",
]


class NonUniqueProjectionError(ValueError):
    """Raised when a point is (numerically) on the medial axis of a surface."""


def rotation_x(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rotation_y(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_z(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


# ---------------------------------------------------------------------------
# tilted torus
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class TorusSpec:
    """Torus geometry plus a rigid pose (rotate about x, then y, then z; shift)."""

    R1: float
    R2: float
    angles: tuple[float, float, float] = (0.0, 0.0, 0.0)
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        if not 0.0 < self.R2 < self.R1:
            raise ValueError(f"need 0 < R2 < R1, got R1={self.R1}, R2={self.R2}")

    @property
    def rotation(self) -> np.ndarray:
        a, b, c = self.angles
        return rotation_z(c) @ rotation_y(b) @ rotation_x(a)


class TiltedTorus:
    """Closed torus with exact signed distance, projection and local frames.

    In the untilted frame the surface is the set |(hypot(x, y) - R1, z)| = R2;
    the world pose applies the spec's rotation and translation.

    Projection, normal and density are formed on the local coordinate
    columns u0, u1, u2, with one pose product each way: ``to_local`` on the
    way in and one product with the rotation's transpose on the way out.
    Those products stay matmuls on (..., 3) arrays, because written out per
    coordinate they round differently and every foot would move.
    """

    def __init__(self, spec: TorusSpec):
        self.spec = spec
        self._rot = spec.rotation  # local -> world
        self._center = np.asarray(spec.center, dtype=float)
        # the medial axis consists of the tube's center circle (distance R2)
        # and the symmetry axis (distance >= R1 - R2); the reach is the smaller
        self.reach = min(spec.R2, spec.R1 - spec.R2)

    # -- pose ---------------------------------------------------------------

    def to_local(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (x - self._center) @ self._rot

    def to_world(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return u @ self._rot.T + self._center

    # -- level-set interface --------------------------------------------------

    def distance(self, x: np.ndarray) -> np.ndarray:
        u = self.to_local(x)
        ring = np.hypot(u[..., 0], u[..., 1]) - self.spec.R1
        return np.hypot(ring, u[..., 2]) - self.spec.R2

    def _local_polar(self, x: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Local coordinate columns u0, u1, u2 of x, and rho = hypot(u0, u1),
        the distance from the symmetry axis."""
        u = self.to_local(x)
        u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
        rho = np.hypot(u0, u1)
        if np.any(rho < 1e-12):
            raise NonUniqueProjectionError(
                "point on the torus symmetry axis has no unique closest point")
        return u0, u1, u2, rho

    @staticmethod
    def _check_off_circle(vnorm: np.ndarray) -> None:
        if np.any(vnorm < 1e-12):
            raise NonUniqueProjectionError(
                "point on the tube center circle has no unique closest point")

    def _tube_offset(self, x: np.ndarray):
        """Local columns c of the nearest center-circle point (its third
        coordinate is 0), the columns v of the offset u - c, and |v|."""
        u0, u1, u2, rho = self._local_polar(x)
        scale = self.spec.R1 / rho
        c = (u0 * scale, u1 * scale, 0.0)
        v = (u0 - c[0], u1 - c[1], u2)
        vnorm = np.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
        self._check_off_circle(vnorm)
        return c, v, vnorm

    def _foot(self, c, v, vnorm) -> np.ndarray:
        """World foot c + R2 v/|v|: local columns, then one pose product."""
        scale = self.spec.R2 / vnorm
        foot = np.empty(vnorm.shape + (3,))
        for a in range(3):
            foot[..., a] = c[a] + v[a] * scale
        return self.to_world(foot)

    def _normal(self, v, vnorm) -> np.ndarray:
        """World normal v/|v|: local columns, then one rotation product."""
        normal = np.empty(vnorm.shape + (3,))
        for a in range(3):
            normal[..., a] = v[a] / vnorm
        return normal @ self._rot.T

    def project(self, x: np.ndarray) -> np.ndarray:
        c, v, vnorm = self._tube_offset(x)
        return self._foot(c, v, vnorm)

    def normal(self, x: np.ndarray) -> np.ndarray:
        _, v, vnorm = self._tube_offset(x)
        return self._normal(v, vnorm)

    def foot_and_normal(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        c, v, vnorm = self._tube_offset(x)
        return self._foot(c, v, vnorm), self._normal(v, vnorm)

    @property
    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        r = self.spec.R1 + self.spec.R2
        return self._center - r, self._center + r

    # -- parametrization ------------------------------------------------------

    def param_point(self, theta, phi) -> np.ndarray:
        """World point at tube angle theta and ring angle phi."""
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        ring = self.spec.R1 + self.spec.R2 * np.cos(theta)
        u = np.stack([ring * np.cos(phi), ring * np.sin(phi),
                      self.spec.R2 * np.sin(theta) * np.ones_like(phi)], axis=-1)
        return self.to_world(u)

    def param_frame(self, theta, phi) -> dict[str, np.ndarray]:
        """Orthonormal tangent/normal frame and area element at (theta, phi).

        Returns unit tangents along the tube circle (t_theta) and the ring
        direction (t_phi), the outward normal, and the area element
        dsigma = R2*(R1 + R2*cos(theta)) per unit dtheta dphi.
        """
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        ct, st = np.cos(theta), np.sin(theta)
        cp, sp = np.cos(phi), np.sin(phi)
        zeros = np.zeros(np.broadcast(ct, cp).shape)
        t_theta = np.stack([-st * cp, -st * sp, ct + zeros], axis=-1)
        t_phi = np.stack([-sp + zeros, cp + zeros, zeros], axis=-1)
        n = np.stack([ct * cp, ct * sp, st + zeros], axis=-1)
        rot = self._rot.T
        return {
            "t_theta": t_theta @ rot,
            "t_phi": t_phi @ rot,
            "normal": n @ rot,
            "dsigma": self.spec.R2 * (self.spec.R1 + self.spec.R2 * ct) + zeros,
        }

    def density_at(self, x: np.ndarray, coefficients=None) -> np.ndarray:
        """Sample the parametric test density at the closest surface point.

        The angles' sines and cosines come straight from the local
        coordinate columns, with no trig call: sin(theta) = u2/|v| and
        cos(theta) = ring/|v|, where ring = rho - R1 and |v| = hypot(ring,
        u2), and cos(phi) = u0/rho, sin(phi) = u1/rho.  Raises where
        `project` does, on the medial axis.
        """
        u0, u1, u2, rho = self._local_polar(x)
        ring = rho - self.spec.R1
        vnorm = np.hypot(ring, u2)
        self._check_off_circle(vnorm)
        return _density(u2 / vnorm, ring / vnorm, u1 / rho, u0 / rho,
                        coefficients)


_DEFAULT_DENSITY = (1.38, 2.196, -0.29837, 1.128)


def torus_density(theta, phi, coefficients=None) -> np.ndarray:
    """Smooth test density on the torus, written in its surface angles."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    return _density(np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi),
                    coefficients)


def _density(sin_theta, cos_theta, sin_phi, cos_phi, coefficients=None):
    """`torus_density` from the sines and cosines of its angles."""
    c0, c1, c2, c3 = _DEFAULT_DENSITY if coefficients is None else coefficients
    return (c0 + c1 * sin_theta + c2 * cos_phi * sin_theta
            + c3 * sin_phi * cos_theta)


def tilted_torus() -> TiltedTorus:
    """The packaged generic-pose torus fixture."""
    text = resources.files("ctquad").joinpath("data/tilted_torus.json").read_text()
    raw = json.loads(text)
    spec = TorusSpec(R1=raw["R1"], R2=raw["R2"],
                     angles=tuple(raw["angles"]), center=tuple(raw["center"]))
    return TiltedTorus(spec)


def random_targets(count: int, seed: int) -> np.ndarray:
    """Reproducible target-point parameters (theta, phi), shape (count, 2)."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 2.0 * np.pi, size=(count, 2))


# ---------------------------------------------------------------------------
# the parametric reference quadrature
# ---------------------------------------------------------------------------

def layer_potential_oracle(torus: TiltedTorus, kind: str, theta0: float,
                           phi0: float, rho=None, *, n_far: int = 1024,
                           n_radial: int = 128, n_angular: int = 512,
                           cutoff: float = 0.12) -> float:
    """Reference layer-potential value on the torus by parametric quadrature.

    The target sits on the surface, so the integrand has an integrable
    point singularity there.  A smooth radial cutoff splits the integral:
    the far part (cutoff applied) is periodic and smooth, handled by the
    tensor trapezoidal rule which converges spectrally; the near part is
    integrated in polar coordinates around the target in parameter space,
    where multiplying by the polar radius removes the singularity, using
    Gauss-Legendre radially and the trapezoidal rule angularly.

    rho: surface density, called as rho(theta, phi); defaults to 1.
    """
    if rho is None:
        def rho(theta, phi):
            return np.ones(np.broadcast(np.asarray(theta), np.asarray(phi)).shape)

    xstar = torus.param_point(theta0, phi0)
    nx = torus.param_frame(theta0, phi0)["normal"]
    window = BumpFunction(r0=0.5, R=1.0)  # =1 for chord <= cutoff/2, =0 beyond cutoff

    def integrand(theta, phi, near: bool) -> np.ndarray:
        y = torus.param_point(theta, phi)
        fr = torus.param_frame(theta, phi)
        chord = np.linalg.norm(y - xstar, axis=-1)
        vals = np.zeros(chord.shape)
        if near:
            mask = chord < cutoff
            weight = np.zeros(chord.shape)
            weight[mask] = window(chord[mask] / cutoff)
        else:
            mask = chord > 0.5 * cutoff
            weight = np.zeros(chord.shape)
            weight[mask] = 1.0 - window(chord[mask] / cutoff)
        if not np.any(mask):
            return vals
        ker = kernel_values(kind, xstar, nx, y[mask], fr["normal"][mask])
        vals[mask] = weight[mask] * ker * rho(theta[mask], phi[mask]) * fr["dsigma"][mask]
        return vals

    # far part: periodic tensor trapezoid over the full parameter torus
    th = 2.0 * np.pi * np.arange(n_far) / n_far
    ph = 2.0 * np.pi * np.arange(n_far) / n_far
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    far = float(np.sum(integrand(TH, PH, near=False))) * (2.0 * np.pi / n_far) ** 2

    # near part: polar coordinates in the parameter plane around the target.
    # chord^2 = 4 R2^2 sin^2(dtheta/2) + 4 rho rho0 sin^2(dphi/2) gives
    # chord >= (2/pi) min(R2, R1-R2) r, so the disk below covers the support
    # of the cutoff (and stays inside one period: rmax <= pi for our radii)
    rmax = 0.5 * np.pi * cutoff / min(torus.spec.R2, torus.spec.R1 - torus.spec.R2)
    if rmax > np.pi:
        raise ValueError("cutoff too large for a single-period polar patch")
    nodes, wts = np.polynomial.legendre.leggauss(n_radial)
    r = 0.5 * rmax * (nodes + 1.0)
    rw = 0.5 * rmax * wts
    gamma = 2.0 * np.pi * np.arange(n_angular) / n_angular
    R, G = np.meshgrid(r, gamma, indexing="ij")
    TH = theta0 + R * np.cos(G)
    PH = phi0 + R * np.sin(G)
    vals = integrand(TH, PH, near=True) * R
    near = float(rw @ np.sum(vals, axis=1)) * (2.0 * np.pi / n_angular)

    return far + near
