"""Reference computations that only the tests use.

* `singular_moment`: the exact plane moments of a singular term, which the
  weights layer folds into its moment equations without forming one alone;
* `active_modes`: the modes of a singular term's mode map, ascending;
* `weights_at_h`: the correction weights solved at one finite grid spacing,
  the system whose residual `weights.moment_residual` reports;
* `projection_expansion_report`: residuals of the closest-point map's local
  expansion, the structure the kernel expansions rest on;
* `analytic_probe`, `torus_exact_probe`: a surface's exact frame and
  curvatures, the reference the finite-difference probe is checked against;
* `sphere_level_jacobian`, `torus_level_jacobian`: exact area ratios J at
  offset points, the reference for the tube's finite-difference J;
* `tube_index`, `tube_points`, `tube_jacobian`: a tube's lattice triples,
  node positions and finite-difference area ratios J, which the tube does
  not keep;
* `torus_parameters`: the tilted torus's angles (theta, phi) of the closest
  surface point, by atan2;
* `torus_plane_expansion`: the kernel expansion on one plane near a torus
  target, a source of realistic singular terms;
* `MatrixFormExpansion`: one plane's kernel expansion and its building
  blocks with the operators as 2x2 matrix products, the form the library's
  batched per-coordinate expansion must match to rounding, and
  `cubic_term`, `cubic_gradient`, the height function's cubic term and its
  gradient form on (..., 2) offsets;
* `lattice_mode_sums_complex`: the windowed lattice sums with complex
  products, the form the library's real-multiply sums must match bit for bit;
* `projection_jacobian_einsum`, `scan_band_ravel`: the tube's area ratio
  as one einsum over the (..., 3, 4, 3) feet block, and its band scan with
  lattice triples and `np.ravel_multi_index`, the forms the library's
  stencil-at-a-time J and key-arithmetic scan must match bit for bit;
* `kernel_values_einsum`: the layer kernels from (N, 3) differences and
  einsum dot products, the form the library's per-coordinate kernels must
  match to rounding;
* `torus_foot_and_normal_stacked`, `torus_density_from_angles`: the tilted
  torus's feet and normals from (N, 3) stacks and `np.linalg.norm`, and its
  density from atan2 angles, the forms its coordinate-column projection must
  match bit for bit and its trig-free density to rounding;
* `Sphere`, `CubicGraph`: a sphere with exact distance, projection and probe,
  and a cubic graph patch with known derivatives, surfaces with the
  interface documented in `ctquad.surfaces`.
"""
from __future__ import annotations

import dataclasses
import math
from unittest import mock

import numpy as np

from ctquad.geometry import (
    _JAC_FD1,
    SurfaceProbe,
    canonical_tangent_frame,
    third_derivatives,
)
from ctquad import ibim3d, weights
from ctquad.ibim3d import (
    BLOCK,
    _lattice_axes,
    _lattice_index,
    _lattice_points,
    build_tube,
    dominant_direction,
)
from ctquad.kernels3d import (
    EXACT_HIT_RADIUS,
    KERNEL_KINDS,
    CubicSurfaceModel,
    _cubic,
    _cubic_gradient,
    build_frame,
    expansion_at_plane,
)
from ctquad.quad_core import GridOffset, SingularTerm, Stencil
from ctquad.surfaces import (
    NonUniqueProjectionError,
    tilted_torus,
    torus_density,
)
from ctquad.weights import (
    _CLD,
    _LD,
    _MOMENTS,
    DEFAULT_BUMP,
    _check_conditioning,
    _finite_h_system,
)


def singular_moment(term: SingularTerm, monomial: tuple[int, int]) -> float:
    """Exact integral of s_k(x) * g(|x|) * x^a y^b over the plane.

    Separates into (radial moment of order k+a+b) x (angular moment per
    Fourier mode of phi).
    """
    a, b = monomial
    rad = _MOMENTS.radial_moment(term.k + a + b)
    tot = _LD(0)
    for mode, c in term.coefficients.items():
        tot += _LD(c) * rad * _MOMENTS.angular_moment(mode, a, b)
    return float(tot)


def active_modes(term: SingularTerm) -> list[int]:
    """Mode 0 and every mode of the term's map ``coefficients``, ascending."""
    return list(dict.fromkeys(m for _, m in term.coefficients))


def weights_at_h(term: SingularTerm, offset: GridOffset, stencil: Stencil,
                 h: float) -> np.ndarray:
    """Solve the moment-matching system at one grid spacing h.

    Raises IllConditionedStencilError if the test matrix has condition number
    above 1e12 at this offset.
    """
    G, rhs = _finite_h_system(term, offset, stencil, h)
    _check_conditioning(G, offset.alpha, offset.beta, stencil)
    return np.linalg.solve(G, rhs)


def projection_expansion_report(surface, probe, zprime: float, *,
                                fd_step: float = 2e-4,
                                radius: float = 1e-3,
                                n_directions: int = 8) -> dict:
    """Diagnostics for the closest-point map's local expansion.

    For the probe point x* + z'*n, writes the tangential frame coordinates of
    the projection of nearby points x* + y1'*tau1 + y2'*tau2 + z'*n as
    h(y', z') and checks, by central differences, the structure

        h(0, z') = 0,
        dh/dy'(0, z') = D(z') = (I - z' M)^{-1},
        h(y', z') = D y' + z' D C(D y', D y') + O(|y'|^3).

    Returns a dict with the three residuals (origin, jacobian, quadratic)
    plus the inputs; purely diagnostic, raises nothing on large residuals.
    """
    model = CubicSurfaceModel.from_probe(probe)
    xstar = np.asarray(probe.xstar, dtype=float)
    tau = np.stack([probe.tau1, probe.tau2])  # (2, 3)
    base = xstar + zprime * probe.n

    def h(yp: np.ndarray) -> np.ndarray:
        """Tangential projection coordinates; yp has shape (..., 2)."""
        pts = base + np.asarray(yp, dtype=float) @ tau
        return (surface.project(pts) - xstar) @ tau.T

    origin_residual = float(np.linalg.norm(h(np.zeros(2))))

    coef = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
    ks = np.array([-2.0, -1.0, 1.0, 2.0])
    disp = np.zeros((2, 4, 2))
    for a in range(2):
        disp[a, :, a] = ks * fd_step
    vals = h(disp.reshape(-1, 2)).reshape(2, 4, 2)
    dh = np.einsum("akc,k->ca", vals, coef) / fd_step
    kap = np.array([model.kappa1, model.kappa2])
    D = np.diag(1.0 / (1.0 - zprime * kap))
    jacobian_residual = float(np.max(np.abs(dh - D)))

    ang = 2.0 * np.pi * np.arange(n_directions) / n_directions
    yp = radius * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    dy = yp @ D.T
    predicted = dy + zprime * (cubic_gradient(model, dy) @ D.T)
    quadratic_residual = float(np.max(np.linalg.norm(h(yp) - predicted, axis=-1)))

    return {
        "zprime": float(zprime),
        "origin_residual": origin_residual,
        "jacobian_residual": jacobian_residual,
        "quadratic_residual": quadratic_residual,
        "fd_step": fd_step,
        "radius": radius,
    }


def analytic_probe(surface, xstar, h=None):
    """The exact probe of a `Sphere` or a tilted torus at the point nearest
    xstar, with f3 filled.

    The torus probe leaves f3 unset and gets it from `third_derivatives` at
    probe_distance = reach/4 with step h (default reach/100), the defaults
    of `surface_probe`.
    """
    reach = surface.reach
    h = 0.01 * reach if h is None else h
    xstar = surface.project(np.asarray(xstar, dtype=float))
    if isinstance(surface, Sphere):
        probe = surface.exact_probe(xstar)
    else:
        probe = torus_exact_probe(surface, xstar)
    if probe.f3 is None:
        zbar = probe.xstar + 0.25 * reach * probe.n
        f3, spread = third_derivatives(surface.project, zbar, probe.xstar,
                                       probe.tau1, probe.tau2, probe.n,
                                       probe.kappa1, probe.kappa2, h)
        probe = dataclasses.replace(probe, f3=f3, f3_spread=spread)
    return probe


def sphere_level_jacobian(sphere, x: np.ndarray) -> np.ndarray:
    """Exact area ratio dsigma_surface / dsigma_level at offset points."""
    eta = sphere.distance(x)
    return (sphere.radius / (sphere.radius + eta)) ** 2


def torus_level_jacobian(torus, x: np.ndarray) -> np.ndarray:
    """Exact area ratio dsigma_surface / dsigma_level at offset points.

    For a point at signed distance eta whose foot has principal curvatures
    kappa_i (height-function convention, negative when convex outward) the
    ratio is 1 / ((1 - eta*kappa1) * (1 - eta*kappa2)).
    """
    eta = torus.distance(x)
    theta, _ = torus_parameters(torus, x)
    k_tube = -1.0 / torus.spec.R2
    k_ring = -np.cos(theta) / (torus.spec.R1 + torus.spec.R2 * np.cos(theta))
    return 1.0 / ((1.0 - eta * k_tube) * (1.0 - eta * k_ring))


def tube_index(tube) -> np.ndarray:
    """(N, 3) int lattice triples of a tube's nodes, from its keys."""
    return _lattice_index(tube.key, tube.shape)


def tube_points(tube) -> np.ndarray:
    """(N, 3) positions of a tube's nodes, bit for bit origin + h * index."""
    return _lattice_points(tube.key,
                           _lattice_axes(tube.origin, tube.h, tube.shape))


def tube_jacobian(surface, h: float, eps: float) -> np.ndarray:
    """The area ratios J of the constant-density tube's nodes, bit for bit
    those `build_tube` forms.

    The tube keeps only v = rho(P) * delta_eps(d) * J; built with delta_eps
    patched to ones and no density, v is 1.0 * 1.0 * J, which is J.
    """
    with mock.patch.object(ibim3d, "delta_eps",
                           lambda eta, eps: np.ones_like(eta)):
        return build_tube(surface, h, eps).v


def torus_parameters(torus, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angles (theta, phi) of the torus point closest to x.

    atan2 branch: both angles land in (-pi, pi]; every consumer here is
    2*pi-periodic so the branch never matters.
    """
    u = torus.to_local(x)
    phi = np.arctan2(u[..., 1], u[..., 0])
    ring = np.hypot(u[..., 0], u[..., 1]) - torus.spec.R1
    theta = np.arctan2(u[..., 2], ring)
    return theta, phi


def torus_plane_expansion():
    """Kernel expansion on the plane eta = 0.02 off a tilted-torus target,
    a batch of that one plane."""
    torus = tilted_torus()
    probe = analytic_probe(torus, torus.param_point(1.234, 4.567))
    frame = build_frame(probe, dominant_direction(probe.n))
    return expansion_at_plane([frame], [CubicSurfaceModel.from_probe(probe)],
                              [0.02])


def cubic_term(model, y):
    """The cubic term B of the model's height function at y (..., 2)."""
    return _cubic(model.f3, y[..., 0], y[..., 1])


def cubic_gradient(model, y):
    """C = grad B at y (..., 2), stacked along the last axis."""
    return np.stack(_cubic_gradient(model.f3, y[..., 0], y[..., 1]), axis=-1)


class MatrixFormExpansion:
    """One plane's s0 and s1, and the building blocks chi0, chi1, xi0, xi1,
    xitilde1, psi0 and psi1 they are assembled from, with the operators as
    2x2 matrix products, as `kernels3d.KernelExpansion` formed them before
    it wrote its diagonal products out per coordinate (see its
    docstring)."""

    def __init__(self, frame, model, eta: float):
        self.eta = float(eta)
        self.model = model
        M = np.diag([model.kappa1, model.kappa2])
        D0 = np.diag(1.0 / (1.0 - self.eta * np.array([model.kappa1,
                                                        model.kappa2])))
        A, self.d = frame.A, frame.d
        self.M, self.D0, self.A = M, D0, A
        self.D0A = D0 @ A
        self.chi1_lin = D0 @ D0 @ M @ A
        self.xi0_quad = A.T @ D0 @ M @ D0 @ A
        self.xi1_quad = M.T @ D0.T @ D0.T @ M @ D0
        self.xit_quad = D0 @ M @ D0 @ D0 @ M

    def chi0(self, y):
        return y @ self.D0A.T

    def chi1(self, y):
        w = y @ self.D0A.T
        lead = (y @ self.d)[..., None] * (y @ self.chi1_lin.T)
        return lead + self.eta * (cubic_gradient(self.model, w) @ self.D0.T)

    def xi0(self, y):
        return 0.5 * np.einsum("...i,ij,...j->...", y, self.xi0_quad, y)

    def xi1(self, y):
        w = y @ self.D0A.T
        dc = cubic_gradient(self.model, w) @ self.D0.T
        mw = w @ self.M.T
        t1 = 0.5 * self.eta * np.sum(dc * mw, axis=-1)
        t2 = 0.5 * self.eta * np.sum(w * (dc @ self.M.T), axis=-1)
        z = y @ self.A.T
        t4 = (y @ self.d) * np.einsum("...i,ij,...j->...", z, self.xi1_quad, z)
        return t1 + t2 + cubic_term(self.model, w) + t4

    def xitilde1(self, y):
        w = y @ self.D0A.T
        dc = cubic_gradient(self.model, w) @ self.D0.T
        mw = w @ self.M.T
        bracket = (np.sum(dc * mw, axis=-1)
                   - np.sum(w * (dc @ self.M.T), axis=-1))
        z = y @ self.A.T
        op = self.D0.T @ (np.eye(2) + self.eta * self.M @ self.D0)
        t3 = np.sum(z * (cubic_gradient(self.model, w) @ op.T), axis=-1)
        t4 = (y @ self.d) * np.einsum("...i,ij,...j->...", z, self.xit_quad, z)
        return 0.5 * self.eta * bracket - cubic_term(self.model, w) + t3 + t4

    def psi0(self, y):
        return np.linalg.norm(self.chi0(y), axis=-1)

    def psi1(self, y):
        chi0 = self.chi0(y)
        return np.sum(chi0 * self.chi1(y), axis=-1) / np.linalg.norm(chi0,
                                                                     axis=-1)

    def s0_eval(self, kind, y):
        pref = 1.0 / (4.0 * np.pi)
        if kind == "SL":
            return pref / self.psi0(y)
        return pref * self.xi0(y) / self.psi0(y) ** 3

    def s1_eval(self, kind, y):
        pref = 1.0 / (4.0 * np.pi)
        p0, p1 = self.psi0(y), self.psi1(y)
        if kind == "SL":
            return -pref * p1 / p0 ** 2
        xi = self.xi1(y) if kind == "DLC" else self.xitilde1(y)
        return pref * (-3.0 * self.xi0(y) * p1 / p0 ** 4 + xi / p0 ** 3)


def lattice_mode_sums_complex(k, alpha, beta, h, modes, monos, stencil_offsets):
    """`weights._lattice_mode_sums` with its products formed as complex
    multiplies: the reference its real-multiply form is compared with.  It
    reads `weights.SUM_TILE_NODES` at call time, so both tile alike."""
    K = int(np.ceil(DEFAULT_BUMP.R / h)) + 3
    n1 = np.arange(-K, K + 1, dtype=np.int64)
    ncols = n1.size
    res = np.zeros((len(modes), len(monos)), dtype=_CLD)
    comp = np.zeros_like(res)
    tile = max(1, weights.SUM_TILE_NODES // ncols)
    mmax = max((m for _, m in modes), default=0)
    mode_rows = {}
    for mi, (_, m) in enumerate(modes):
        mode_rows.setdefault(m, []).append(mi)
    amax = max(a for a, _ in monos)
    bmax = max(b for _, b in monos)
    for i0 in range(0, ncols, tile):
        nn1 = n1[i0:i0 + tile]
        u1 = (nn1[:, None].astype(_LD) - _LD(alpha)) + np.zeros((1, ncols), dtype=_LD)
        u2 = np.zeros((nn1.size, 1), dtype=_LD) + (n1[None, :].astype(_LD) - _LD(beta))
        rr = np.hypot(u1, u2)
        g = DEFAULT_BUMP((h * rr).astype(_LD))
        live = g > 0
        if not live.any():
            continue
        u1l, u2l, rl, gl = u1[live], u2[live], rr[live], g[live]
        ii = (nn1[:, None] + np.zeros((1, ncols), np.int64))[live]
        jj = (np.zeros((nn1.size, 1), np.int64) + n1[None, :])[live]
        mask = np.ones(rl.shape, bool)
        for (sa, sb) in stencil_offsets:
            mask &= ~((ii == sa) & (jj == sb))
        rl_safe = np.where(mask, rl, _LD(1))
        base = np.where(mask, gl * rl_safe ** _LD(k - 1), _LD(0))
        # powers of the monomial factors
        u1p = [np.ones_like(u1l)]
        for _ in range(amax):
            u1p.append(u1p[-1] * u1l)
        u2p = [np.ones_like(u2l)]
        for _ in range(bmax):
            u2p.append(u2p[-1] * u2l)
        monov = [base * u1p[a] * u2p[b] for (a, b) in monos]
        zz = np.where(mask, (u1l + 1j * u2l) / rl_safe, _CLD(0))
        zm = np.ones_like(zz)
        for m in range(0, mmax + 1):
            if m > 0:
                zm = zm * zz
            if m not in mode_rows:
                continue
            for jj_m in range(len(monos)):
                v = np.sum(monov[jj_m] * zm)
                for mi in mode_rows[m]:
                    y = v - comp[mi, jj_m]
                    t = res[mi, jj_m] + y
                    comp[mi, jj_m] = (t - res[mi, jj_m]) - y
                    res[mi, jj_m] = t
    return res


def projection_jacobian_einsum(feet: np.ndarray, step: float) -> np.ndarray:
    """`geometry.projection_jacobian` as one einsum over the feet block: the
    reference its stencil-at-a-time form is compared with."""
    vals = np.asarray(feet, dtype=float)  # (..., axis a, node, comp c)
    DP = np.einsum("...akc,k->...ca", vals, _JAC_FD1) / step  # dP_c/dx_a
    S = 0.5 * (DP + np.swapaxes(DP, -1, -2))
    return (S[..., 0, 0] * S[..., 1, 1] - S[..., 0, 1] ** 2
            + S[..., 0, 0] * S[..., 2, 2] - S[..., 0, 2] ** 2
            + S[..., 1, 1] * S[..., 2, 2] - S[..., 1, 2] ** 2)


def kernel_values_einsum(kind: str | tuple[str, ...], xstar: np.ndarray,
                         nstar: np.ndarray, foot: np.ndarray,
                         normal: np.ndarray) -> np.ndarray:
    """`kernels3d.kernel_values` with P(y) - x* as one (N, 3) array and its
    dot products by einsum: the reference its per-coordinate form is
    compared with."""
    kinds = (kind,) if isinstance(kind, str) else tuple(kind)
    for k in kinds:
        if k not in KERNEL_KINDS:
            raise ValueError(f"kind must be one of {KERNEL_KINDS}, got {k!r}")
    diff = foot - xstar
    r = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    hit = r < EXACT_HIT_RADIUS
    out = np.empty((len(kinds), r.shape[0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        if "DL" in kinds or "DLC" in kinds:
            four_pi_r3 = 4.0 * np.pi * r ** 3
        for row, k in zip(out, kinds):
            if k == "SL":
                val = 1.0 / (4.0 * np.pi * r)
            elif k == "DL":
                val = -np.einsum("ij,ij->i", diff, normal) / four_pi_r3
            else:  # DLC
                val = diff @ nstar / four_pi_r3
            row[:] = np.where(hit, 0.0, val)
    return out[0] if isinstance(kind, str) else out


def scan_band_ravel(surface, origin: np.ndarray, h: float, shape,
                    width: float) -> tuple[np.ndarray, np.ndarray]:
    """`ibim3d._scan_band` with (M, 3) lattice triples, positions
    origin + h * index and `np.ravel_multi_index`: the reference its
    key-arithmetic form is compared with."""
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


def torus_foot_and_normal_stacked(torus, x: np.ndarray
                                  ) -> tuple[np.ndarray, np.ndarray]:
    """`TiltedTorus.foot_and_normal` with the nearest center-circle point
    and the offset from it as (..., 3) stacks and |v| by `np.linalg.norm`:
    the reference its coordinate-column form is compared with.  Its first
    output is the reference for `project`, its second for `normal`."""
    u = torus.to_local(x)
    rho = np.hypot(u[..., 0], u[..., 1])
    if np.any(rho < 1e-12):
        raise NonUniqueProjectionError(
            "point on the torus symmetry axis has no unique closest point")
    scale = torus.spec.R1 / rho
    ring = np.stack([u[..., 0] * scale, u[..., 1] * scale,
                     np.zeros_like(rho)], axis=-1)
    v = u - ring
    vnorm = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(vnorm < 1e-12):
        raise NonUniqueProjectionError(
            "point on the tube center circle has no unique closest point")
    return (torus.to_world(ring + v * (torus.spec.R2 / vnorm)),
            (v / vnorm) @ torus._rot.T)


def torus_density_from_angles(torus, x: np.ndarray,
                              coefficients=None) -> np.ndarray:
    """`TiltedTorus.density_at` from the atan2 angles of the closest point
    and `torus_density`'s trig: the reference its trig-free form is
    compared with."""
    theta, phi = torus_parameters(torus, x)
    return torus_density(theta, phi, coefficients)


# ---------------------------------------------------------------------------
# exact probes: tilted torus and sphere
# ---------------------------------------------------------------------------

def torus_exact_probe(torus, x: np.ndarray) -> SurfaceProbe:
    """Exact local geometry (frame + curvatures) at the torus point closest to x.

    Curvatures follow the local-graph convention: the surface is written
    as a height function over the tangent plane with height measured along
    the outward normal, and kappa_i are the eigenvalues of that height
    function's Hessian.  A convex-outward surface (sphere, outer side of
    the tube) therefore has negative curvatures.  kappa1 <= kappa2, and
    (tau1, tau2, n) is right-handed with the same deterministic sign
    canonicalization used by the finite-difference probe.
    """
    p = torus.project(x)
    theta, phi = torus_parameters(torus, p)
    fr = torus.param_frame(theta, phi)
    k_tube = -1.0 / torus.spec.R2
    k_ring = -np.cos(theta) / (torus.spec.R1 + torus.spec.R2 * np.cos(theta))
    pairs = sorted([(float(k_tube), fr["t_theta"]), (float(k_ring), fr["t_phi"])],
                   key=lambda kv: kv[0])
    (k1, t1), (k2, _) = pairs
    tau1, tau2, n = canonical_tangent_frame(t1, fr["normal"])
    return SurfaceProbe(xstar=p, tau1=tau1, tau2=tau2, n=n,
                        kappa1=k1, kappa2=k2, f3=None)


class Sphere:
    """Sphere level set; the exact-answer oracle surface."""

    def __init__(self, radius: float, center=(0.0, 0.0, 0.0)):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)
        self.center = np.asarray(center, dtype=float)
        self.reach = self.radius

    def _offset(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v = np.asarray(x, dtype=float) - self.center
        r = np.linalg.norm(v, axis=-1)
        if np.any(r < 1e-12):
            raise NonUniqueProjectionError("sphere center has no unique closest point")
        return v, r

    def distance(self, x: np.ndarray) -> np.ndarray:
        v = np.asarray(x, dtype=float) - self.center
        return np.linalg.norm(v, axis=-1) - self.radius

    def project(self, x: np.ndarray) -> np.ndarray:
        v, r = self._offset(x)
        return self.center + v * (self.radius / r)[..., None]

    def normal(self, x: np.ndarray) -> np.ndarray:
        v, r = self._offset(x)
        return v / r[..., None]

    def foot_and_normal(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v, r = self._offset(x)
        return (self.center + v * (self.radius / r)[..., None],
                v / r[..., None])

    @property
    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.center - self.radius, self.center + self.radius

    def exact_probe(self, x: np.ndarray):
        p = self.project(x)
        n = self.normal(p)
        # umbilic point: any tangent direction is principal; use the same
        # deterministic tie-break as the finite-difference probe
        seed = np.array([1.0, 0.0, 0.0])
        if abs(n[0]) > 1.0 - 1e-6:
            seed = np.array([0.0, 1.0, 0.0])
        t1 = seed - n * (seed @ n)
        tau1, tau2, n = canonical_tangent_frame(t1, n)
        k = -1.0 / self.radius
        return SurfaceProbe(xstar=p, tau1=tau1, tau2=tau2, n=n,
                            kappa1=k, kappa2=k, f3=(0.0, 0.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# graph of a cubic polynomial (local patch for probe validation)
# ---------------------------------------------------------------------------

class CubicGraph:
    """Local surface patch z = q(x, y), q a polynomial with q(0)=|grad q(0)|=0.

    q(x, y) = 0.5*(k1*x^2 + k2*y^2) + c30*x^3 + c21*x^2*y + c12*x*y^2 + c03*y^3.
    The closest-point projection is found by Newton iteration on the in-plane
    coordinates, which converges for points close to the patch center when the
    coefficients are small.  Intended for validating geometry probes against
    known derivatives, not as a closed test surface.
    """

    def __init__(self, k1: float, k2: float, c30: float, c21: float,
                 c12: float, c03: float):
        self.k1, self.k2 = float(k1), float(k2)
        self.c30, self.c21, self.c12, self.c03 = map(float, (c30, c21, c12, c03))
        self.reach = 1.0

    def height(self, x, y):
        return (0.5 * (self.k1 * x * x + self.k2 * y * y)
                + self.c30 * x**3 + self.c21 * x * x * y
                + self.c12 * x * y * y + self.c03 * y**3)

    def slope(self, x, y):
        gx = self.k1 * x + 3 * self.c30 * x * x + 2 * self.c21 * x * y + self.c12 * y * y
        gy = self.k2 * y + self.c21 * x * x + 2 * self.c12 * x * y + 3 * self.c03 * y * y
        return gx, gy

    def _curvature_terms(self, x, y):
        qxx = self.k1 + 6 * self.c30 * x + 2 * self.c21 * y
        qyy = self.k2 + 2 * self.c12 * x + 6 * self.c03 * y
        qxy = 2 * self.c21 * x + 2 * self.c12 * y
        return qxx, qxy, qyy

    def _foot(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """In-plane coordinates of the closest graph point under each input."""
        p = np.asarray(p, dtype=float)
        x = np.array(p[..., 0], dtype=float, copy=True)
        y = np.array(p[..., 1], dtype=float, copy=True)
        step = np.inf
        for _ in range(60):
            q = self.height(x, y)
            gx, gy = self.slope(x, y)
            rz = q - p[..., 2]
            # gradient of 0.5*|(x, y, q(x, y)) - p|^2 in (x, y)
            f1 = x - p[..., 0] + rz * gx
            f2 = y - p[..., 1] + rz * gy
            qxx, qxy, qyy = self._curvature_terms(x, y)
            j11 = 1.0 + gx * gx + rz * qxx
            j12 = gx * gy + rz * qxy
            j22 = 1.0 + gy * gy + rz * qyy
            det = j11 * j22 - j12 * j12
            dx = (j22 * f1 - j12 * f2) / det
            dy = (j11 * f2 - j12 * f1) / det
            x -= dx
            y -= dy
            step = float(np.max(np.hypot(dx, dy)))
            if step < 1e-15:
                break
        if step > 1e-10:
            raise NonUniqueProjectionError(
                f"projection onto the graph did not converge (last step {step:.2e})")
        return x, y

    def project(self, p: np.ndarray) -> np.ndarray:
        x, y = self._foot(p)
        return np.stack([x, y, self.height(x, y)], axis=-1)

    def distance(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        foot = self.project(p)
        gap = p - foot
        side = np.sign(p[..., 2] - self.height(p[..., 0], p[..., 1]))
        return side * np.linalg.norm(gap, axis=-1)

    def normal(self, p: np.ndarray) -> np.ndarray:
        x, y = self._foot(p)
        gx, gy = self.slope(x, y)
        n = np.stack([-gx, -gy, np.ones_like(gx)], axis=-1)
        return n / np.linalg.norm(n, axis=-1, keepdims=True)
