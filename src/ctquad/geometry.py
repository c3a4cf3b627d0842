"""Local surface geometry probes built from distance and closest-point data.

Everything the singular quadrature needs to know about a surface near one
target point is collected in a `SurfaceProbe`: an orthonormal principal frame
(tau1, tau2, n), the principal curvatures (kappa1 <= kappa2), and the third
derivatives of the local height function.  Conventions:

* the surface is written locally as a graph w = f(y1, y2) over its tangent
  plane, with the height w measured along the outward unit normal n; kappa_i
  are the eigenvalues of the quadratic part, so a sphere with outward normal
  has kappa = -1/R;
* level sets of the signed distance at offset eta carry curvatures g_i in
  the convention that the distance Hessian has eigenvalues (0, -g1, -g2)
  (sphere at offset eta: g = -1/(R + eta));
* the two conventions are linked by kappa_i = g_i / (1 + eta*g_i), and the
  area element ratio between the surface and its offset at eta is
  J = (1 + eta*g1)(1 + eta*g2) = 1 + 2*eta*H + eta^2*G.

All derivatives are taken with fourth-order central finite differences of
either the signed distance or the closest-point map, so any handle with the
interface documented in `surfaces` works — no parametrization is needed.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "SurfaceProbe",
    "surface_probe",
    "hessian_eigenframe",
    "curvature_transfer",
    "third_derivatives",
    "JACOBIAN_STENCIL",
    "displaced_feet",
    "projection_jacobian",
    "stencil_area_ratio",
    "canonical_tangent_frame",
]

# five-point central stencils on offsets (-2, -1, 0, 1, 2); both rules have
# fourth-order accuracy
_OFFSETS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
_FD1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0  # h * f'(0)
_FD2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0  # h^2 * f''(0)
_FD0 = np.array([0.0, 0.0, 1.0, 0.0, 0.0])  # evaluation at 0

# displacements, in steps along each axis, of the points whose projections
# projection_jacobian differences: the first-derivative stencil without its
# zero-weight centre, with its weights
JACOBIAN_STENCIL = (-2, -1, 1, 2)
_JAC_FD1 = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0


def _lattice_values(f, center: np.ndarray, h: float) -> np.ndarray:
    """Evaluate f on the 5x5x5 lattice center + (i, j, k)*h, i,j,k in -2..2.

    f maps (..., 3) -> (...) or (..., m); the returned array has shape
    (5, 5, 5) or (5, 5, 5, m).
    """
    grid = _OFFSETS * h
    I, J, K = np.meshgrid(grid, grid, grid, indexing="ij")
    pts = np.stack([I, J, K], axis=-1) + np.asarray(center, dtype=float)
    vals = np.asarray(f(pts.reshape(-1, 3)))
    return vals.reshape(5, 5, 5, *vals.shape[1:])


def _tensor_gradient(vals: np.ndarray, h: float) -> np.ndarray:
    """Gradient at the lattice center from 5x5x5 scalar samples."""
    return np.stack([
        np.einsum("ijk,i,j,k->", vals, _FD1, _FD0, _FD0),
        np.einsum("ijk,i,j,k->", vals, _FD0, _FD1, _FD0),
        np.einsum("ijk,i,j,k->", vals, _FD0, _FD0, _FD1),
    ]) / h


def _tensor_hessian(vals: np.ndarray, h: float) -> np.ndarray:
    """Hessian at the lattice center from 5x5x5 scalar samples."""
    H = np.empty((3, 3))
    for a in range(3):
        for b in range(a, 3):
            rules = [_FD0, _FD0, _FD0]
            if a == b:
                rules[a] = _FD2
            else:
                rules[a] = _FD1
                rules[b] = _FD1
            H[a, b] = H[b, a] = np.einsum("ijk,i,j,k->", vals, *rules)
    return H / h**2


def canonical_tangent_frame(t1_seed: np.ndarray, n: np.ndarray):
    """Deterministic right-handed orthonormal frame from a tangent seed.

    The seed is projected off the normal and normalized; its sign is fixed by
    making its largest-magnitude component positive; tau2 = n x tau1 completes
    a right-handed (tau1, tau2, n) triple.
    """
    n = np.asarray(n, dtype=float)
    n = n / np.linalg.norm(n)
    t1 = np.asarray(t1_seed, dtype=float)
    t1 = t1 - n * (t1 @ n)
    norm = np.linalg.norm(t1)
    if norm < 1e-12:
        raise ValueError("tangent seed is parallel to the normal")
    t1 = t1 / norm
    if t1[np.argmax(np.abs(t1))] < 0:
        t1 = -t1
    return t1, np.cross(n, t1), n


def hessian_eigenframe(distance, zbar: np.ndarray, h: float):
    """Level-set frame and curvatures from the distance Hessian at zbar.

    Returns (g1, g2, tau1, tau2, n): the outward unit normal n (aligned with
    the distance gradient), the level-set principal curvatures g1 <= g2 in
    the (0, -g1, -g2) eigenvalue convention, and principal directions tau1
    (paired with g1) and tau2 = n x tau1.  At an umbilic point
    (|g1 - g2| < 1e-8) the directions are arbitrary, and tau1 is fixed
    deterministically as the projection of e_x (or e_y if that degenerates).
    The gradient and the Hessian come from one sample of the distance on
    the 5x5x5 lattice of spacing h around zbar.
    """
    zbar = np.asarray(zbar, dtype=float)
    vals = _lattice_values(distance, zbar, h)
    grad = _tensor_gradient(vals, h)
    grad = grad / np.linalg.norm(grad)
    hess = _tensor_hessian(vals, h)
    lam, vec = np.linalg.eigh(hess)

    i_n = int(np.argmax(np.abs(vec.T @ grad)))
    n = vec[:, i_n] * np.sign(vec[:, i_n] @ grad)
    rest = [i for i in range(3) if i != i_n]
    gs = -lam[rest]
    order = np.argsort(gs)
    g1, g2 = float(gs[order[0]]), float(gs[order[1]])
    t1 = vec[:, rest[order[0]]]

    if abs(g1 - g2) < 1e-8:
        seed = np.array([1.0, 0.0, 0.0])
        if abs(n @ seed) > 1.0 - 1e-6:
            seed = np.array([0.0, 1.0, 0.0])
        t1 = seed
    tau1, tau2, n = canonical_tangent_frame(t1, n)
    return g1, g2, tau1, tau2, n


def curvature_transfer(g1: float, g2: float, eta: float):
    """Map level-set curvatures at offset eta to foot-point curvatures.

    kappa_i = g_i / (1 + eta*g_i); the map is monotone, so the g-order and
    kappa-order agree.  Blows up when 1 + eta*g_i vanishes (the offset
    reaches the center of curvature), which is rejected.
    """
    kappas = []
    for g in (g1, g2):
        denom = 1.0 + eta * g
        if abs(denom) < 1e-12:
            raise ValueError(
                f"offset eta={eta} reaches the curvature center (g={g})")
        kappas.append(g / denom)
    return kappas[0], kappas[1]


def third_derivatives(project, zbar: np.ndarray, xstar: np.ndarray,
                      tau1: np.ndarray, tau2: np.ndarray, n: np.ndarray,
                      kappa1: float, kappa2: float, h: float):
    """Third derivatives (fxxx, fxxy, fxyy, fyyy) of the local height function,
    and the spread of the mixed ones across their routes.

    The surface is the graph w = f(y1, y2) over the tangent plane at xstar
    (frame tau1, tau2, n; curvatures kappa_i pair with tau_i).  Near a probe
    point zbar away from the surface, the in-plane components of the
    closest-point map determine f's cubic coefficients: differentiating
    X = tau1.(P - xstar) and Y = tau2.(P - xstar) at zbar and contracting
    with the tangent frame gives two 4x4 linear systems whose right-hand
    sides are the contracted second derivatives scaled by (1 - z'*kappa_i)/z',
    where z' = n.(zbar - xstar) is the height of the probe point.

    Fourth-order finite differences of P on a 5x5x5 lattice of spacing h
    supply all the derivative data.  The two systems over-determine the mixed
    derivatives, which are averaged over their three routes each; the larger
    of the two ranges (max - min) is returned as the spread.  It measures how
    well the lattice resolves the surface, and falls with h at the order of
    the differences.
    """
    zbar = np.asarray(zbar, dtype=float)
    xstar = np.asarray(xstar, dtype=float)
    zprime = float(n @ (zbar - xstar))
    if abs(zprime) < 1e-4:
        raise ValueError(
            f"probe point is too close to the surface (z'={zprime:.2e}); "
            "third-derivative recovery needs a finite offset")

    vals = _lattice_values(project, zbar, h)  # (5, 5, 5, 3)
    X = (vals - xstar) @ tau1
    Y = (vals - xstar) @ tau2
    W1 = _tensor_gradient(X, h)
    W2 = _tensor_gradient(Y, h)
    W3 = _tensor_hessian(X, h)
    W4 = _tensor_hessian(Y, h)

    h1x, h1y = tau1 @ W1, tau2 @ W1
    h2x, h2y = tau1 @ W2, tau2 @ W2
    h1xx, h1xy = tau1 @ W3 @ tau1, tau2 @ W3 @ tau1
    h1yx, h1yy = tau1 @ W3 @ tau2, tau2 @ W3 @ tau2
    h2xx, h2xy = tau1 @ W4 @ tau1, tau2 @ W4 @ tau1
    h2yx, h2yy = tau1 @ W4 @ tau2, tau2 @ W4 @ tau2

    V = np.array([
        [h1x * h1x, h1x * h2x, h1x * h2x, h2x * h2x],
        [h1x * h1y, h1x * h2y, h1y * h2x, h2x * h2y],
        [h1x * h1y, h1y * h2x, h1x * h2y, h2x * h2y],
        [h1y * h1y, h1y * h2y, h1y * h2y, h2y * h2y],
    ])
    cond = np.linalg.cond(V)
    if cond > 1e10:
        raise ValueError(
            f"third-derivative system is ill conditioned (cond={cond:.2e}); "
            "the probe frame does not match the surface here")

    rhs1 = (1.0 - zprime * kappa1) / zprime * np.array([h1xx, h1xy, h1yx, h1yy])
    rhs2 = (1.0 - zprime * kappa2) / zprime * np.array([h2xx, h2xy, h2yx, h2yy])
    s1 = np.linalg.solve(V, rhs1)  # (fxxx, fxxy, fxyx, fxyy)
    s2 = np.linalg.solve(V, rhs2)  # (fyxx, fyxy, fyyx, fyyy)

    fxxy_all = np.array([s1[1], s1[2], s2[0]])
    fxyy_all = np.array([s1[3], s2[1], s2[2]])
    spread = max(np.ptp(fxxy_all), np.ptp(fxyy_all))
    return ((float(s1[0]), float(np.mean(fxxy_all)),
             float(np.mean(fxyy_all)), float(s2[3])), float(spread))


def displaced_feet(project, points: np.ndarray, step: float) -> np.ndarray:
    """Projections of the 12 points that projection_jacobian differences.

    For each point x the closest-point map is evaluated at x + s * step * e_a
    for every axis a and every s in JACOBIAN_STENCIL.  Returns shape
    (..., 3, 4, 3): axis a, stencil node, foot component.
    """
    pts = np.asarray(points, dtype=float)
    ks = np.array(JACOBIAN_STENCIL, dtype=float)
    disp = np.zeros((3, len(ks), 3))
    for a in range(3):
        disp[a, :, a] = ks * step
    vals = np.asarray(project(
        (pts[..., None, :] + disp.reshape(-1, 3)).reshape(-1, 3)))
    return vals.reshape(*pts.shape[:-1], 3, len(ks), 3)


def projection_jacobian(feet: np.ndarray, step: float) -> np.ndarray:
    """Area-element ratio dsigma_surface / dsigma_offset at tube points.

    ``feet`` holds, for each point, the projections laid out as by
    displaced_feet: shape (..., 3, 4, 3).  Differentiates the closest-point
    map with those fourth-order differences, symmetrizes, and sums the three
    2x2 principal minors.  The Jacobian of P kills the normal direction, so
    that sum equals the product of the two in-plane stretch factors — the
    exact area ratio between the level set through each point and the
    surface.  Vectorized over leading axes.
    """
    vals = np.asarray(feet, dtype=float)  # (..., axis a, node, comp c)
    return stencil_area_ratio(lambda a, k: vals[..., a, k, :], step)


def stencil_area_ratio(foot_at, step: float) -> np.ndarray:
    """projection_jacobian's area ratio, the feet fetched by ``foot_at(a, k)``:
    the (..., 3) projections of the points JACOBIAN_STENCIL[k] steps along
    axis a.  A caller holding the feet elsewhere (the tube's lattice feet)
    never lays out the (..., 3, 4, 3) block.  Each derivative sums its
    stencil nodes in order; the minors are formed on contiguous columns.
    """
    columns = []  # columns[a][c] = dP_c/dx_a
    for a in range(3):
        acc = foot_at(a, 0) * _JAC_FD1[0]
        for k in range(1, len(JACOBIAN_STENCIL)):
            acc += foot_at(a, k) * _JAC_FD1[k]
        acc /= step
        columns.append(np.ascontiguousarray(np.moveaxis(acc, -1, 0)))
    # upper triangle of S = (DP + DP^T) / 2, row by row
    (s00, s01, s02), (s11, s12), (s22,) = (
        [0.5 * (columns[b][a] + columns[a][b]) for b in range(a, 3)]
        for a in range(3))
    return (s00 * s11 - s01 ** 2 + s00 * s22 - s02 ** 2
            + s11 * s22 - s12 ** 2)


@dataclasses.dataclass(frozen=True)
class SurfaceProbe:
    """Local geometry of a surface at one on-surface point.

    xstar is on the surface; (tau1, tau2, n) is a right-handed orthonormal
    frame with n the outward normal; kappa1 <= kappa2 are the principal
    curvatures in the height-function convention (sphere: -1/R), paired with
    tau1/tau2; f3 = (fxxx, fxxy, fxyy, fyyy) are the third derivatives of the
    height function, or None if not yet computed; f3_spread is the spread of
    the mixed ones across their routes (see `third_derivatives`), or None
    where f3 did not come from differences.
    """

    xstar: np.ndarray
    tau1: np.ndarray
    tau2: np.ndarray
    n: np.ndarray
    kappa1: float
    kappa2: float
    f3: tuple[float, float, float, float] | None
    f3_spread: float | None = None


def surface_probe(surface, xstar: np.ndarray, *, h: float | None = None,
                  probe_distance: float | None = None) -> SurfaceProbe:
    """Build the full local geometry probe at the surface point nearest xstar.

    Everything comes from finite differences of the handle's distance and
    projection (step h, offset probe_distance along the normal).  Defaults:
    probe_distance = reach/4, h = reach/100.
    """
    reach = surface.reach
    if probe_distance is None:
        probe_distance = 0.25 * reach
    if h is None:
        h = 0.01 * reach
    xstar = surface.project(np.asarray(xstar, dtype=float))
    n0 = np.asarray(surface.normal(xstar), dtype=float)
    zbar = xstar + probe_distance * n0
    eta = float(surface.distance(zbar))
    g1, g2, tau1, tau2, n = hessian_eigenframe(surface.distance, zbar, h)
    kappa1, kappa2 = curvature_transfer(g1, g2, eta)
    f3, spread = third_derivatives(surface.project, zbar, xstar, tau1, tau2,
                                   n, kappa1, kappa2, h)
    return SurfaceProbe(xstar=xstar, tau1=tau1, tau2=tau2, n=n,
                        kappa1=kappa1, kappa2=kappa2, f3=f3, f3_spread=spread)
