"""Acceptance gate: ten end-to-end criteria, one test (one pass/fail line) each.

Every test here drives the library the way a user would -- through the study
runners, the cached weight tables, and the documented entry points -- and
asserts the stated tolerance for its criterion.  Slow but decisive; the whole
module runs in roughly fifteen to twenty minutes on one CPU.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from ctquad.cli import (
    StudyConfig,
    general_benchmark_function,
    h_sequence,
    observed_order,
    run_ibim3d,
    run_quad2d,
    smooth_factor,
    successive_differences,
)
from ctquad.geometry import surface_probe
from ctquad.ibim3d import DELTA_NORMALIZATION, convergence_study_3d, delta_eps
from ctquad.kernels3d import (
    AXIS_PERMUTATION,
    CubicSurfaceModel,
    build_frame,
    expansion_at_plane,
    kernel_values,
)
from ctquad.quad_core import (
    SingularTerm,
    corrected_Qp,
    grid_values,
    grid_with_offset,
    locate_singularity,
    punctured_trapezoidal,
    stencil_for_order,
)
from ctquad.surfaces import (
    layer_potential_oracle,
    random_targets,
    tilted_torus,
    torus_density,
)
from ctquad.weights import (
    DEFAULT_BUMP,
    default_cache_dir,
    load_weight_table,
    moment_residual,
    row_term,
    weights_dual,
)
from ctquad.quad_core import GridOffset

from helpers import CubicGraph, analytic_probe, torus_exact_probe

ORDER_TOL = 0.35


@pytest.fixture(scope="module")
def torus():
    return tilted_torus()


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------

def dominant_axis(n):
    if n[0] ** 2 + n[1] ** 2 < 2 * n[2] ** 2:
        return "z"
    return "y" if abs(n[1]) >= abs(n[0]) else "x"


def world_from_plane(origin, axis, y):
    perm = list(AXIS_PERMUTATION[axis])
    inv = list(np.argsort(perm))
    y = np.asarray(y, dtype=float)
    padded = np.concatenate([y, np.zeros(y.shape[:-1] + (1,))], axis=-1)
    return (np.asarray(origin)[perm] + padded)[..., inv]


# --------------------------------------------------------------------------
# 1. single-term corrected rules reach order k+p+1
# --------------------------------------------------------------------------

def test_a01_corrected_rule_orders_single_term():
    cfg = StudyConfig(study="quad2d-sk", h0=0.4, ratio=1.5, count=10,
                      k_values=(0, 1, 2), p_values=(1, 2, 3, 4))
    res = run_quad2d(cfg)
    lines = []
    for s in res["summary"]:
        got, want = s["observed_order"], s["expected_order"]
        lines.append(f"k={s['k']} {s['method']}: observed {got:.3f} "
                     f"expected {want}")
        assert abs(got - want) <= ORDER_TOL, lines[-1]
    print("[criterion 1] PASS\n  " + "\n  ".join(lines))


# --------------------------------------------------------------------------
# 2. composite rules on the full singular function reach order p
# --------------------------------------------------------------------------

def test_a02_composite_rule_orders_general_function():
    cfg = StudyConfig(study="quad2d-general", h0=0.4, ratio=1.5, count=12,
                      p_values=(2, 3, 4, 5))
    res = run_quad2d(cfg)
    lines = []
    for s in res["summary"]:
        got, want = s["observed_order"], s["expected_order"]
        lines.append(f"{s['method']}: observed {got:.3f} expected {want}")
        assert abs(got - want) <= ORDER_TOL, lines[-1]
    methods = {s["method"] for s in res["summary"]}
    assert methods == {"punctured", "composite-2", "composite-3",
                       "composite-4", "composite-5"}
    print("[criterion 2] PASS\n  " + "\n  ".join(lines))


# --------------------------------------------------------------------------
# 3. every cached weight table satisfies its moment equations at h*
# --------------------------------------------------------------------------

@pytest.mark.usefixtures("table02", "table11")
def test_a03_tabulated_weights_satisfy_moment_equations():
    paths = sorted(Path(default_cache_dir()).glob("ctwt_*.ctwt"))
    assert paths, "no weight tables cached; build them with `ctquad weights build`"
    covered = set()
    lines = []
    for path in paths:
        t = load_weight_table(str(path))
        covered.add((t.k, t.p))
        stencil = stencil_for_order(t.p)
        rng = np.random.default_rng(100 + 10 * t.k + t.p)
        idx = rng.integers(0, t.grid_n, size=(10, 2))
        worst = 0.0
        for mi, ni in idx:
            off = GridOffset(t.domain_lo + mi * t.step,
                             t.domain_lo + ni * t.step, (0, 0))
            for row in range(t.n_rows):
                term = row_term(t.k, row)
                hstar = 2.0 ** -int(t.m_levels[row, mi, ni])
                res = moment_residual(term, off, stencil,
                                      t.data[row, mi, ni], hstar)
                worst = max(worst, float(np.max(np.abs(res))))
        lines.append(f"(k={t.k}, p={t.p}): max residual {worst:.2e}"
                     f" vs 10*tol={10 * t.tol:.0e}")
        assert worst <= 10.0 * t.tol, lines[-1]
    # the plane-by-plane 3D assembly needs these two at minimum
    assert {(0, 2), (1, 1)} <= covered
    print(f"[criterion 3] PASS over {sorted(covered)}\n  " + "\n  ".join(lines))


# --------------------------------------------------------------------------
# 4. punctured-rule order ladder: |x|^j window family and series remainders
# --------------------------------------------------------------------------

def test_a04_punctured_rule_power_family_and_remainders():
    lines = []

    # (a) radial powers against an independent polar oracle
    bump = DEFAULT_BUMP
    hs = h_sequence(0.25, 1.5, 9)
    for j in (-1, 0, 1, 2):
        exact = 2.0 * math.pi * quad(
            lambda r: r ** (j + 1) * float(bump(r)), 0.0, bump.R,
            points=[bump.r0], epsabs=1e-14, epsrel=1e-13, limit=200)[0]

        def f(x, y, j=j):
            r = np.hypot(x, y)
            return r ** j * bump(r)

        errs = []
        for h in hs:
            grid = grid_with_offset(h, 1.2, (0.0, 0.0), 0.81, 0.46)
            val = punctured_trapezoidal(
                grid_values(f, grid), grid,
                [locate_singularity((0.0, 0.0), grid, 1)[1].anchor])
            errs.append(abs(val - exact))
        got = observed_order(errs, hs)
        lines.append(f"|x|^{j} window: observed {got:.3f} expected {j + 2}")
        assert abs(got - (j + 2)) <= ORDER_TOL, lines[-1]

    # (b) remainders of the benchmark singular function gain one order per
    # subtracted term
    s = general_benchmark_function()
    hs = h_sequence(0.4, 1.5, 9)
    for q in (0, 1, 2):
        def f(x, y, q=q):
            return s.remainder(q, x, y) * smooth_factor(x, y)

        vals = []
        for h in hs:
            grid = grid_with_offset(h, 1.7, (0.0, 0.0), 0.81, 0.46)
            vals.append(punctured_trapezoidal(
                grid_values(f, grid), grid,
                [locate_singularity((0.0, 0.0), grid, 1)[1].anchor]))
        errs = successive_differences(vals)
        got = observed_order(errs, hs)
        lines.append(f"remainder q={q}: observed {got:.3f} expected {q + 2}")
        assert abs(got - (q + 2)) <= ORDER_TOL, lines[-1]

    print("[criterion 4] PASS\n  " + "\n  ".join(lines))


# --------------------------------------------------------------------------
# 5. on-grid singularity with a radial kernel gains an order by symmetry
# --------------------------------------------------------------------------

def test_a05_on_grid_symmetry_gains_an_order():
    term = SingularTerm.from_coefficients(0, 1.0)  # 1/|x|
    x0 = (0.0, 0.0)
    hs = h_sequence(0.4, 1.5, 10)
    g0 = grid_with_offset(hs[0], 1.7, x0, 0.0, 0.0)
    stencil, off = locate_singularity(x0, g0, 1)
    assert off.alpha == 0.0 and off.beta == 0.0
    w = weights_dual(term, off, stencil)
    vals = []
    for h in hs:
        grid = grid_with_offset(h, 1.7, x0, 0.0, 0.0)
        # x0 is the anchor node, where the value input holds +inf; it is
        # never summed
        fv = grid_values(lambda x, y: term.evaluate(x - x0[0], y - x0[1])
                         * smooth_factor(x, y), grid)
        vals.append(corrected_Qp(term, smooth_factor, x0, grid, 1, w, fv))
    errs = successive_differences(vals)
    got = observed_order(errs, hs)
    assert abs(got - 3.0) <= ORDER_TOL, f"observed {got:.3f}, expected 3"
    print(f"[criterion 5] PASS one-node rule on-grid: observed order "
          f"{got:.3f} (naive estimate 2, symmetry gives 3)")


# --------------------------------------------------------------------------
# 6. plane expansion matches the true kernel to first order
# --------------------------------------------------------------------------

def test_a06_kernel_expansion_consistency_on_torus(torus):
    dirs = np.stack([np.cos(2 * np.pi * np.arange(8) / 8),
                     np.sin(2 * np.pi * np.arange(8) / 8)], axis=-1)
    radii = np.array([1e-1 * 2.0 ** -j for j in range(8)])
    worst = math.inf
    for theta, phi in random_targets(5, seed=21):
        probe = analytic_probe(torus, torus.param_point(theta, phi))
        axis = dominant_axis(probe.n)
        frame = build_frame(probe, axis)
        model = CubicSurfaceModel.from_probe(probe)
        etas = (0.0, 0.04, -0.06)
        # the target's three planes, one batch
        ex = expansion_at_plane([frame] * 3, [model] * 3, etas)
        for row, eta in enumerate(etas):
            origin = probe.xstar + eta * probe.n
            for kind in ("SL", "DL", "DLC"):
                res = []
                for r in radii:
                    pts = world_from_plane(origin, axis, r * dirs)
                    s = kernel_values(kind, probe.xstar,
                                      torus.normal(probe.xstar),
                                      torus.project(pts), torus.normal(pts))
                    approx = (ex.s0_eval(kind, r * dirs)
                              + ex.s1_eval(kind, r * dirs))[row]
                    res.append(np.max(np.abs(s - approx)))
                logr, loge = np.log(radii[-5:]), np.log(res[-5:])
                slope = float(np.polyfit(logr, loge, 1)[0])
                worst = min(worst, slope)
                # the remainder is exactly first order, so the fitted
                # exponent equals 1.0 up to the window bias of the fit;
                # 5e-3 is that resolution (a missing term drops it to ~0)
                assert slope >= 1.0 - 5e-3, (
                    f"{kind} at eta={eta}: remainder decay slope "
                    f"{slope:.3f} < 1")
    print(f"[criterion 6] PASS 5 targets x 3 heights x 8 directions x 3 "
          f"kernels: min remainder slope {worst:.4f} (fit resolution 5e-3)")


# --------------------------------------------------------------------------
# 7. geometry recovered from distance/projection samples alone
# --------------------------------------------------------------------------

def test_a07_grid_sampled_geometry_orders(torus):
    import test_geometry

    x0 = torus.param_point(1.234, 4.567)
    exact = torus_exact_probe(torus, x0)
    f3_exact = test_geometry.torus_f3_oracle(torus, 1.234, 4.567)
    hs = [8e-3, 4e-3, 2e-3]
    kerrs, ferrs = [], []
    for h in hs:
        p = surface_probe(torus, x0, h=h)
        kerrs.append(max(abs(p.kappa1 - exact.kappa1),
                         abs(p.kappa2 - exact.kappa2)))
        ferrs.append(max(abs(a - b) for a, b in zip(p.f3, f3_exact)))
    korders = np.log2(np.array(kerrs[:-1]) / np.array(kerrs[1:]))
    forders = np.log2(np.array(ferrs[:-1]) / np.array(ferrs[1:]))
    assert np.all(korders >= 3.0), f"curvature orders {korders}"
    assert np.all(forders >= 3.0), f"third-derivative orders {forders}"

    rng = np.random.default_rng(17)
    k1, k2 = rng.uniform(-0.4, 0.4, size=2)
    c30, c21, c12, c03 = rng.uniform(-0.05, 0.05, size=4)
    g = CubicGraph(k1=k1, k2=k2, c30=c30, c21=c21, c12=c12, c03=c03)
    p = surface_probe(g, np.zeros(3), h=1e-2, probe_distance=0.25)
    # the probe reports f3 in its own canonical tangent frame; rotate the
    # exact third-derivative tensor of the height function into that frame
    D = np.zeros((2, 2, 2))
    D[0, 0, 0] = 6 * c30
    D[0, 0, 1] = D[0, 1, 0] = D[1, 0, 0] = 2 * c21
    D[0, 1, 1] = D[1, 0, 1] = D[1, 1, 0] = 2 * c12
    D[1, 1, 1] = 6 * c03
    T = np.stack([p.tau1[:2], p.tau2[:2]])
    W = np.einsum("ai,bj,ck,ijk->abc", T, T, T, D)
    expected = (W[0, 0, 0], W[0, 0, 1], W[0, 1, 1], W[1, 1, 1])
    f3_err = max(abs(a - b) for a, b in zip(p.f3, expected))
    assert f3_err <= 1e-8, f"cubic-graph third derivatives off by {f3_err:.2e}"
    print(f"[criterion 7] PASS curvature orders {np.round(korders, 2)}, "
          f"f3 orders {np.round(forders, 2)}, cubic-graph f3 error "
          f"{f3_err:.1e} <= 1e-8")


# --------------------------------------------------------------------------
# 8. tilted-torus self-convergence at order >= 3 for all kernels
# --------------------------------------------------------------------------

@pytest.mark.usefixtures("table02", "table11")
def test_a08_self_convergence_tilted_torus():
    cfg = StudyConfig(study="ibim3d", h0=0.075, ratio=1.5, count=5,
                      n_targets=20, seed=7, eps=0.1)
    res = run_ibim3d(cfg)
    lines = []
    for s in res["summary"]:
        lines.append(f"{s['kernel']}: mean-error order "
                     f"{s['mean_error_order']:.2f} (pooled per-target "
                     f"{s['pooled_mean_order']:.2f})")
        assert s["mean_error_order"] >= 3.0, lines[-1]
    print("[criterion 8] PASS 20 targets, 5 levels from h=0.075, "
          "reference h_min/2 (constructed order 3; the measured slopes "
          "above typically exceed 3.4)\n  " + "\n  ".join(lines))


# --------------------------------------------------------------------------
# 9. volume rule agrees with an independent parametric surface quadrature
# --------------------------------------------------------------------------

def test_a09_volume_rule_matches_surface_quadrature_oracle(torus, table02,
                                                           table11):
    targets = random_targets(3, seed=5)
    levels = h_sequence(0.075, 1.5, 4)
    fine = levels[-1]
    lines = []
    for label, rho_grid, rho_param in (
            ("rho=1", None, None),
            ("variable rho", torus.density_at, torus_density)):
        study = convergence_study_3d(torus, targets, levels,
                                     (table02, table11), eps=0.1,
                                     rho=rho_grid)
        for kind in ("SL", "DL", "DLC"):
            for ti, (theta, phi) in enumerate(targets):
                row = next(r for r in study["rows"]
                           if r["kind"] == kind and r["target"] == ti
                           and r["h"] == fine)
                oracle = layer_potential_oracle(torus, kind, theta, phi,
                                                rho=rho_param)
                gap = abs(row["value"] - oracle)
                lines.append(
                    f"{label} {kind} target {ti}: |V - oracle| {gap:.2e} "
                    f"vs 5 x self-convergence {5 * row['error']:.2e}")
                assert gap <= 5.0 * row["error"], lines[-1]
    print(f"[criterion 9] PASS at h={fine:.4g}\n  " + "\n  ".join(lines))


# --------------------------------------------------------------------------
# 10. averaging window: unit mass and normalization constant
# --------------------------------------------------------------------------

def test_a10_delta_window_normalization():
    a = DELTA_NORMALIZATION
    assert abs(a - 7.51393) < 5e-5
    masses = []
    for eps in (0.1, 0.0375):
        mass = quad(lambda t: float(delta_eps(np.array(t), eps)),
                    -eps, eps, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        masses.append(mass)
        assert abs(mass - 1.0) <= 1e-10
    print(f"[criterion 10] PASS a={a!r} (|a - 7.51393| = {abs(a - 7.51393):.1e}"
          f" < 5e-5); window masses {masses}")
