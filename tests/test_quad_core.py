"""Unit tests for the grid, stencil, and trapezoidal-rule layer."""
from __future__ import annotations

import math

import numpy as np
import pytest

from ctquad import quad_core
from ctquad.quad_core import (
    Grid2,
    GridOffset,
    SingularFunction,
    SingularTerm,
    STENCIL_OFFSETS,
    composite_Up,
    correction_monomials,
    corrected_Qp,
    grid_values,
    grid_with_offset,
    locate_singularity,
    punctured_trapezoidal,
    stencil_for_order,
)

from helpers import torus_plane_expansion


# --------------------------------------------------------------------------
# grids and plain sums
# --------------------------------------------------------------------------

def test_trapezoidal_counts_nodes():
    g = Grid2(h=0.5, origin=(1.0, -2.0), extent=((0, 3), (0, 2)))
    total = punctured_trapezoidal(grid_values(lambda x, y: np.ones_like(x), g),
                                  g, [])
    assert total == pytest.approx(0.25 * 12, abs=0.0)


def test_trapezoidal_gaussian_hits_pi():
    g = Grid2(h=0.1, origin=(0.0, 0.0), extent=((-80, 80), (-80, 80)))
    val = punctured_trapezoidal(
        grid_values(lambda x, y: np.exp(-(x * x + y * y)), g), g, [])
    assert abs(val - math.pi) < 1e-12


def test_trapezoidal_rejects_nonfinite_and_names_node():
    g = Grid2(h=1.0, origin=(0.0, 0.0), extent=((0, 2), (0, 2)))

    def f(x, y):
        out = np.ones_like(x)
        out[(x == 1.0) & (y == 2.0)] = np.inf
        return out

    with pytest.raises(ValueError, match=r"i=1, j=2"):
        punctured_trapezoidal(grid_values(f, g), g, [])


def test_punctured_names_first_bad_kept_node_in_row_order():
    # an excluded node holding inf in an earlier row is not read; of two bad
    # kept nodes in later rows, the first in row-major order is named, also
    # when its row holds excluded nodes and the other lies in a lower column
    g = Grid2(h=1.0, origin=(0.0, 0.0), extent=((-3, 3), (-3, 3)))
    vals = np.ones(g.shape)
    skip = [(-2, 1), (0, -1), (0, 2)]
    vals[-2 + 3, 1 + 3] = np.inf    # excluded
    vals[0 + 3, 2 + 3] = np.nan     # excluded, in the row of the first bad one
    vals[0 + 3, 1 + 3] = -np.inf    # kept
    vals[1 + 3, -3 + 3] = np.nan    # kept
    with pytest.raises(ValueError, match=r"\(i=0, j=1\)"):
        punctured_trapezoidal(vals, g, skip)
    vals[0 + 3, 1 + 3] = 1.0
    with pytest.raises(ValueError, match=r"\(i=1, j=-3\)"):
        punctured_trapezoidal(vals, g, skip)
    vals[1 + 3, -3 + 3] = 1.0
    assert punctured_trapezoidal(vals, g, skip) == 49.0 - 3.0


def test_empty_extent_rejected():
    with pytest.raises(ValueError):
        Grid2(h=1.0, origin=(0.0, 0.0), extent=((2, 1), (0, 1)))


def test_punctured_skips_without_evaluating():
    g = Grid2(h=1.0, origin=(0.0, 0.0), extent=((-3, 3), (-3, 3)))
    vals = np.ones(g.shape)
    vals[3, 3] = np.inf  # the node (0, 0), singular there

    stencil = stencil_for_order(1)
    off = GridOffset(0.0, 0.0, (0, 0))
    val = punctured_trapezoidal(vals, g, stencil.node_indices(off.anchor))
    assert val == pytest.approx(49.0 - 1.0)


def test_punctured_equals_full_minus_skipped():
    g = Grid2(h=0.25, origin=(0.0, 0.0), extent=((-8, 8), (-8, 8)))
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(g.shape)
    full = punctured_trapezoidal(vals, g, [])
    skip = [(0, 0), (1, 0), (0, 1)]
    part = punctured_trapezoidal(vals, g, skip)
    (i0, _), (j0, _) = g.extent
    removed = g.h ** 2 * sum(vals[i - i0, j - j0] for i, j in skip)
    assert part == pytest.approx(full - removed, abs=1e-14)


# --------------------------------------------------------------------------
# stencils and monomials
# --------------------------------------------------------------------------

@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_frozen_stencils_are_unisolvent(p):
    # the monomial/node matrix of each frozen stencil is square and well
    # conditioned at a generic cell offset
    u = [(di - 0.37, dj - 0.21) for di, dj in STENCIL_OFFSETS[p]]
    m = np.array([[x ** a * y ** b for x, y in u]
                  for a, b in correction_monomials(p)])
    assert m.shape[0] == m.shape[1]
    assert np.linalg.cond(m) < 1e8


def test_stencils_are_nested():
    for p in (2, 3, 4):
        small = set(STENCIL_OFFSETS[p - 1] if p != 4 else STENCIL_OFFSETS[2])
        big = set(STENCIL_OFFSETS[p])
        assert small <= big


def test_monomial_counts_match_node_counts():
    for p, n in ((1, 1), (2, 4), (3, 6), (4, 12)):
        monos = correction_monomials(p)
        assert len(monos) == n == len(STENCIL_OFFSETS[p])
        # all monomials below total degree p come first
        assert monos[: p * (p + 1) // 2] == [
            (d - b, b) for d in range(p) for b in range(d + 1)
        ]


def test_quartic_axis_monomials_would_be_singular():
    # on the 12-node stencil, x**4 and y**4 coincide with lower-degree
    # combinations at every node; the mixed pair x**3*y, x*y**3 does not
    w = (0.37, 0.21)
    nodes = np.array(STENCIL_OFFSETS[4], dtype=float) - np.asarray(w)
    base = correction_monomials(4)[:10]

    def matrix(extras):
        monos = base + extras
        return np.array([[x ** a * y ** b for (x, y) in nodes] for (a, b) in monos])

    assert np.linalg.cond(matrix([(4, 0), (0, 4)])) > 1e12
    assert np.linalg.cond(matrix([(3, 1), (1, 3)])) < 1e4


# --------------------------------------------------------------------------
# locating the singular point
# --------------------------------------------------------------------------

def test_locate_cell_convention():
    g = grid_with_offset(0.25, 3.0, (0.4, -0.7), alpha=0.81, beta=0.46)
    for p in (2, 3, 4):
        _, off = locate_singularity((0.4, -0.7), g, p)
        assert off.anchor == (0, 0)
        assert off.alpha == pytest.approx(0.81, abs=1e-12)
        assert off.beta == pytest.approx(0.46, abs=1e-12)


def test_locate_nearest_node_convention():
    g = grid_with_offset(0.25, 3.0, (0.4, -0.7), alpha=0.81, beta=0.46)
    _, off = locate_singularity((0.4, -0.7), g, 1)
    assert off.anchor == (1, 0)
    assert off.alpha == pytest.approx(-0.19, abs=1e-12)
    assert off.beta == pytest.approx(0.46, abs=1e-12)
    assert -0.5 <= off.alpha < 0.5 and -0.5 <= off.beta < 0.5


def test_locate_near_boundary_raises():
    g = Grid2(h=0.1, origin=(0.0, 0.0), extent=((0, 20), (0, 20)))
    # near the edge, and past it (stencil nodes outside the grid)
    for x0 in ((0.05, 1.0), (-0.05, 1.0)):
        with pytest.raises(ValueError, match="boundary"):
            locate_singularity(x0, g, 2)


# --------------------------------------------------------------------------
# singular terms and expansions
# --------------------------------------------------------------------------

def test_term_roundtrip_and_coefficients():
    t = SingularTerm.from_coefficients(0, 4.2398, a=[0.5, -1.2], b=[0.3, 0.7])
    theta = np.linspace(0.0, 2 * np.pi, 173)
    direct = (4.2398 + 0.5 * np.cos(theta) - 1.2 * np.cos(2 * theta)
              + 0.3 * np.sin(theta) + 0.7 * np.sin(2 * theta))
    assert np.max(np.abs(t.phi(theta) - direct)) < 1e-12


def _angles(n):
    return 2.0 * np.pi * np.arange(n) / n


@pytest.mark.parametrize("samples, match", [
    (np.ones(12), "power of two"),
    (np.where(np.arange(256) == 7, np.nan, 1.0), "sample 7 of 256 is nan"),
    (np.where(np.arange(256) == 9, -np.inf, 1.0), "sample 9 of 256 is -inf"),
    # mode 100 lies above n/4 = 64
    (np.cos(100 * _angles(256)), "256 samples do not resolve phi: mode 100 "),
], ids=["not_power_of_two", "nan", "inf", "cos100_at_256"])
def test_term_rejects_unusable_samples(samples, match):
    with pytest.raises(ValueError, match=match):
        SingularTerm(0, samples)


def test_term_accepts_resolved_samples():
    t = SingularTerm(0, np.cos(100 * _angles(512)))
    assert t.a[100] == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("phi", [
    lambda psi: np.abs(np.sin(psi)),  # coefficients fall like 1/j**2
    lambda psi: np.where(psi < np.pi, 1.0, 0.0),  # like 1/j
], ids=["abs_sin", "step"])
def test_from_callable_refuses_unresolvable_phi(phi):
    with pytest.raises(ValueError, match="65536 samples do not resolve phi"):
        SingularTerm.from_callable(0, phi)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_from_callable_stops_at_nonfinite_phi(bad):
    sizes = []

    def phi(psi):
        sizes.append(psi.size)
        return np.where(psi > 1.0, bad, 1.0)

    with pytest.raises(ValueError, match="not finite"):
        SingularTerm.from_callable(0, phi)
    assert sizes == [256]


@pytest.mark.parametrize("mode, sizes", [(3, [256]), (80, [256, 512])])
def test_from_callable_transforms_each_sample_set_once(monkeypatch, mode, sizes):
    # mode 80 lies above 256/4 = 64: 256 samples do not resolve it, 512 do
    seen = []
    spectrum = quad_core._spectrum

    def counting(samples):
        seen.append(samples.size)
        return spectrum(samples)

    monkeypatch.setattr(quad_core, "_spectrum", counting)
    term = SingularTerm.from_callable(1, lambda psi: 1.0 + np.cos(mode * psi))
    assert seen == sizes
    monkeypatch.undo()
    # the same bits as a term built from the resolving samples alone
    ref = SingularTerm(1, 1.0 + np.cos(mode * _angles(sizes[-1])))
    assert term.a.tobytes() == ref.a.tobytes()
    assert term.b.tobytes() == ref.b.tobytes()
    assert term.norm == ref.norm
    assert term.active_modes() == ref.active_modes()


def test_from_callable_samples_until_resolved():
    # the single-layer plane term near a torus target reaches mode 50: 256
    # samples resolve it, and its low modes agree with 4096 samples
    ex = torus_plane_expansion()
    term = ex.s0_term("SL")
    assert 2 * (term.a.size - 1) <= 512
    psi = _angles(4096)
    c = np.fft.rfft(ex.s0_eval("SL", np.stack([np.cos(psi), np.sin(psi)], -1))) / 4096
    a = np.concatenate([[c[0].real], 2.0 * c[1:17].real])
    b = np.concatenate([[0.0], -2.0 * c[1:17].imag])
    assert np.max(np.abs(term.a[:17] - a)) <= 1e-15 * term.norm
    assert np.max(np.abs(term.b[:17] - b)) <= 1e-15 * term.norm


def test_term_homogeneity():
    t = SingularTerm.from_callable(2, lambda th: 1.0 + 0.3 * np.sin(th))
    x, y = np.asarray(0.3), np.asarray(-0.4)
    lam = 1.7
    assert t.evaluate(lam * x, lam * y) == pytest.approx(
        lam ** (t.k - 1) * t.evaluate(x, y), rel=1e-13)


def test_remainder_vanishes_at_declared_rate():
    # s = |x| * (1 + r) with r = |x|: terms s_0 = 0... use a concrete pair
    s0 = SingularTerm.from_coefficients(0, 1.0)
    s1 = SingularTerm.from_coefficients(1, 0.5)

    def full(dx, dy):
        r = np.hypot(dx, dy)
        return 1.0 / np.where(r > 0, r, np.inf) + 0.5 + r  # s0 + s1 + |x|*r-part

    s = SingularFunction([s0, s1], full)
    for r in (1e-2, 1e-3, 1e-4):
        rem = float(s.remainder(1, np.asarray(r), np.asarray(0.0)))
        assert abs(rem) <= 2.0 * r  # bounded by C * |x|**1

    with pytest.raises(ValueError, match="remainder"):
        s.remainder(2, np.asarray(0.1), np.asarray(0.0))


# --------------------------------------------------------------------------
# corrected rules (explicit weights; weight computation tested elsewhere)
# --------------------------------------------------------------------------

def _smooth_bump(x, y):
    r2 = x * x + y * y
    return np.exp(-3.0 * r2)


def _node_integrand(s, v, x0, grid):
    """s(x - x0) * v(x) at every node of the grid: the rules' value input."""
    return grid_values(lambda x, y: s(x - x0[0], y - x0[1]) * v(x, y), grid)


def test_corrected_reduces_to_punctured_when_v_vanishes_on_stencil():
    # if v is zero at every stencil node the correction adds exactly nothing
    g = grid_with_offset(0.2, 2.0, (0.0, 0.0), alpha=0.3, beta=0.4)
    term = SingularTerm.from_coefficients(0, 1.0)
    stencil, off = locate_singularity((0.0, 0.0), g, 2)
    nodes = [g.node_xy(i, j) for (i, j) in stencil.node_indices(off.anchor)]

    def v(x, y):
        out = np.ones_like(np.asarray(x, dtype=float))
        for (nx, ny) in nodes:
            out = out * ((x - nx) ** 2 + (y - ny) ** 2) * 10.0
        return out

    def f(x, y):
        return term.evaluate(x, y) * v(x, y)

    base = punctured_trapezoidal(grid_values(f, g), g,
                                 stencil.node_indices(off.anchor))
    got = corrected_Qp(term, v, (0.0, 0.0), g, 2, np.array([3.0, -1.0, 2.0, 0.5]),
                       _node_integrand(term.evaluate, v, (0.0, 0.0), g))
    assert got == base


def test_corrected_is_linear_in_phi():
    # weights are linear functionals of phi, so when the per-term weight
    # vectors add, the corrected values must add too
    g = grid_with_offset(0.2, 2.0, (0.0, 0.0), alpha=0.81, beta=0.46)
    w1 = np.array([0.7, -0.2, 0.1, 0.4])
    w2 = np.array([-0.3, 0.9, 0.05, -1.2])
    t1 = SingularTerm.from_coefficients(0, 1.0, a=[0.3])
    t2 = SingularTerm.from_coefficients(0, -0.5, b=[0.0, 1.1])
    tsum = SingularTerm.from_coefficients(0, 0.5, a=[0.3], b=[0.0, 1.1])
    x0 = (0.0, 0.0)

    def rule(t, w):
        return corrected_Qp(t, _smooth_bump, x0, g, 2, w,
                            _node_integrand(t.evaluate, _smooth_bump, x0, g))

    v1 = rule(t1, w1)
    v2 = rule(t2, w2)
    vs = rule(tsum, w1 + w2)
    assert vs == pytest.approx(v1 + v2, abs=1e-13)


def test_translation_invariance():
    term = SingularTerm.from_coefficients(1, 1.0, a=[0.4], b=[0.2])
    w = np.ones(1)
    shift = (3.25, -1.5)
    x0 = (0.0, 0.0)
    g1 = grid_with_offset(0.2, 2.0, x0, alpha=0.31, beta=0.17)
    g2 = Grid2(h=g1.h, origin=(g1.origin[0] + shift[0], g1.origin[1] + shift[1]),
               extent=g1.extent)
    v1 = corrected_Qp(term, _smooth_bump, x0, g1, 1, w,
                      _node_integrand(term.evaluate, _smooth_bump, x0, g1))

    def bump2(x, y):
        return _smooth_bump(x - shift[0], y - shift[1])

    x02 = (x0[0] + shift[0], x0[1] + shift[1])
    v2 = corrected_Qp(term, bump2, x02, g2, 1, w,
                      _node_integrand(term.evaluate, bump2, x02, g2))
    assert v2 == pytest.approx(v1, abs=1e-13 * max(1.0, abs(v1)))


def test_composite_matches_hand_assembly_p3():
    # the single-pass order-3 composite rule must equal the sum of its parts:
    # an order-2 correction of s_0, an order-1 correction of s_1, and the
    # punctured rule applied to the remainder.  The identity is algebraic, so
    # it holds for any choice of correction weights.
    h = 0.25
    x0 = (0.13, -0.08)
    g = grid_with_offset(h, 2.5, x0, alpha=0.81, beta=0.46)
    s0 = SingularTerm.from_coefficients(0, 1.3, a=[0.2], b=[-0.4])
    s1 = SingularTerm.from_coefficients(1, 0.7, a=[0.0, 0.5])

    def full(dx, dy):
        r = np.hypot(dx, dy)
        th = np.arctan2(dy, dx)
        with np.errstate(divide="ignore"):
            rad = np.where(r > 0, 1.0 / r, np.inf)
        core = rad * (1.3 + 0.2 * np.cos(th) - 0.4 * np.sin(th))
        lin = 0.7 + 0.5 * np.cos(2 * th)
        return core + lin + r * np.cos(th + 0.3)  # smooth-ish O(r) remainder

    s = SingularFunction([s0, s1], full)
    rng = np.random.default_rng(11)
    w0 = rng.standard_normal(4)
    w1 = rng.standard_normal(1)
    v = _smooth_bump

    got = composite_Up(s, v, x0, g, 3, {0: w0, 1: w1},
                       _node_integrand(s.full, v, x0, g))

    q2 = corrected_Qp(s0, v, x0, g, 2, w0, _node_integrand(s0.evaluate, v, x0, g))
    q1 = corrected_Qp(s1, v, x0, g, 1, w1, _node_integrand(s1.evaluate, v, x0, g))
    st1, off1 = locate_singularity(x0, g, 1)

    def rem_v(x, y):
        return s.remainder(1, x - x0[0], y - x0[1]) * v(x, y)

    t0 = punctured_trapezoidal(grid_values(rem_v, g), g,
                               st1.node_indices(off1.anchor))
    want = q2 + q1 + t0
    assert got == pytest.approx(want, abs=1e-13 * max(1.0, abs(want)))


def test_composite_requires_enough_terms():
    s = SingularFunction([SingularTerm.from_coefficients(0, 1.0)],
                         lambda dx, dy: 1.0 / np.hypot(dx, dy))
    g = grid_with_offset(0.25, 2.0, (0.0, 0.0), alpha=0.5, beta=0.5)
    with pytest.raises(ValueError, match="expansion terms"):
        composite_Up(s, _smooth_bump, (0.0, 0.0), g, 4, {}, np.zeros(g.shape))


@pytest.mark.parametrize("rule", ["corrected", "composite"])
def test_rules_reject_wrong_weight_count(rule):
    # the order-2 stencil has 4 nodes; 3 weights must be refused, naming 4
    g = grid_with_offset(0.25, 2.0, (0.0, 0.0), alpha=0.81, beta=0.46)
    s0 = SingularTerm.from_coefficients(0, 1.0)
    w = np.ones(3)
    with pytest.raises(ValueError, match="expects 4 weights, got 3"):
        if rule == "corrected":
            corrected_Qp(s0, _smooth_bump, (0.0, 0.0), g, 2, w, np.zeros(g.shape))
        else:
            s = SingularFunction([s0, SingularTerm.from_coefficients(1, 1.0)],
                                 lambda dx, dy: 1.0 / np.hypot(dx, dy))
            composite_Up(s, _smooth_bump, (0.0, 0.0), g, 3, [w, np.ones(1)],
                         np.zeros(g.shape))


@pytest.mark.parametrize("rule", ["corrected", "composite"])
def test_rules_reject_nonfinite_kept_node_and_ignore_stencil(rule):
    # a non-finite value outside the stencil is named by its node; the same
    # value on a stencil node is never read
    x0 = (0.0, 0.0)
    g = grid_with_offset(0.25, 2.0, x0, alpha=0.0, beta=0.0)
    s0 = SingularTerm.from_coefficients(0, 1.0)
    s = SingularFunction([s0, SingularTerm.from_coefficients(1, 1.0)],
                         lambda dx, dy: 1.0 / np.hypot(dx, dy))
    (i0, _), (j0, _) = g.extent

    def run(values):
        if rule == "corrected":
            return corrected_Qp(s0, _smooth_bump, x0, g, 2, np.ones(4), values)
        return composite_Up(s, _smooth_bump, x0, g, 3, [np.ones(4), np.ones(1)],
                            values)

    values = np.ones(g.shape)
    values[1 - i0, 1 - j0] = np.inf  # a corner of the order-2 stencil
    assert np.isfinite(run(values))
    values[3 - i0, -2 - j0] = np.nan
    with pytest.raises(ValueError, match=r"\(i=3, j=-2\)"):
        run(values)
