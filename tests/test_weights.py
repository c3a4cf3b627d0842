"""Unit tests for the correction-weight machinery.

The frozen weight vectors below are oracle anchors: they were computed by the
dual-lattice limit representation (an independent route to the h -> 0 limit)
and cross-checked against the finite-h sweep before being frozen here.  Both
routes must keep reproducing them.
"""
from __future__ import annotations

import concurrent.futures
import dataclasses
import math
import os
import tempfile

import mpmath as mp
import numpy as np
import pytest

from ctquad import quad_core, weights
from ctquad.quad_core import (
    GridOffset,
    SingularTerm,
    Stencil,
    correction_monomials,
    stencil_for_order,
)
from ctquad.weights import (
    DEFAULT_BUMP,
    LIBRARY_VERSION,
    IllConditionedStencilError,
    MomentCache,
    WeightConvergenceError,
    WeightTable,
    _cell_maps,
    _dual_coefficient,
    _dual_lattice_sums,
    _lattice_mode_sums,
    _row_mode,
    _table_orbits,
    _table_point,
    build_weight_table,
    interpolate_weights,
    load_weight_table,
    moment_residual,
    row_term,
    save_weight_table,
    table_filename,
    weights_dual,
    weights_limit,
)

from helpers import lattice_mode_sums_complex, singular_moment, weights_at_h

OFF = GridOffset(0.81, 0.46, (0, 0))

# frozen anchors (dual-lattice route, cross-validated against the sweep)
W_K0P1 = np.array([2.359679358987948])
W_K0P2 = np.array([1.2743276269778994, 2.4399577073922467,
                   2.225634154469841, 1.2031212242277456])
W_K0P4 = np.array([1.3357189154672984, 2.543318362708014, 2.325308739599965,
                   1.2592821572973274, 0.7600346100229395, 0.7455792740841721,
                   0.5563893861638397, 0.5542302120536835, 0.5018028629890864,
                   0.503020537654244, 0.5785532928239959, 0.5910437308616793])
W_K2P3 = np.array([-0.9328906599577873, 1.134380606068908, 0.4574245426765409,
                   1.2211189436442147, 3.952280126937458, 1.5245393715078657])

T_CONST_K0 = SingularTerm.from_coefficients(0, 1.0)
T_MULTI_K0 = SingularTerm.from_coefficients(0, 1.0, a=[0.8], b=[0.0, -1.2])
T_PHI2_K2 = SingularTerm.from_coefficients(2, 1.127, a=[1.2134875],
                                           b=[0.0, -1.24397865])


# --------------------------------------------------------------------------
# bump and moments
# --------------------------------------------------------------------------

def test_bump_plateau_support_and_monotone():
    g = DEFAULT_BUMP
    r = np.linspace(0.0, 1.3, 1000)
    vals = g(r)
    assert np.all(vals[r <= 0.25] == 1.0)
    assert np.all(vals[r >= 1.0] == 0.0)
    blend = vals[(r > 0.25) & (r < 1.0)]
    assert np.all(np.diff(blend) <= 0.0)
    core = vals[(r > 0.4) & (r < 0.9)]
    assert np.all(np.diff(core) < 0.0)


def test_bump_blend_is_symmetric_about_midpoint():
    # the quotient blend satisfies g(r) + g(r0 + R - r) = 1 exactly
    g = DEFAULT_BUMP
    r = np.linspace(0.3, 0.95, 57)
    assert np.max(np.abs(g(r) + g(0.25 + 1.0 - r) - 1.0)) < 1e-15


def test_bump_slope_continuous_at_junctions():
    g = DEFAULT_BUMP
    for r_j in (0.25, 1.0):
        eps = 1e-4
        inner = (g(np.asarray(r_j - eps)) - g(np.asarray(r_j - 2 * eps))) / eps
        outer = (g(np.asarray(r_j + 2 * eps)) - g(np.asarray(r_j + eps))) / eps
        assert abs(float(inner) - float(outer)) < 1e-3


def test_radial_moment_zero_is_exact():
    # plateau + antisymmetric blend: integral g = r0 + (R - r0)/2
    mc = MomentCache()
    assert float(mc.radial_moment(0)) == pytest.approx(0.625, abs=1e-15)


def test_radial_moments_stable_at_doubled_precision():
    mc = MomentCache()
    for m in range(0, 9):
        a = float(mc.radial_moment(m, dps=40))
        b = float(mc.radial_moment(m, dps=80))
        assert abs(a - b) <= 1e-13 * max(1.0, abs(a))


def test_angular_moments_exact_values():
    mc = MomentCache()
    # integral cos(t)^2 over the circle = pi, via the (2,0) monomial row
    assert float(mc.angular_moment(("c", 0), 2, 0)) == pytest.approx(math.pi)
    # odd powers integrate to zero
    assert float(mc.angular_moment(("c", 0), 1, 0)) == 0.0
    assert float(mc.angular_moment(("c", 0), 1, 1)) == 0.0
    # integral cos(t) * cos(t) = pi; integral sin(t) * cos(t) = 0
    assert float(mc.angular_moment(("c", 1), 1, 0)) == pytest.approx(math.pi)
    assert float(mc.angular_moment(("s", 1), 1, 0)) == 0.0
    # integral sin(t) * sin(t) = pi
    assert float(mc.angular_moment(("s", 1), 0, 1)) == pytest.approx(math.pi)
    # integral cos(2t) cos^2 = pi/2
    assert float(mc.angular_moment(("c", 2), 2, 0)) == pytest.approx(math.pi / 2)


def test_singular_moment_product_form():
    mc = MomentCache()
    # k=0, phi = 1: integral g(|x|)/|x| x^0 dx = 2 pi integral_0^inf g dr
    val = singular_moment(T_CONST_K0, (0, 0))
    assert val == pytest.approx(2.0 * math.pi * 0.625, rel=1e-14)


# --------------------------------------------------------------------------
# finite-h solve and the sweep
# --------------------------------------------------------------------------

def test_weights_at_h_rejects_degenerate_stencil():
    collinear = Stencil(2, ((0, 0), (1, 0), (2, 0), (3, 0)))
    with pytest.raises(IllConditionedStencilError, match="ill-conditioned"):
        weights_at_h(T_CONST_K0, OFF, collinear, 2.0 ** -4)


def test_sweep_anchor_k0p2_const():
    w, hstar = weights_limit(T_CONST_K0, OFF, stencil_for_order(2))
    assert np.max(np.abs(w - W_K0P2)) < 2e-8
    assert hstar <= 2.0 ** -5


def test_sweep_anchor_k1p1_is_one():
    # the |x| term has no constant-mode deficit: its one-node weight is
    # exactly 1 at every offset
    off1 = GridOffset(-0.19, 0.46, (1, 0))
    w, _ = weights_limit(SingularTerm.from_coefficients(1, 1.0), off1,
                         stencil_for_order(1))
    assert w[0] == pytest.approx(1.0, abs=1e-9)


def test_sweep_on_grid_k0_constant():
    # lattice constant for the 1/|x| correction at an on-grid point
    w, _ = weights_limit(T_CONST_K0, GridOffset(0.0, 0.0, (0, 0)),
                         stencil_for_order(1))
    assert w[0] == pytest.approx(3.9002649200, abs=1e-7)


def test_sweep_stalls_honestly_at_high_kappa():
    # k=2, p=3 pushes kappa to 5: the finite-h right-hand sides cancel too
    # many digits for the 1e-8 tolerance, and the sweep must say so rather
    # than return unconverged numbers
    with pytest.raises(WeightConvergenceError) as exc_info:
        weights_limit(T_PHI2_K2, OFF, stencil_for_order(3))
    err = exc_info.value
    assert err.best_diff < 1e-5
    assert np.max(np.abs(err.best_weights - W_K2P3)) < 1e-6


def test_mode_linearity_at_fixed_h():
    h = 2.0 ** -5
    st = stencil_for_order(2)
    t1 = SingularTerm.from_coefficients(0, 1.0, a=[0.8])
    t2 = SingularTerm.from_coefficients(0, 0.0, b=[0.0, -1.2])
    w1 = weights_at_h(t1, OFF, st, h)
    w2 = weights_at_h(t2, OFF, st, h)
    wsum = weights_at_h(T_MULTI_K0, OFF, st, h)
    assert np.max(np.abs(w1 + w2 - wsum)) < 1e-11


def test_axis_swap_symmetry():
    # swapping (alpha, beta) and reflecting phi across the diagonal
    # (psi -> pi/2 - psi) permutes the weights with the stencil nodes
    st = stencil_for_order(2)
    h = 2.0 ** -5
    term = SingularTerm.from_coefficients(0, 1.0, a=[0.8], b=[0.3, -1.2])
    refl = SingularTerm.from_callable(
        0, lambda th: term.phi(np.pi / 2.0 - th))
    w = weights_at_h(term, GridOffset(0.81, 0.46, (0, 0)), st, h)
    w_swap = weights_at_h(refl, GridOffset(0.46, 0.81, (0, 0)), st, h)
    # stencil [(0,0),(1,0),(1,1),(0,1)] maps to itself as [0,3,2,1]
    assert np.max(np.abs(w_swap - w[[0, 3, 2, 1]])) < 1e-12


@pytest.mark.parametrize("k, p, alpha, beta, j, modes", [
    # all 33 table modes: the e**(i m psi) chain up to m = 16
    (0, 2, 0.25, 0.75, 6, [_row_mode(r) for r in range(33)]),
    # on the node (0, 0): the puncture removes u = 0 from the sum
    (1, 1, 0.0, 0.0, 5, [_row_mode(r) for r in range(33)]),
    # three row tiles at h = 2**-10: the Kahan carry across tiles
    (2, 3, 0.0, 0.0, 10, [("c", 0)]),
])
def test_lattice_sums_bit_identical_to_complex_products(k, p, alpha, beta, j, modes):
    monos = correction_monomials(p)
    offsets = stencil_for_order(p).offsets
    args = (k, alpha, beta, 2.0 ** -j, modes, monos, offsets)
    got = _lattice_mode_sums(*args)
    want = lattice_mode_sums_complex(*args)
    assert got.shape == (len(modes), len(monos))
    assert np.array_equal(got, want)


def test_lattice_sums_match_mpmath_at_high_modes():
    """The e**(i m psi) power chain keeps the m = 8 and 16 sums within
    2e-17 of a 40-digit sum over the same punctured window (it reads
    6.1e-18; cos(m * atan2) as the mode factor reads 2.4e-17)."""
    k, p, alpha, beta, h = 0, 2, 0.37, 0.81, 2.0 ** -4
    modes = [("c", 8), ("s", 8), ("c", 16), ("s", 16)]
    monos = correction_monomials(p)
    offsets = stencil_for_order(p).offsets
    got = _lattice_mode_sums(k, alpha, beta, h, modes, monos, offsets)
    K = int(math.ceil(DEFAULT_BUMP.R / h)) + 1
    with mp.workdps(40):
        want = [[mp.mpf(0)] * len(monos) for _ in modes]
        for n1 in range(-K, K + 1):
            for n2 in range(-K, K + 1):
                if (n1, n2) in offsets:
                    continue
                u1, u2 = n1 - mp.mpf(alpha), n2 - mp.mpf(beta)
                r = mp.hypot(u1, u2)
                g = DEFAULT_BUMP.mp_eval(h * r)
                if g == 0:
                    continue
                z = mp.mpc(u1, u2) / r
                for mi, (kind, m) in enumerate(modes):
                    zm = z ** m
                    ang = zm.real if kind == "c" else zm.imag
                    for j, (a, b) in enumerate(monos):
                        want[mi][j] += g * r ** (k - 1) * ang * u1 ** a * u2 ** b

        def exact(x):   # a long double as the sum of two doubles, exactly
            hi = float(x)
            return mp.mpf(hi) + mp.mpf(float(x - np.longdouble(hi)))

        err = max(abs(float(exact(S.real if kind == "c" else S.imag) - want[mi][j]))
                  for mi, (kind, _) in enumerate(modes)
                  for j, S in enumerate(got[mi]))
    assert err <= 2e-17


# --------------------------------------------------------------------------
# the dual-lattice limit
# --------------------------------------------------------------------------

def test_dual_coefficient_zero_rule():
    # polynomial harmonics have no deficit: |ell| <= kappa-2, same parity
    assert _dual_coefficient(2, 0) == 0
    assert _dual_coefficient(3, 1) == 0
    assert _dual_coefficient(4, 0) == 0
    assert _dual_coefficient(4, 2) == 0
    assert _dual_coefficient(5, 1) == 0
    # non-polynomial ones do not vanish
    assert _dual_coefficient(3, 0) != 0
    assert _dual_coefficient(4, 1) != 0
    assert _dual_coefficient(2, 1) != 0


def test_dual_coefficient_matches_known_transform():
    # the planar Fourier transform of |x| is -1/(4 pi^2 |xi|^3)
    c = _dual_coefficient(3, 0)
    assert c.real == pytest.approx(-1.0 / (4.0 * math.pi ** 2), rel=1e-14)
    assert c.imag == 0.0


def test_dual_anchors():
    assert np.max(np.abs(weights_dual(T_CONST_K0, OFF, stencil_for_order(1))
                         - W_K0P1)) < 1e-11
    assert np.max(np.abs(weights_dual(T_CONST_K0, OFF, stencil_for_order(2))
                         - W_K0P2)) < 1e-11
    assert np.max(np.abs(weights_dual(T_CONST_K0, OFF, stencil_for_order(4))
                         - W_K0P4)) < 1e-10
    assert np.max(np.abs(weights_dual(T_PHI2_K2, OFF, stencil_for_order(3))
                         - W_K2P3)) < 1e-10


def test_dual_agrees_with_sweep_low_kappa():
    cases = [
        (T_CONST_K0, OFF, 1),
        (T_MULTI_K0, OFF, 2),
        (T_MULTI_K0, GridOffset(0.03, 0.97, (0, 0)), 2),  # image-dominated
        (SingularTerm.from_coefficients(1, 1.0, a=[0.78167]),
         GridOffset(-0.19, 0.46, (1, 0)), 1),
    ]
    for term, off, p in cases:
        st = stencil_for_order(p)
        ws, _ = weights_limit(term, off, st)
        wd = weights_dual(term, off, st)
        assert np.max(np.abs(ws - wd)) < 2e-8, (term.k, p, off)


def test_dual_sums_match_epstein_zeta():
    # at w = 0 the l = 0 sums are the Epstein zeta function of the square
    # lattice, sum over nonzero n of |n|**-kappa = 4 zeta(kappa/2) beta(kappa/2);
    # kappa = 1 is its analytic continuation, -3.90026492000196.  kappa = 3, 5
    # run the half-integer recurrence of the incomplete gamma, kappa = 4, 6
    # the integer one
    z = _dual_lattice_sums([(1, 0), (3, 0), (4, 0), (5, 0), (6, 0)], (0.0, 0.0))
    for kappa in (1, 3, 4, 5, 6):
        s = kappa / 2.0
        ref = float(4 * mp.zeta(s) * mp.dirichlet(s, [0, 1, 0, -1]))
        assert z[(kappa, 0)] == pytest.approx(ref, rel=1e-13), kappa
    assert z[(1, 0)].real == pytest.approx(-3.90026492000196, rel=1e-13)


def test_dual_on_node_matches_converged_sweep():
    # on a stencil node the dual route takes the continued value of the
    # node's image; where the sweep converges to 1e-9 the two agree.  (The
    # sweep floors above 1e-9 for k=2, p=3 and k=1, p=4 at (0, 0).)
    cases = [(0, 1, (0, 0)), (0, 2, (0, 0)), (0, 2, (1, 1)), (0, 3, (0, 0)),
             (0, 4, (0, 0)), (1, 1, (0, 0)), (1, 2, (0, 1)), (1, 3, (1, 0)),
             (2, 2, (0, 0))]
    for k, p, corner in cases:
        term = SingularTerm.from_coefficients(k, 1.0, a=[0.5])
        off = GridOffset(float(corner[0]), float(corner[1]), (0, 0))
        st = stencil_for_order(p)
        ws, _ = weights_limit(term, off, st, tol=1e-9)
        wd = weights_dual(term, off, st)
        assert np.max(np.abs(ws - wd)) < 1e-9, (k, p, corner)


def test_dual_sum_conjugation_symmetry():
    # Z(kappa, -ell) = (-1)**ell * conj(Z(kappa, ell))
    z = _dual_lattice_sums([(3, 2), (3, -2), (4, 1), (4, -1)], (0.81, 0.46))
    assert z[(3, -2)] == pytest.approx(np.conj(z[(3, 2)]), rel=1e-12)
    assert z[(4, -1)] == pytest.approx(-np.conj(z[(4, 1)]), rel=1e-12)


def test_moment_residual_certifies_weights():
    st = stencil_for_order(2)
    w, hstar = weights_limit(T_MULTI_K0, OFF, st)
    res = moment_residual(T_MULTI_K0, OFF, st, w, hstar)
    assert np.max(np.abs(res)) < 1e-7  # within sweep tolerance of exact


# --------------------------------------------------------------------------
# tables
# --------------------------------------------------------------------------

def _tiny_table(tmpdir, **kw):
    kw.setdefault("n_modes", 2)
    kw.setdefault("grid_n", 5)
    kw.setdefault("processes", 2)
    return build_weight_table(1, 1, cache_dir=tmpdir, **kw)


def test_table_roundtrip_bit_exact():
    with tempfile.TemporaryDirectory() as td:
        tab = _tiny_table(td)
        path = [os.path.join(td, f) for f in os.listdir(td)
                if f.endswith(".ctwt")][0]
        tab2 = load_weight_table(path)
        assert np.array_equal(tab.data, tab2.data)
        assert np.array_equal(tab.m_levels, tab2.m_levels)
        assert tab2.k == 1 and tab2.p == 1
        assert tab2.stencil_offsets == ((0, 0),)
        # one file per table, no metadata sidecar
        assert os.listdir(td) == [os.path.basename(path)]


def test_table_file_identical_at_any_worker_count():
    blobs = []
    for processes in (1, 2):
        with tempfile.TemporaryDirectory() as td:
            _tiny_table(td, processes=processes)
            path = os.path.join(td, table_filename(1, 1, n_modes=2, grid_n=5))
            with open(path, "rb") as f:
                blobs.append(f.read())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("k, p, n_modes, grid_n, bound", [
    (1, 1, 4, 5, 1e-13),
    (0, 2, 3, 5, 1e-13),
    (0, 4, 2, 4, 1e-11),
])
def test_table_fill_obeys_the_cell_maps(tmp_path, k, p, n_modes, grid_n, bound):
    # the build solves one point per orbit of the square's maps and writes
    # the rest from it, so every entry equals its signed, permuted mirror
    # exactly where the orbit has no point that a map fixes; elsewhere the
    # solved point's own mirror is as close as the sweep makes it.  Fresh
    # sweeps at filled points catch a wrong sign or node permutation,
    # which the mirror relations alone cannot see
    tab = build_weight_table(k, p, n_modes=n_modes, grid_n=grid_n,
                             processes=2, cache_dir=str(tmp_path))
    maps = _cell_maps(p, n_modes)
    assert len(maps) == 8
    for mi in range(grid_n):
        for ni in range(grid_n):
            free = len({cm.image(mi, ni, grid_n) for cm in maps}) == len(maps)
            for cm in maps:
                qm, qn = cm.image(mi, ni, grid_n)
                mirror = np.empty_like(tab.data[:, qm, qn])
                mirror[:, cm.nodes] = cm.signs[:, None] * tab.data[cm.rows, mi, ni]
                gap = float(np.max(np.abs(tab.data[:, qm, qn] - mirror)))
                assert gap == 0.0 if free else gap <= bound, ((mi, ni), (qm, qn))
                assert np.array_equal(tab.m_levels[:, qm, qn],
                                      tab.m_levels[cm.rows, mi, ni])
    solved = {orbit[0][0] for orbit in _table_orbits(p, n_modes, grid_n)}
    filled = [(mi, ni) for mi in range(grid_n) for ni in range(grid_n)
              if (mi, ni) not in solved]
    for mi, ni in filled[::3]:
        _, _, w, lev = _table_point((k, p, mi, ni, tab.domain_lo + mi * tab.step,
                                     tab.domain_lo + ni * tab.step, tab.tol,
                                     n_modes))
        assert np.max(np.abs(tab.data[:, mi, ni] - w)) <= bound, (mi, ni)
        assert np.array_equal(tab.m_levels[:, mi, ni], lev), (mi, ni)


@pytest.mark.parametrize("p, grid_n, solved", [
    (2, 5, 6), (2, 33, 153), (2, 2, 1), (1, 4, 3), (4, 4, 3),
    # the p = 3 stencil has no symmetry: every point is solved
    (3, 5, 25),
])
def test_table_solves_one_point_per_orbit(p, grid_n, solved):
    orbits = _table_orbits(p, 2, grid_n)
    assert len(orbits) == solved
    points = sorted(q for orbit in orbits for q, _ in orbit)
    assert points == [(mi, ni) for mi in range(grid_n) for ni in range(grid_n)]


@pytest.mark.parametrize("cpus, workers", [(1, None), (3, 3), (64, 16)])
def test_table_pool_sized_to_usable_cpus(monkeypatch, tmp_path, cpus, workers):
    # the default pool has one process per CPU this process may run on (as
    # the thread pools have), at most 16 and at most one per point to solve;
    # one CPU, or one point, builds in-process
    sized = []

    class Pool:
        def __init__(self, max_workers):
            sized.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(quad_core, "_pool_size", lambda: cpus)
    # the build imports its pool on first use, from concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    # grid_n = 11 has 21 points to solve
    build_weight_table(1, 1, n_modes=1, grid_n=11, cache_dir=str(tmp_path))
    assert sized == ([] if workers is None else [workers])
    # grid_n = 2 has one
    build_weight_table(1, 1, n_modes=1, grid_n=2, cache_dir=str(tmp_path))
    assert sized == ([] if workers is None else [workers])


def test_table_rejects_truncated_file():
    # an interrupted write must not pass for a table: the loader checks the
    # file length against the shape its header declares
    with tempfile.TemporaryDirectory() as td:
        _tiny_table(td)
        path = [os.path.join(td, f) for f in os.listdir(td)
                if f.endswith(".ctwt")][0]
        with open(path, "rb") as f:
            blob = f.read()
        cut = os.path.join(td, "cut.ctwt")
        with open(cut, "wb") as f:
            f.write(blob[:-7])
        with pytest.raises(ValueError, match="truncated") as exc_info:
            load_weight_table(cut)
        assert cut in str(exc_info.value)
        # a cut inside the header (or right after the magic) is refused too
        for size in (8, 20):
            with open(cut, "wb") as f:
                f.write(blob[:size])
            with pytest.raises(ValueError, match="truncated") as exc_info:
                load_weight_table(cut)
            assert cut in str(exc_info.value)
        # the save leaves no temporary files behind
        assert sorted(os.listdir(td)) == sorted([os.path.basename(path), "cut.ctwt"])


def test_table_rejects_foreign_files():
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "bogus.ctwt")
        with open(path, "wb") as f:
            f.write(b"NOTATBLE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="rebuild"):
            load_weight_table(path)


@pytest.mark.parametrize("field, value, named", [
    ("n_modes", 1, "shape"),      # 5 rows of data are not 2N+1 = 3
    ("stencil_offsets", ((1, 0),), "stencil_offsets"),
    ("domain_lo", 0.25, "domain_lo"),
    ("bump_r0", 0.5, "bump_r0"),
    ("bump_R", 2.0, "bump_R"),
])
def test_table_rejects_header_the_library_cannot_write(tmp_path, field, value,
                                                      named):
    # a (1,1) table's header must hold the p=1 stencil, its cell, the
    # library's bump and a (2N+1, g, g, nodes) block
    tab = _tiny_table(str(tmp_path))
    path = str(tmp_path / "odd.ctwt")
    save_weight_table(dataclasses.replace(tab, **{field: value}), path)
    with pytest.raises(ValueError, match=f"header field {named} is .* "
                                         f"-- rebuild the table") as exc:
        load_weight_table(path)
    assert path in str(exc.value)


@pytest.mark.parametrize("field, header", [
    ("k", {"k": 0}), ("tol", {"tol": 1e-6}), ("n_modes", {"n_modes": 1}),
    ("grid_n", {"grid_n": 4}),
])
def test_table_cache_refuses_header_for_other_parameters(tmp_path, field,
                                                        header):
    # a cache hit is served only if the header's (k, p, tol, n_modes,
    # grid_n) are the parameters that named the file
    td = str(tmp_path)
    other = _tiny_table(td, **{f: v for f, v in header.items()
                               if f in ("n_modes", "grid_n")})
    path = os.path.join(td, table_filename(1, 1, n_modes=2, grid_n=5))
    save_weight_table(dataclasses.replace(other, **header), path)
    with pytest.raises(ValueError, match=f"header field {field} is") as exc:
        _tiny_table(td)
    assert path in str(exc.value) and "rebuild" in str(exc.value)


def test_table_cache_hit():
    with tempfile.TemporaryDirectory() as td:
        tab = _tiny_table(td)
        tab2 = _tiny_table(td)  # must come from the cache file
        assert np.array_equal(tab.data, tab2.data)


def test_table_cache_refuses_other_version():
    # a cached file that another library version built is not served
    with tempfile.TemporaryDirectory() as td:
        tab = _tiny_table(td)
        path = os.path.join(td, table_filename(1, 1, n_modes=2, grid_n=5))
        save_weight_table(dataclasses.replace(tab, version="0.0.1"), path)
        with pytest.raises(ValueError) as exc_info:
            _tiny_table(td)
        msg = str(exc_info.value)
        assert "0.0.1" in msg and LIBRARY_VERSION in msg and path in msg


def test_interpolation_reproduces_lattice_points():
    with tempfile.TemporaryDirectory() as td:
        tab = _tiny_table(td)
        term = SingularTerm.from_coefficients(1, 1.0, a=[0.5], b=[0.25])
        off = GridOffset(-0.25, 0.25, (0, 0))
        [w] = interpolate_weights(tab, [term], [off])
        direct = (tab.data[0, 1, 3] + 0.5 * tab.data[1, 1, 3]
                  + 0.25 * tab.data[2, 1, 3])
        assert float(w[0]) == float(direct[0])


def test_interpolation_rejects_wrong_k():
    with tempfile.TemporaryDirectory() as td:
        tab = _tiny_table(td)
        with pytest.raises(ValueError, match="k="):
            interpolate_weights(tab, [T_CONST_K0],
                                [GridOffset(0.1, 0.2, (0, 0))])


def test_interpolation_rejects_lattice_below_4x4():
    # a 3x3 lattice has no 4x4 patch for the cubic rule; it must refuse, not
    # broadcast one corner entry over the patch
    data = np.arange(9.0).reshape(1, 3, 3, 1)
    tab = WeightTable(k=1, p=1, tol=1e-8, n_modes=0, grid_n=3,
                      domain_lo=-0.5, stencil_offsets=((0, 0),),
                      bump_r0=DEFAULT_BUMP.r0, bump_R=DEFAULT_BUMP.R,
                      data=data, m_levels=np.zeros((1, 3, 3), dtype=np.int8))
    term = SingularTerm.from_coefficients(1, 1.0)
    for alpha in (-0.5, 0.0, 0.5):
        with pytest.raises(ValueError, match="grid_n=3"):
            interpolate_weights(tab, [term], [GridOffset(alpha, 0.0, (0, 0))])


def test_mode_above_resolution_reaches_dual_and_table_routes():
    # a cos 3psi mode at 5e-13 of the norm lies above RESOLUTION, so the
    # term's mode map keeps it and both weight routes read it from there
    small = 5e-13
    term = SingularTerm.from_coefficients(0, 1.0, a=[0.0, 0.0, small])
    c3 = term.coefficients[("c", 3)]
    assert c3 == pytest.approx(small, rel=1e-3)
    off = GridOffset(0.4, 0.7, (0, 0))
    # table route: only the cos 3psi row (row 5) is nonzero, so the lookup
    # is that row's unit weights times the coefficient
    data = np.zeros((7, 4, 4, 4))
    data[5] = 1.0
    tab = WeightTable(k=0, p=2, tol=1e-8, n_modes=3, grid_n=4, domain_lo=0.0,
                      stencil_offsets=quad_core.STENCIL_OFFSETS[2],
                      bump_r0=DEFAULT_BUMP.r0, bump_R=DEFAULT_BUMP.R,
                      data=data, m_levels=np.zeros((7, 4, 4), dtype=np.int8))
    np.testing.assert_allclose(interpolate_weights(tab, [term], [off])[0], c3,
                               rtol=1e-12)
    # dual route: the weights move by the mode's own weights times c3
    st = stencil_for_order(2)
    moved = (weights_dual(term, off, st)
             - weights_dual(SingularTerm.from_coefficients(0, 1.0), off, st))
    w3 = weights_dual(SingularTerm.from_coefficients(0, 0.0, a=[0.0, 0.0, 1.0]),
                      off, st)
    assert np.max(np.abs(moved - c3 * w3)) <= 0.1 * small * np.max(np.abs(w3))


def test_table_k1_constant_mode_is_identically_one():
    with tempfile.TemporaryDirectory() as td:
        tab = _tiny_table(td)
        assert np.max(np.abs(tab.data[0] - 1.0)) < 1e-8


# --------------------------------------------------------------------------
# production tables (session-cached fixtures)
# --------------------------------------------------------------------------

def test_table02_interpolation_matches_dual_route(table02, table11):
    # tabulate-and-interpolate must agree with the independent dual-lattice
    # limit at random off-lattice offsets, for the k=0 term on the p=2
    # stencil and the k=1 term on the p=1 one (whose cell is [-1/2, 1/2]^2)
    for table, lo, hi in ((table02, 0.06, 0.94), (table11, -0.44, 0.44)):
        rng = np.random.default_rng(2024)
        term = SingularTerm.from_coefficients(table.k, 1.0, a=[0.8],
                                              b=[0.0, -1.2])
        st = stencil_for_order(table.p)
        worst = 0.0
        for _ in range(20):
            alpha, beta = rng.uniform(lo, hi, size=2)
            off = GridOffset(float(alpha), float(beta), (0, 0))
            [wi] = interpolate_weights(table, [term], [off])
            wd = weights_dual(term, off, st)
            worst = max(worst, float(np.max(np.abs(wi - wd))))
        assert worst < 1e-5, (table.k, table.p, worst)


def test_table02_diagonal_symmetry(table02, tmp_path):
    # swapping the offset across the diagonal maps the constant mode's
    # weights onto each other with the node relabeling [0,3,2,1].  The
    # cached table may come from any build of this library version, so it
    # is held to the sweep's accuracy; a fresh 33x33 build writes one
    # entry from the other, so there they agree exactly (the constant
    # mode's row does not depend on n_modes)
    perm = [0, 3, 2, 1]
    fresh = build_weight_table(0, 2, n_modes=1, processes=2,
                               cache_dir=str(tmp_path)).data[0]
    d = table02.data[0]
    for (mi, ni) in ((3, 11), (7, 20), (15, 4)):
        assert np.max(np.abs(d[mi, ni] - d[ni, mi][perm])) < 2e-7
        assert np.array_equal(fresh[mi, ni], fresh[ni, mi][perm])


@pytest.mark.parametrize("name", ["table02", "table11"])
def test_table_entries_match_dual_route(request, name):
    # a table entry solves the finite-h system at its own h* exactly, so the
    # moment residual of a03 cannot see an entry that is off the limit; the
    # dual-lattice limit can, at the allowance of `ctquad weights verify`
    t = request.getfixturevalue(name)
    stencil = stencil_for_order(t.p)
    rng = np.random.default_rng(7)
    worst = 0.0
    for mi, ni in rng.integers(0, t.grid_n, size=(10, 2)):
        off = GridOffset(t.domain_lo + mi * t.step, t.domain_lo + ni * t.step,
                         (0, 0))
        for row in range(t.n_rows):
            wd = weights_dual(row_term(t.k, row), off, stencil)
            worst = max(worst, float(np.max(np.abs(t.data[row, mi, ni] - wd))))
    assert worst <= 10.0 * t.tol


def test_table11_mode_zero_all_ones(table11):
    assert np.max(np.abs(table11.data[0] - 1.0)) < 1e-7


def test_table_point_near_lattice_rows_converge():
    # at the near-lattice offset (1/32, 0) every row of the (k=2, p=2) sweep
    # converges by a plain pair difference: the sin-2psi row's iterates at
    # levels 7 and 8 differ by 2.8e-9, below tol, so no row stops at the
    # cancellation floor here
    mi, ni, w, lev = _table_point((2, 2, 1, 0, 0.03125, 0.0, 1e-8, 2))
    assert (mi, ni) == (1, 0)
    assert w.shape == (5, 4)
    # row 4 is the sin-2psi mode: accepted from the level-7 iterate
    assert lev[4] == 7
    expected = np.array([0.0461149633, -0.0492354525,
                         1.4408258841, -0.1085844680])
    assert np.max(np.abs(w[4] - expected)) < 5e-8
    # the other modes converge normally and record their own levels
    assert all(2 <= int(m) <= 13 for m in lev)


def test_table_point_accepts_corner_noise_floor():
    # at the on-lattice corner (0, 0) the k=2, p=3 systems floor much higher:
    # the constant mode bottoms at |dw| ~ 1.5e-7 and cos-2psi at ~8.4e-8,
    # both above 10*tol, and the noise past the bottom grows by ~2**kappa
    # per level (the level-11 iterate drifts 3e-4 from the stored one).  the
    # sweep must recognize the floor from the decisive rise and accept the
    # coarse member of the best pair, which is converged to ~tol itself
    mi, ni, w, lev = _table_point((2, 3, 0, 0, 0.0, 0.0, 1e-8, 2))
    assert (mi, ni) == (0, 0)
    assert w.shape == (5, 6)
    assert lev.tolist() == [7, 7, 7, 8, 7]
    w0 = np.array([0.2214756674, 1.0073486429, 1.4289108482,
                   1.0, 1.9926513571, 2.2287193346])
    w3 = np.array([-0.0320866643, 1.0962599938, -0.0641733306,
                   -1.0, 1.9679133358, -1.3095541212])
    assert np.max(np.abs(w[0] - w0)) < 5e-8
    assert np.max(np.abs(w[3] - w3)) < 5e-8
    # |x| cos(psi) times the window is smooth, so its row is the plain
    # re-add of the punctured nodes -- the sweep recovers it to 1e-8
    assert np.max(np.abs(w[1] - np.array([0.0, 1.0, 1.0, 0.0, 2.0, 1.0]))) \
        < 1e-8


@pytest.mark.parametrize("alpha, beta", [
    # cos-11psi dips to 2.2e-6 between levels 3 and 4, then rises: read as
    # a floor above 32*tol, this dip made the (1,1) build raise
    (-0.46875, -0.03125),
    # sin-11psi dips to 2.6e-7 between levels 3 and 4: read as a floor
    # within 32*tol, this dip stored an entry 1.6e-4 off the limit
    (0.0625, -0.40625),
])
def test_table_point_k1p1_matches_dual_route(alpha, beta):
    # for kappa_max = 2 the rounding floor at these levels is ~1e-16, so
    # neither dip is a floor: the sweep must go on to its converged pair
    tol = 1e-8
    _, _, w, _ = _table_point((1, 1, 0, 0, alpha, beta, tol, 16))
    off = GridOffset(alpha, beta, (0, 0))
    for row in range(w.shape[0]):
        wd = weights_dual(row_term(1, row), off, stencil_for_order(1))
        assert np.max(np.abs(w[row] - wd)) < 10 * tol, (row, w[row], wd)
