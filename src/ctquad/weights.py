"""Correction weights for the singular trapezoidal rules.

The order-p rule for s_k(x - x0) * v(x) needs p_tilde weights w_i attached to
the stencil nodes around x0.  They are defined by moment-matching: for every
test function g_j(x) = g(|x|) * (x1/h)**a * (x2/h)**b (g a fixed radial bump),
the corrected rule must integrate s_k * g_j exactly.  That gives a small
linear system per grid offset (alpha, beta):

    sum_i w_i g(h|u_i|) u_i1**a u_i2**b
        = h**(-kappa) * (exact moment) - (punctured lattice sum),

with u_i = node_i - (alpha, beta), kappa = k + 1 + a + b.  The right-hand side
converges as h -> 0; the weights are its limit.

Two routes to the limit are provided and cross-checked against each other:

* `weights_limit` follows the tabulation procedure: solve at h = 2**-j for
  j = 2, 3, ... until successive weight vectors differ by less than a
  tolerance.  The lattice sums are carried in extended precision, but the
  right-hand side still cancels ~kappa*j binary digits, so for large kappa
  the sweep bottoms out above very tight tolerances (the sweep detects and
  reports that honestly).  Table builds use it.
* `weights_dual` evaluates the h -> 0 limit exactly: the deficit between the
  integral and the punctured lattice sum of a homogeneous function is a
  dual-lattice sum, which an Ewald split gives in closed form.  No digits
  cancel, so it reaches ~1e-12 at any kappa, on and off the lattice.  It is
  the one route of the 2D studies and of `ctquad weights verify`.

Weight tables for interpolation are built per Fourier mode of phi on a closed
33x33 cell lattice and combined linearly at lookup time.  The sweep runs at
one offset of each orbit under the square's symmetries; the maps fill the
rest.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from . import quad_core
from .quad_core import (
    GridOffset,
    SingularTerm,
    STENCIL_OFFSETS,
    Stencil,
    correction_monomials,
    stencil_for_order,
)

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "BumpFunction",
    "DEFAULT_BUMP",
    "MomentCache",
    "WeightTable",
    "IllConditionedStencilError",
    "WeightConvergenceError",
    "weights_limit",
    "weights_dual",
    "moment_residual",
    "build_weight_table",
    "save_weight_table",
    "load_weight_table",
    "load_named_table",
    "interpolate_weights",
    "default_cache_dir",
    "table_filename",
    "table_path",
]

_LD = np.longdouble
_CLD = np.clongdouble
_PI_LD = _LD("3.14159265358979323846264338327950288")

TABLE_FORMAT_MAGIC = b"CTWT0001"
LIBRARY_VERSION = "0.1.0"


class IllConditionedStencilError(RuntimeError):
    """The moment-matching system is numerically singular at this offset."""


class WeightConvergenceError(RuntimeError):
    """The h-sweep did not reach the requested tolerance.

    Carries the best iterate, its successive difference and its level, so
    callers can decide whether the partially converged weights are usable.
    `weights_dual` never raises it: it is exact on and off the lattice.
    """

    def __init__(self, msg: str, best_j: int, best_diff: float,
                 best_weights: np.ndarray):
        super().__init__(msg)
        self.best_j = best_j
        self.best_diff = best_diff
        self.best_weights = best_weights


# --------------------------------------------------------------------------
# the radial bump
# --------------------------------------------------------------------------

def _smoothstep(t):
    """C-infinity ramp 0 -> 1 on [0, 1]: F(t) / (F(t) + F(1-t)), F(t) = exp(-1/t).

    Keeps the dtype of a floating input (the lattice sums pass long double).
    """
    t = np.asarray(t)
    if t.dtype.kind != "f":
        t = t.astype(float)
    out = np.zeros_like(t)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    if np.any(mid):
        fu = np.exp(-1.0 / t[mid])
        fv = np.exp(-1.0 / (1.0 - t[mid]))
        out[mid] = fu / (fu + fv)
    return out


@dataclasses.dataclass(frozen=True)
class BumpFunction:
    """Radial cutoff g: identically 1 on [0, r0], identically 0 beyond R.

    The blend on (r0, R) is the smoothstep quotient
        g(r) = F(u) / (F(u) + F(1-u)),  F(t) = exp(-1/t),  u = (R-r)/(R-r0),
    which is C-infinity across both junctions (every derivative of F(1/t)
    vanishes at t -> 0+).  All derivatives of g vanish at r = 0 as well, so
    the moment-matching integrands stay smooth to all orders; the weight
    sweep converges at rates driven by the rule itself, not by the cutoff.
    """

    r0: float = 0.25
    R: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.r0 < self.R:
            raise ValueError(f"need 0 < r0 < R, got r0={self.r0}, R={self.R}")

    def __call__(self, r):
        return _smoothstep((self.R - np.asarray(r)) / (self.R - self.r0))

    def mp_eval(self, r):
        """Same function in mpmath arithmetic (for high-precision moments)."""
        import mpmath as mp  # on first use: loading a table needs none of it

        r0 = mp.mpf(repr(self.r0))
        R = mp.mpf(repr(self.R))
        if r <= r0:
            return mp.mpf(1)
        if r >= R:
            return mp.mpf(0)
        u = (R - r) / (R - r0)
        fu = mp.e ** (-1 / u)
        fv = mp.e ** (-1 / (1 - u))
        return fu / (fu + fv)


DEFAULT_BUMP = BumpFunction()


# --------------------------------------------------------------------------
# exact moments of s_k * g * x^a y^b
# --------------------------------------------------------------------------

def _laurent_cos_sin(a: int, b: int) -> dict[int, tuple[Fraction, Fraction]]:
    """Exact Laurent coefficients of cos(t)**a * sin(t)**b in e**(i*l*t).

    Returns {l: (real, imag)} as Fractions.
    """
    from fractions import Fraction  # on first use, as mpmath and the pool

    coeffs: dict[int, tuple[Fraction, Fraction]] = {0: (Fraction(1), Fraction(0))}

    def mul(c, other):
        out: dict[int, tuple[Fraction, Fraction]] = {}
        for e1, (r1, i1) in c.items():
            for e2, (r2, i2) in other.items():
                e = e1 + e2
                r, i = r1 * r2 - i1 * i2, r1 * i2 + i1 * r2
                pr, pi = out.get(e, (Fraction(0), Fraction(0)))
                out[e] = (pr + r, pi + i)
        return out

    cosf = {1: (Fraction(1, 2), Fraction(0)), -1: (Fraction(1, 2), Fraction(0))}
    sinf = {1: (Fraction(0), Fraction(-1, 2)), -1: (Fraction(0), Fraction(1, 2))}
    for _ in range(a):
        coeffs = mul(coeffs, cosf)
    for _ in range(b):
        coeffs = mul(coeffs, sinf)
    return coeffs


def _mode_laurent(coeffs: Mapping[tuple[str, int], float], a: int, b: int
                  ) -> dict[int, complex]:
    """Laurent coefficients of phi(t) * cos(t)**a * sin(t)**b (floats)."""
    base = _laurent_cos_sin(a, b)
    out: dict[int, complex] = {}

    def add(l: int, val: complex):
        if val != 0:
            out[l] = out.get(l, 0.0) + val

    for (kind, m), c in coeffs.items():
        if c == 0.0:
            continue
        for l, (re, im) in base.items():
            z = complex(re, im)
            if kind == "c":
                if m == 0:
                    add(l, c * z)
                else:
                    add(l + m, 0.5 * c * z)
                    add(l - m, 0.5 * c * z)
            else:
                add(l + m, -0.5j * c * z)
                add(l - m, 0.5j * c * z)
    return out


class MomentCache:
    """Exact radial and angular moments for the moment-matching systems.

    Radial: rho_m = integral_0^inf r**m g(r) dr.  The plateau part is exact;
    the blend region is integrated with adaptive high-precision quadrature
    (40 significant digits), far below the 1e-13 relative target.

    Angular: integral_0^2pi trig(m t) cos(t)**a sin(t)**b dt, computed in
    exact rational arithmetic times pi.
    """

    def __init__(self):
        self._radial: dict[tuple[int, int], np.longdouble] = {}
        self._angular: dict[tuple[str, int, int, int], np.longdouble] = {}

    def radial_moment(self, m: int, dps: int = 40) -> np.longdouble:
        key = (m, dps)
        if key not in self._radial:
            import mpmath as mp

            with mp.workdps(dps):
                r0 = mp.mpf(repr(DEFAULT_BUMP.r0))
                R = mp.mpf(repr(DEFAULT_BUMP.R))

                def f(r):
                    return r ** m * DEFAULT_BUMP.mp_eval(r)

                val = r0 ** (m + 1) / (m + 1) + mp.quad(f, [r0, R])
                self._radial[key] = _LD(mp.nstr(val, 30))
        return self._radial[key]

    def angular_moment(self, mode: tuple[str, int], a: int, b: int) -> np.longdouble:
        kind, m = mode
        key = (kind, m, a, b)
        if key not in self._angular:
            from fractions import Fraction

            co = _laurent_cos_sin(a, b)
            cm = co.get(m, (Fraction(0), Fraction(0)))
            cmm = co.get(-m, (Fraction(0), Fraction(0)))
            if kind == "c":
                val = cm[0] if m == 0 else cm[0] + cmm[0]
            else:
                val = cmm[1] - cm[1]
            scale = 2 * _PI_LD if (kind == "c" and m == 0) else _PI_LD
            self._angular[key] = (_LD(val.numerator) / _LD(val.denominator)) * scale
        return self._angular[key]


_MOMENTS = MomentCache()


# --------------------------------------------------------------------------
# windowed lattice sums (extended precision)
# --------------------------------------------------------------------------

def _lattice_mode_sums(k: int, alpha: float, beta: float, h: float,
                       modes: Sequence[tuple[str, int]],
                       monos: Sequence[tuple[int, int]],
                       stencil_offsets: Sequence[tuple[int, int]]) -> np.ndarray:
    """Punctured sums sum_n g(h|u|) |u|**(k-1) e**(i m psi) u1**a u2**b.

    u = n - (alpha, beta) runs over the integer lattice minus the stencil
    nodes; the window g makes the sum finite.  Returns complex entries of
    shape (len(modes), len(monos)); the cos mode is the real part, the sin
    mode the imaginary part.

    Summation is deterministic: fixed tiling over rows, pairwise np.sum per
    tile, Kahan compensation across tiles, all in extended precision.

    e**(i m psi) is the power chain zz**m, one in-place multiply per m, with
    zz = u/|u|.  Against 40-digit mpmath on 3,000 lattice nodes it errs by
    7.5, 15 and 44 ulp (2**-63) at m = 8, 16 and 48; cos and sin of m * atan2
    err by 8.2, 16 and 104 ulp, since m * psi carries m times psi's rounding.

    Complex values are written through their .real and .imag views by real
    multiplies, which give the bits of the complex forms at a fraction of the
    work.  A real times a complex is (a + 0i)(c + di) = ac + adi exactly, up
    to the sign of a zero, which no sum with a nonzero term keeps; and numpy
    divides (x + yi) by a real r as x * (1/r) + y * (1/r) i.  The products
    go through one complex buffer because np.sum groups the terms of a
    complex array differently from those of a real one.
    """
    K = int(np.ceil(DEFAULT_BUMP.R / h)) + 3
    n1 = np.arange(-K, K + 1, dtype=np.int64)
    ncols = n1.size
    res = np.zeros((len(modes), len(monos)), dtype=_CLD)
    comp = np.zeros_like(res)
    tile = max(16, int(2.0e6 / ncols))
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
        zz = np.zeros(rl.shape, dtype=_CLD)
        inv_r = _LD(1) / rl_safe
        np.multiply(u1l, inv_r, out=zz.real, where=mask)
        np.multiply(u2l, inv_r, out=zz.imag, where=mask)
        zm = np.ones_like(zz)
        prod = np.empty_like(zz)
        for m in range(0, mmax + 1):
            if m > 0:
                np.multiply(zm, zz, out=zm)
            if m not in mode_rows:
                continue
            for jj_m in range(len(monos)):
                np.multiply(monov[jj_m], zm.real, out=prod.real)
                np.multiply(monov[jj_m], zm.imag, out=prod.imag)
                v = np.sum(prod)
                for mi in mode_rows[m]:
                    y = v - comp[mi, jj_m]
                    t = res[mi, jj_m] + y
                    comp[mi, jj_m] = (t - res[mi, jj_m]) - y
                    res[mi, jj_m] = t
    return res


# --------------------------------------------------------------------------
# finite-h weights and the h-sweep
# --------------------------------------------------------------------------

def _system_matrix(offsets: Sequence[tuple[int, int]],
                   monos: Sequence[tuple[int, int]],
                   alpha: float, beta: float, h: float | None) -> np.ndarray:
    """Matrix G[j, i] = g(h|u_i|) u_i1**a_j u_i2**b_j (g == 1 in the limit)."""
    G = np.zeros((len(monos), len(offsets)))
    for i, (sa, sb) in enumerate(offsets):
        u1, u2 = sa - alpha, sb - beta
        gfac = 1.0 if h is None else float(DEFAULT_BUMP(np.asarray(h * math.hypot(u1, u2))))
        for j, (a, b) in enumerate(monos):
            G[j, i] = gfac * u1 ** a * u2 ** b
    return G


def _check_conditioning(G: np.ndarray, alpha: float, beta: float,
                        stencil: Stencil) -> None:
    cond = np.linalg.cond(G)
    if not np.isfinite(cond) or cond > 1e12:
        raise IllConditionedStencilError(
            f"moment-matching system is ill-conditioned (cond={cond:.2e}) at "
            f"(alpha, beta)=({alpha}, {beta}) for stencil {stencil.offsets}")


def _mode_order(mode: tuple[str, int]) -> tuple[int, str]:
    return mode[1], mode[0]


def _moment_rhs(k: int, rows: Sequence[Mapping[tuple[str, int], float]],
                alpha: float, beta: float, h: float,
                monos: Sequence[tuple[int, int]],
                stencil_offsets: Sequence[tuple[int, int]]) -> np.ndarray:
    """Right-hand sides h**(-kappa) * moment - lattice sum.

    One row per {mode: coefficient} map, one column per monomial.  The
    windowed lattice sums are computed once for the union of the rows'
    modes; each row adds up its modes in ascending order in extended
    precision.
    """
    modes = sorted(set().union(*rows), key=_mode_order)
    S = _lattice_mode_sums(k, alpha, beta, h, modes, monos, stencil_offsets)
    hl = _LD(h)
    rhs = np.zeros((len(rows), len(monos)), dtype=_LD)
    for j, (a, b) in enumerate(monos):
        scale = hl ** _LD(-(k + 1 + a + b))
        part = {}
        for mi, mode in enumerate(modes):
            mom = _MOMENTS.radial_moment(k + a + b) * _MOMENTS.angular_moment(mode, a, b)
            lat = S[mi, j].real if mode[0] == "c" else S[mi, j].imag
            part[mode] = scale * mom - lat
        for i, coeffs in enumerate(rows):
            tot = _LD(0)
            for mode in sorted(coeffs, key=_mode_order):
                tot += _LD(coeffs[mode]) * part[mode]
            rhs[i, j] = tot
    return rhs.astype(float)


def _finite_h_system(term: SingularTerm, offset: GridOffset, stencil: Stencil,
                     h: float) -> tuple[np.ndarray, np.ndarray]:
    """Matrix and right-hand side of the moment-matching system at spacing h."""
    monos = correction_monomials(stencil.p)
    G = _system_matrix(stencil.offsets, monos, offset.alpha, offset.beta, h)
    rhs = _moment_rhs(term.k, [term.coefficients], offset.alpha,
                      offset.beta, h, monos, stencil.offsets)
    return G, rhs[0]


def moment_residual(term: SingularTerm, offset: GridOffset, stencil: Stencil,
                    weights: np.ndarray, h: float) -> np.ndarray:
    """Residuals of the moment-matching equations at spacing h.

    Returns sum_i w_i g_j(u_i) - (scaled moment - lattice sum) per monomial;
    small residuals certify the weights against the defining integrals.
    """
    G, rhs = _finite_h_system(term, offset, stencil, h)
    return G @ np.asarray(weights, dtype=float) - rhs


def default_tolerance(p: int) -> float:
    """Sweep tolerance: 1e-8 up to order 3, 1e-4 for the order-4 rule."""
    return 1e-4 if p >= 4 else 1e-8


# The sweep solves at h = 2**-j for j = J_START, ..., J_CAP.
J_START = 2
J_CAP = 14

# Stall handling.  A sweep's successive differences trace a V once extended
# precision runs out: superalgebraic decay down to a cancellation floor,
# then growth by roughly 2**kappa per halving level.  The right-hand side at
# level j cancels about kappa*j binary digits, so the floor at level j cannot
# sit far above the rounding floor eps_LD * 2**(kappa_max*j) (eps_LD the
# extended-precision epsilon, kappa_max the largest kappa of the system).  A
# bottom counts as the cancellation floor only when it lies within
# STALL_FLOOR_MARGIN of that rounding floor at the finer level of its pair;
# anything higher is a chance near-coincidence of two pre-asymptotic iterates
# and the sweep goes on through it.
#
# Measured floors of the k=2 stall cases (kappa_max = 5, bottoms 8e-8..2e-7
# at levels 8..9) sit at 0.02..1.3 times the rounding floor.  Dips of the
# (k=1, p=1) table sweeps (kappa_max = 2) sit 1e10..1e11 times above it:
# 2.6e-7 and 2.2e-6 at level 4, where the rounding floor is 2.8e-17.  Both
# lie below 1e-4 of the descent's peak and one within STALL_ACCEPT_FACTOR*tol,
# so neither of those tests is evidence of a floor.  The margin of 1e3
# leaves three decades above the highest measured floor and about seven
# below the lowest measured dip; the k=2 stall cases are recognized at any
# margin from 1e2 to 1e4.  A floored best iterate is accepted into tables
# only when its difference came within STALL_ACCEPT_FACTOR*tol;
# weights_limit never accepts one.
STALL_FLOOR_MARGIN = 1e3
STALL_ACCEPT_FACTOR = 32.0


def _stall_recognized(diff: float, best: float, rising: int,
                      kappa_max: int, j: int) -> bool:
    """True when a rising difference sequence is a converged noise bottom.

    Evidence required: the rise is decisive (>= 4x the bottom; cancellation
    noise grows ~2**kappa >= 8 per level) or persistent (two levels without
    improvement), and the bottom lies within STALL_FLOOR_MARGIN of the
    rounding floor eps_LD * 2**(kappa_max*j), j the finer level of the
    bottom's pair.
    """
    if diff < 4.0 * best and rising < 2:
        return False
    floor = float(np.finfo(_LD).eps) * 2.0 ** (kappa_max * j)
    return best <= STALL_FLOOR_MARGIN * floor


def _sweep(k: int, stencil: Stencil, alpha: float, beta: float,
           rows: Sequence[Mapping[tuple[str, int], float]], tol: float
           ) -> tuple[np.ndarray, np.ndarray, dict[int, float]]:
    """The halving sweep for several right-hand sides at one offset.

    rows holds one {mode: coefficient} map of phi per weight vector wanted.
    At each level h = 2**-j the lattice sums are shared by the rows still
    running and the system is checked for conditioning once.  A row stops
    when the max-norm difference of its successive weight vectors drops to
    tol; its weights are the coarser member of that pair and its level that
    member's j.  A row whose differences turn upward from a bottom at the
    rounding floor (see _stall_recognized) stops there with its best
    iterate; a bottom far above the rounding floor is pre-asymptotic (a
    chance near-coincidence of two iterates, or the wobble of barely
    resolved angular modes) and the sweep goes on through it.

    Returns (weights, levels, floored): floored maps each row that stopped
    at the floor to its best difference.  Raises WeightConvergenceError,
    with the best iterate of the first row left, when rows are still
    running at J_CAP.
    """
    monos = correction_monomials(stencil.p)
    kappa_max = k + 1 + max(a + b for a, b in monos)
    weights = np.zeros((len(rows), len(stencil.offsets)))
    levels = np.zeros(len(rows), dtype=np.int8)
    floored: dict[int, float] = {}
    active = list(range(len(rows)))
    prev: dict[int, np.ndarray] = {}
    best: dict[int, tuple[float, int, np.ndarray]] = {}
    rising: dict[int, int] = {}
    for j in range(J_START, J_CAP + 1):
        h = 2.0 ** -j
        G = _system_matrix(stencil.offsets, monos, alpha, beta, h)
        _check_conditioning(G, alpha, beta, stencil)
        rhs = _moment_rhs(k, [rows[r] for r in active], alpha, beta, h,
                          monos, stencil.offsets)
        still = []
        for r, b in zip(active, rhs):
            w = np.linalg.solve(G, b)
            if r in prev:
                diff = float(np.max(np.abs(w - prev[r])))
                if diff <= tol:
                    weights[r], levels[r] = prev[r], j - 1
                    continue
                if r not in best or diff < best[r][0]:
                    best[r] = (diff, j - 1, prev[r])
                    rising[r] = 0
                else:
                    rising[r] += 1
                    if _stall_recognized(diff, best[r][0], rising[r],
                                         kappa_max, best[r][1] + 1):
                        floored[r], levels[r], weights[r] = best[r]
                        continue
            prev[r] = w
            still.append(r)
        active = still
        if not active:
            return weights, levels, floored
    best_diff, best_j, best_w = best[active[0]]
    raise WeightConvergenceError(
        f"weight sweep did not converge by j={J_CAP} (best |dw|={best_diff:.3e}, "
        f"tol={tol:.1e}) for k={k}, p={stencil.p}, (alpha,beta)=({alpha}, "
        f"{beta}); unconverged rows: {active}", best_j, best_diff, best_w)


def weights_limit(term: SingularTerm, offset: GridOffset, stencil: Stencil,
                  tol: float | None = None) -> tuple[np.ndarray, float]:
    """h -> 0 limit of the correction weights by the halving sweep.

    Returns the weights and h_star, the spacing they were accepted at (see
    _sweep).  The right-hand side of the system cancels about kappa*j binary
    digits at level j, so for kappa = k+1+a+b large the achievable
    difference bottoms out before tight tolerances are reached; when the
    sweep stops at that cancellation floor, or runs out of levels, this
    raises WeightConvergenceError carrying the best iterate.
    """
    if tol is None:
        tol = default_tolerance(stencil.p)
    weights, levels, floored = _sweep(term.k, stencil, offset.alpha,
                                      offset.beta, [term.coefficients], tol)
    if floored:
        raise WeightConvergenceError(
            f"weight sweep stalled at |dw|={floored[0]:.3e} "
            f"(tol={tol:.1e}) for k={term.k}, p={stencil.p}, "
            f"(alpha,beta)=({offset.alpha}, {offset.beta}); "
            f"differences are rising again, which is the "
            f"cancellation floor of the finite-h systems",
            int(levels[0]), floored[0], weights[0])
    return weights[0], 2.0 ** -int(levels[0])


# --------------------------------------------------------------------------
# the dual-lattice limit (exact h -> 0 constants)
# --------------------------------------------------------------------------

def _dual_coefficient(kappa: int, ell: int) -> complex:
    """Fourier transform constant of |u|**(kappa-2) e**(i ell psi).

    c(kappa, ell) = (-i)**|ell| pi**(1-kappa) Gamma((|ell|+kappa)/2)
                    / Gamma(1 + (|ell|-kappa)/2).

    Exactly zero when the Gamma in the denominator sits at a pole, i.e. when
    |ell| <= kappa-2 with ell and kappa of equal parity -- those angular
    pieces are plain polynomials and have no lattice deficit.
    """
    al = abs(ell)
    zden = 1.0 + (al - kappa) / 2.0
    if zden <= 0.0 and zden == int(zden):
        return 0.0 + 0.0j
    val = math.pi ** (1 - kappa) * math.gamma((al + kappa) / 2.0) / math.gamma(zden)
    return (-1j) ** al * val


def _scaled_upper_gamma(a: float, x: np.ndarray) -> np.ndarray:
    """Gamma(a, x) * x**(-a) for x > 0, and its continued value -1/a at x = 0.

    For a <= 0 (a integer or half-integer) Gamma(a, x) comes by downward
    recurrence, Gamma(b-1, x) = (Gamma(b, x) - x**(b-1) e**-x) / (b-1), from
    Gamma(0, x) = E1(x) or Gamma(1/2, x) = sqrt(pi) erfc(sqrt(x)).
    """
    from scipy import special  # on first use: keeps scipy off the import path
    hit = x == 0.0
    x = np.where(hit, 1.0, x)
    if a > 0:
        g = special.gamma(a) * special.gammaincc(a, x)
    else:
        b = a % 1.0
        g = special.exp1(x) if b == 0.0 else math.sqrt(math.pi) * special.erfc(np.sqrt(x))
        while b > a:
            g = (g - x ** (b - 1.0) * np.exp(-x)) / (b - 1.0)
            b -= 1.0
    g = g * x ** -a
    if hit.any():
        g[hit] = -1.0 / a
    return g


# Both Ewald sums decay like exp(-pi r**2); radius 6 leaves exp(-36 pi) ~ 1e-49
EWALD_RADIUS = 6


def _dual_lattice_sums(kappa_ells: Iterable[tuple[int, int]],
                       w: tuple[float, float]) -> dict[tuple[int, int], complex]:
    """Z(kappa, ell; w) = sum over nonzero lattice nu of
    rho**(-kappa) e**(i ell theta) e**(-2 pi i nu . w),

    continued analytically in kappa, in closed form.  With L = |ell|,
    s = kappa + L, a = (L - kappa + 2)/2 and Y(x) = (x1 + i sgn(ell) x2)**L,
    splitting the Mellin integral of rho**(-s) at t = 1 and applying Poisson
    summation with Hecke's identity to the small-t half gives

        Z = pi**(s/2) / Gamma(s/2) * [
              sum_{nu != 0} Y(nu) e**(-2 pi i nu.w) Gamma(s/2, pi|nu|**2) (pi|nu|**2)**(-s/2)
            + (-i)**L sum_n Y(n+w) Gamma(a, pi|n+w|**2) (pi|n+w|**2)**(-a)
            - [L = 0] * 2/s ].

    For w on the lattice the image n = -w takes its continued value -1/a,
    so only L = 0 sees it.
    """
    from scipy import special
    w = (w[0] - round(w[0]), w[1] - round(w[1]))
    n = np.arange(-EWALD_RADIUS, EWALD_RADIUS + 1)
    N1, N2 = (m.ravel() for m in np.meshgrid(n, n, indexing="ij"))
    zero = (N1 == 0) & (N2 == 0)
    v1, v2 = N1[~zero], N2[~zero]
    xv = math.pi * (v1 ** 2 + v2 ** 2)
    phase = np.exp(-2j * math.pi * (v1 * w[0] + v2 * w[1]))
    r1, r2 = N1 + w[0], N2 + w[1]
    xr = math.pi * (r1 ** 2 + r2 ** 2)
    out: dict[tuple[int, int], complex] = {}
    for kappa, ell in sorted(set(kappa_ells)):
        L = abs(ell)
        s, a = kappa + L, (L - kappa + 2) / 2.0
        sg = 1j if ell >= 0 else -1j
        fourier = np.sum((v1 + sg * v2) ** L * phase
                         * _scaled_upper_gamma(s / 2.0, xv))
        images = np.sum((r1 + sg * r2) ** L * _scaled_upper_gamma(a, xr))
        total = fourier + (-1j) ** L * images - (2.0 / s if L == 0 else 0.0)
        out[(kappa, ell)] = complex(math.pi ** (s / 2.0) / special.gamma(s / 2.0) * total)
    return out


# the singular point sits on a stencil node when it is this close to one
NODE_RADIUS = 1e-9


def weights_dual(term: SingularTerm, offset: GridOffset,
                 stencil: Stencil) -> np.ndarray:
    """Correction weights directly in the h -> 0 limit.

    In the limit the bump drops out of the system matrix and the right-hand
    side becomes the lattice deficit of the homogeneous function
    f(u) = |u|**(k-1) phi(psi) u1**a u2**b = rho**(kappa-2) sum_ell y_ell
    e**(i ell psi): the stencil values of f minus the dual-lattice sums
    weighted by the Fourier transform constants of each harmonic.  The sums
    are in closed form and nothing cancels, so this is exact to ~1e-12 at
    any kappa, where the finite-h sweep floors (kappa >= 5).

    Valid on and off the lattice.  When the singular point sits on a stencil
    node (within NODE_RADIUS), the offset is snapped onto it, the node's
    value of f is left out of the stencil part (for kappa = 2 the constant
    harmonic y_0 stands in for it), and the dual sums take their continued
    value at that image.
    """
    alpha, beta = offset.alpha, offset.beta
    node = next(((float(sa), float(sb)) for sa, sb in stencil.offsets
                 if math.hypot(sa - alpha, sb - beta) < NODE_RADIUS), None)
    if node is not None:
        alpha, beta = node
    monos = correction_monomials(stencil.p)
    U = np.array([(sa - alpha, sb - beta) for (sa, sb) in stencil.offsets])
    # the stencil part sums f over u != 0; the dual sums carry u = 0
    U = U[np.any(U != 0.0, axis=1)]
    # gather every (kappa, ell) needed across the monomials
    lau: dict[tuple[int, int], dict[int, complex]] = {}
    pairs: set[tuple[int, int]] = set()
    for (a, b) in monos:
        kappa = term.k + 1 + a + b
        y = _mode_laurent(term.coefficients, a, b)
        lau[(a, b)] = y
        for ell in y:
            if _dual_coefficient(kappa, ell) != 0:
                pairs.add((kappa, ell))
    zsums = _dual_lattice_sums(pairs, (alpha, beta))
    rhs = np.zeros(len(monos))
    svals = term.evaluate(U[:, 0], U[:, 1])
    for j, (a, b) in enumerate(monos):
        kappa = term.k + 1 + a + b
        # stencil part of the deficit
        fvals = svals * U[:, 0] ** a * U[:, 1] ** b
        total = complex(np.sum(fvals))
        if node is not None and kappa == 2:
            total += lau[(a, b)].get(0, 0.0)
        # dual part
        for ell, y in lau[(a, b)].items():
            c = _dual_coefficient(kappa, ell)
            if c != 0:
                total -= y * c * zsums[(kappa, ell)]
        if abs(total.imag) > 1e-9 * max(1.0, abs(total.real)):
            raise RuntimeError(f"dual-lattice deficit has a non-real part "
                               f"({total.imag:.2e}) for monomial {(a, b)}; "
                               f"harmonic bookkeeping is inconsistent")
        rhs[j] = total.real
    G = _system_matrix(stencil.offsets, monos, alpha, beta, None)
    _check_conditioning(G, alpha, beta, stencil)
    return np.linalg.solve(G, rhs)


# --------------------------------------------------------------------------
# weight tables
# --------------------------------------------------------------------------

@dataclasses.dataclass
class WeightTable:
    """Per-mode correction weights on a closed (grid_n x grid_n) offset lattice.

    data[row, m, n, i] is the weight of stencil node i for the phi mode of
    row `row` at offset (domain_lo + m*step, domain_lo + n*step): row 0 is
    the constant mode, rows 2j-1 and 2j are cos(j psi) and sin(j psi)
    (`_row_mode` and its inverse `_mode_row`).
    m_levels holds the sweep level each entry was accepted at (h* = 2**-M).
    Offsets that a symmetry of the square carries onto each other share one
    sweep: the build solves one point of each orbit and writes the others'
    entries and levels from it (`_CellMap`).  Mirrored entries are then
    equal bit for bit, except at the mirror of a solved point that a map
    fixes (a diagonal, a midline, the centre), which holds to rounding.
    """

    k: int
    p: int
    tol: float
    n_modes: int
    grid_n: int
    domain_lo: float
    stencil_offsets: tuple[tuple[int, int], ...]
    bump_r0: float
    bump_R: float
    data: np.ndarray
    m_levels: np.ndarray
    version: str = LIBRARY_VERSION

    @property
    def step(self) -> float:
        return 1.0 / (self.grid_n - 1)

    @property
    def n_rows(self) -> int:
        return 2 * self.n_modes + 1

    def metadata(self) -> dict:
        return {
            "format": TABLE_FORMAT_MAGIC.decode(),
            "version": self.version,
            "k": self.k,
            "p": self.p,
            "tol": self.tol,
            "n_modes": self.n_modes,
            "grid_n": self.grid_n,
            "domain_lo": self.domain_lo,
            "stencil_offsets": [list(o) for o in self.stencil_offsets],
            "bump_r0": self.bump_r0,
            "bump_R": self.bump_R,
            "dtype": "<f8",
            "shape": list(self.data.shape),
        }


def _row_mode(row: int) -> tuple[str, int]:
    """The phi mode of table row `row`: ("c", 0), then ("c", m), ("s", m)."""
    if row == 0:
        return ("c", 0)
    m = (row + 1) // 2
    return ("c", m) if row % 2 == 1 else ("s", m)


def _mode_row(mode: tuple[str, int]) -> int:
    """The table row of a phi mode; the inverse of `_row_mode`."""
    kind, m = mode
    return 0 if m == 0 else (2 * m - 1 if kind == "c" else 2 * m)


def row_term(k: int, row: int) -> SingularTerm:
    """The singular term of table row `row`: phi = 1, cos(m psi) or sin(m psi)."""
    kind, m = _row_mode(row)
    if m == 0:
        return SingularTerm.from_coefficients(k, 1.0)
    coef = [0.0] * (m - 1) + [1.0]
    if kind == "c":
        return SingularTerm.from_coefficients(k, 0.0, a=coef)
    return SingularTerm.from_coefficients(k, 0.0, b=coef)


def _cell_lo(p: int) -> float:
    """Low corner of the order-p offset cell: [-1/2, 1/2]^2 for p = 1
    (nearest-node convention), otherwise [0, 1]^2."""
    return -0.5 if p == 1 else 0.0


def _about_centre(L: np.ndarray, x, c2: int) -> tuple[int, int]:
    """Image of the integer point x under y -> c + L(y - c), with 2c = (c2, c2)."""
    q = (L @ (2 * np.asarray(x) - c2) + c2) // 2
    return int(q[0]), int(q[1])


@dataclasses.dataclass(frozen=True)
class _CellMap:
    """A map of the square that carries the order-p stencil onto itself.

    `matrix` is a signed permutation L acting about the centre c of the
    offset cell, x -> c + L(x - c).  It carries the lattice, the stencil
    and the radial bump onto themselves, so the moment system at the image
    of x for an angular factor phi is the system at x for the factor
    phi(arg(L u)), tested against the monomials composed with L, which span
    the same space: its weights are those at x, moved to the image nodes.
    For a unit mode, L z = eps*z or eps*conj(z) with z = e**(i psi) and eps
    in {1, i, -1, -i}, so cos(m psi) and sin(m psi) become the real and
    imaginary parts of (L z)**m, each one signed row:
        data[r, image, nodes[i]] = signs[r] * data[rows[r], x, i].
    """

    matrix: np.ndarray
    rows: np.ndarray
    signs: np.ndarray
    nodes: np.ndarray

    def image(self, mi: int, ni: int, grid_n: int) -> tuple[int, int]:
        """Lattice indices of the image of the offset at indices (mi, ni)."""
        return _about_centre(self.matrix, (mi, ni), grid_n - 1)


def _cell_maps(p: int, n_modes: int) -> list[_CellMap]:
    """The maps of the square that carry the order-p stencil and its
    monomials onto themselves, the identity first.

    For p = 1, 2 and 4 these are all eight; for p = 3 only the identity.
    """
    offsets = stencil_for_order(p).offsets
    monos = set(correction_monomials(p))
    c2 = round(2 * _cell_lo(p) + 1)       # twice the cell centre, in nodes
    maps = []
    for swap in (False, True):
        for sx in (1, -1):
            for sy in (1, -1):
                L = np.diag([sx, sy])
                if swap:
                    L = L[::-1]
                    if {(b, a) for a, b in monos} != monos:
                        continue
                images = [_about_centre(L, s, c2) for s in offsets]
                if set(images) != set(offsets):
                    continue
                eps = complex(L[0, 0], L[1, 0])                  # L e1
                conj = -1 if complex(L[0, 1], L[1, 1]) == -1j * eps else 1
                rows, signs = [], []
                for r in range(2 * n_modes + 1):
                    kind, m = _row_mode(r)
                    # (L z)**m = e * (cos m psi + i * conj * sin m psi)
                    e = eps ** m
                    re = ("c", e.real) if e.real else ("s", -conj * e.imag)
                    im = ("c", e.imag) if e.imag else ("s", conj * e.real)
                    src, sign = re if kind == "c" else im
                    rows.append(_mode_row((src, m)))
                    signs.append(sign)
                maps.append(_CellMap(L, np.array(rows), np.array(signs),
                                     np.array([offsets.index(s) for s in images])))
    return maps


def _table_orbits(p: int, n_modes: int, grid_n: int
                  ) -> list[list[tuple[tuple[int, int], _CellMap]]]:
    """The offset lattice split into orbits under `_cell_maps`.

    One list per orbit, ordered by its first point in row-major order.  The
    first point comes with the identity and is the one solved; every other
    point comes with a map that carries the first point onto it.  For p = 3
    every orbit is a single point.
    """
    maps = _cell_maps(p, n_modes)
    seen: set[tuple[int, int]] = set()
    orbits = []
    for mi in range(grid_n):
        for ni in range(grid_n):
            if (mi, ni) in seen:
                continue
            orbit = []
            for cm in maps:
                q = cm.image(mi, ni, grid_n)
                if q not in seen:
                    seen.add(q)
                    orbit.append((q, cm))
            orbits.append(orbit)
    return orbits


def _table_point(args) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Worker: all per-mode weights at one lattice offset (one joint sweep).

    A row that stops at the cancellation floor is accepted with its best
    iterate if that pair difference came within STALL_ACCEPT_FACTOR*tol --
    its level is recorded in m_levels as usual -- otherwise the floor is
    above the certifiable accuracy and the point fails.  Measured floors for
    the tightest tables reach ~22*tol at the worst offsets; the bound still
    sits two orders below the offset interpolation error that dominates
    every table-mediated evaluation.
    """
    k, p, mi, ni, alpha, beta, tol, n_modes = args
    rows = [{_row_mode(r): 1.0} for r in range(2 * n_modes + 1)]
    weights, levels, floored = _sweep(k, stencil_for_order(p), alpha, beta,
                                      rows, tol)
    for r, diff in floored.items():
        if diff > STALL_ACCEPT_FACTOR * tol:
            raise WeightConvergenceError(
                f"table sweep noise floor |dw|={diff:.3e} exceeds "
                f"{STALL_ACCEPT_FACTOR:.0f}*tol={STALL_ACCEPT_FACTOR * tol:.1e} "
                f"at (alpha, beta)=({alpha}, {beta}), mode row {r}",
                int(levels[r]), diff, weights[r])
    return mi, ni, weights, levels


def default_cache_dir() -> str:
    env = os.environ.get("CTQUAD_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "ctquad")


def table_filename(k: int, p: int, tol: float | None = None,
                   n_modes: int = 16, grid_n: int = 33) -> str:
    """Cache file name of the (k, p) table; tol defaults per order.

    Every build, load and lookup names its table here, so this is where the
    parameters are checked: a ValueError names the one out of range.
    """
    tol = default_tolerance(p) if tol is None else tol
    for name, value, ok, want in (
            ("k", k, k >= 0, ">= 0"),
            ("p", p, p in (1, 2, 3, 4), "one of 1, 2, 3, 4"),
            ("tol", tol, math.isfinite(tol) and tol > 0.0, "finite and > 0"),
            ("n_modes", n_modes, n_modes >= 0, ">= 0"),
            ("grid_n", grid_n, grid_n >= 2, ">= 2")):
        if not ok:
            raise ValueError(f"table parameter {name} must be {want}, "
                             f"got {value!r}")
    return f"ctwt_k{k}_p{p}_N{n_modes}_g{grid_n}_tol{tol:.1e}.ctwt"


def table_path(k: int, p: int, tol: float | None = None, n_modes: int = 16,
               grid_n: int = 33, cache_dir: str | None = None) -> str:
    """Path of the (k, p) table file in cache_dir (default_cache_dir if None)."""
    return os.path.join(cache_dir or default_cache_dir(),
                        table_filename(k, p, tol, n_modes, grid_n))


def build_weight_table(k: int, p: int, tol: float | None = None,
                       n_modes: int = 16, grid_n: int = 33,
                       processes: int | None = None,
                       cache_dir: str | None = None,
                       force: bool = False) -> WeightTable:
    """Build (or load from cache) the per-mode weight table for (k, p).

    The offsets run over the closed unit cell, 33x33 by default; for p = 1
    the cell is [-1/2, 1/2]^2 (nearest-node convention), otherwise [0, 1]^2.
    The square's reflections and the axis swap carry the cell, the p = 1, 2
    and 4 stencils and their moment systems onto themselves, so the build
    solves one point of each orbit (`_table_orbits`; 153 of the 1,089
    points of a 33x33 lattice) and fills the rest of the orbit from it by
    the maps' signed rows and permuted nodes (`_CellMap`).  The p = 3
    stencil has no such symmetry and every point is its own orbit.
    The solved points are independent jobs (no shared mutable state), so
    the build parallelizes over them.  The pool is handed one point at a
    time: a point on a stencil node costs two to three times one off it, and
    larger chunks leave a worker idle at the end of small builds.  Results
    are read in job order, so the output is byte-identical at any worker
    count.  The radial moments of the stencil's monomials are computed
    once, before the pool starts, and forked workers inherit them instead
    of repeating the quadratures.  The default pool has
    `quad_core._pool_size()` processes, at most 16, and no pool has more
    processes than points to solve; one process builds in-process.
    """
    if tol is None:
        tol = default_tolerance(p)
    path = table_path(k, p, tol, n_modes, grid_n, cache_dir)
    if not force and os.path.exists(path):
        return load_named_table(path, k, p, tol, n_modes, grid_n)
    domain_lo = _cell_lo(p)
    step = 1.0 / (grid_n - 1)
    orbits = _table_orbits(p, n_modes, grid_n)
    jobs = [(k, p, mi, ni, domain_lo + mi * step, domain_lo + ni * step,
             tol, n_modes) for (mi, ni), _ in (orbit[0] for orbit in orbits)]
    n_rows = 2 * n_modes + 1
    stencil = stencil_for_order(p)
    data = np.zeros((n_rows, grid_n, grid_n, len(stencil.offsets)))
    m_levels = np.zeros((n_rows, grid_n, grid_n), dtype=np.int8)
    for a, b in correction_monomials(p):
        _MOMENTS.radial_moment(k + a + b)
    nproc = min(processes or min(quad_core._pool_size(), 16), len(jobs))
    if nproc > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=nproc) as ex:
            solved = list(ex.map(_table_point, jobs))
    else:
        solved = [_table_point(job) for job in jobs]
    for orbit, (_, _, w, lev) in zip(orbits, solved):
        for (mi, ni), cm in orbit:
            data[:, mi, ni, cm.nodes] = cm.signs[:, None] * w[cm.rows]
            m_levels[:, mi, ni] = lev[cm.rows]
    table = WeightTable(k=k, p=p, tol=tol, n_modes=n_modes, grid_n=grid_n,
                        domain_lo=domain_lo, stencil_offsets=stencil.offsets,
                        bump_r0=DEFAULT_BUMP.r0, bump_R=DEFAULT_BUMP.R,
                        data=data, m_levels=m_levels)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    save_weight_table(table, path)
    return table


def _write_atomic(path: str, blob: bytes) -> None:
    """Write blob to path through a temporary file in the same directory, so
    an interrupted write never leaves a partial file under the final name."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_weight_table(table: WeightTable, path: str) -> None:
    """Write the binary table, one file.

    Layout: 8-byte magic, uint32 little-endian header length, UTF-8 JSON
    header, then the weight block and the level block as raw little-endian
    arrays in C order.  The file is written to a temporary name and moved
    into place.
    """
    header = json.dumps(table.metadata(), sort_keys=True).encode()
    _write_atomic(path, b"".join([
        TABLE_FORMAT_MAGIC,
        np.uint32(len(header)).tobytes(),
        header,
        np.ascontiguousarray(table.data, dtype="<f8").tobytes(),
        np.ascontiguousarray(table.m_levels, dtype="<i1").tobytes()]))


def load_weight_table(path: str) -> WeightTable:
    """Read a table written by `save_weight_table`.

    A file that is not a table, is truncated, or was built by another
    library version is refused with a ValueError that names it, and so is
    a header whose shape, stencil, cell or bump no build can have written.
    """
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != TABLE_FORMAT_MAGIC:
            raise ValueError(f"{path}: not a weight table (bad magic {magic!r}); "
                             f"this build reads format {TABLE_FORMAT_MAGIC.decode()} "
                             f"-- rebuild the table with the current version")
        hlen = int.from_bytes(f.read(4), "little")
        try:
            meta = json.loads(f.read(hlen).decode())
        except ValueError:
            raise ValueError(f"{path}: truncated or corrupt table header "
                             f"-- rebuild the table") from None
        if meta["version"] != LIBRARY_VERSION:
            raise ValueError(f"{path}: built by library version "
                             f"{meta['version']}, this is {LIBRARY_VERSION} "
                             f"-- rebuild the table")
        body = f.read()
    stencil = [list(o) for o in STENCIL_OFFSETS.get(meta["p"], ())]
    _refuse_header(path, meta, {
        "shape": [2 * meta["n_modes"] + 1, meta["grid_n"], meta["grid_n"],
                  len(stencil)],
        "stencil_offsets": stencil, "domain_lo": _cell_lo(meta["p"]),
        "bump_r0": DEFAULT_BUMP.r0, "bump_R": DEFAULT_BUMP.R})
    shape = tuple(meta["shape"])
    count = int(np.prod(shape))
    n_data, n_levels = 8 * count, count // shape[-1]
    if len(body) < n_data + n_levels:
        raise ValueError(f"{path}: truncated weight table ({len(body)} bytes "
                         f"after the header, shape {list(shape)} needs "
                         f"{n_data + n_levels}) -- rebuild the table")
    data = np.frombuffer(body[:n_data], dtype="<f8").reshape(shape).copy()
    m_levels = np.frombuffer(body[n_data:n_data + n_levels],
                             dtype="<i1").reshape(shape[:-1]).copy()
    return WeightTable(
        k=meta["k"], p=meta["p"], tol=meta["tol"], n_modes=meta["n_modes"],
        grid_n=meta["grid_n"], domain_lo=meta["domain_lo"],
        stencil_offsets=tuple(tuple(o) for o in meta["stencil_offsets"]),
        bump_r0=meta["bump_r0"], bump_R=meta["bump_R"],
        data=data, m_levels=m_levels, version=meta["version"])


def load_named_table(path: str, k: int, p: int, tol: float | None = None,
                     n_modes: int = 16, grid_n: int = 33) -> WeightTable:
    """`load_weight_table` of the file that `table_path` names for these
    parameters, refusing also a header built for other parameters."""
    table = load_weight_table(path)
    tol = default_tolerance(p) if tol is None else tol
    _refuse_header(path, table.metadata(), {"k": k, "p": p, "tol": tol,
                                            "n_modes": n_modes, "grid_n": grid_n})
    return table


def _refuse_header(path: str, header: dict, expected: dict) -> None:
    """Raise naming the first field of ``expected`` the header differs in."""
    for name, want in expected.items():
        if header[name] != want:
            raise ValueError(f"{path}: header field {name} is "
                             f"{header[name]!r}, expected {want!r} "
                             f"-- rebuild the table")


def interpolate_weights(table: WeightTable, terms, offsets) -> np.ndarray:
    """Weights for arbitrary phi and off-lattice (alpha, beta), one row each.

    Combines the tabulated per-mode weights linearly with the coefficients
    of each term's mode map (`SingularTerm.coefficients`, the same modes
    the dual route reads), then interpolates over the offset cell with
    tensor cubic Lagrange polynomials on the surrounding 4x4 lattice patch.
    At lattice points the interpolation reproduces table entries exactly.
    Modes beyond the table's range are dropped.

    ``terms`` and ``offsets`` are equal-length sequences of terms and their
    GridOffsets (a batch of planes), giving one row of the stencil's
    weights each.  The batch gathers the terms' 4x4 windows of each table
    row at once, weights them by the coefficients in row order, and
    contracts the patches with the Lagrange bases in two sums of four: each
    row's weights depend on its own term and offset alone.
    """
    terms, offsets = list(terms), list(offsets)
    if len(terms) != len(offsets):
        raise ValueError(f"{len(terms)} terms for {len(offsets)} offsets")
    for t in terms:
        if t.k != table.k:
            raise ValueError(f"table is for k={table.k}, term has k={t.k}")
    if table.grid_n < 4:
        raise ValueError(f"cubic interpolation needs a lattice of at least "
                         f"4x4 offsets; this table has grid_n={table.grid_n}")
    grid_n, step, lo = table.grid_n, table.step, table.domain_lo
    hi = lo + 1.0
    ab = np.array([(o.alpha, o.beta) for o in offsets], dtype=float).reshape(-1, 2)
    eps = 1e-12
    outside = np.any((ab < lo - eps) | (ab > hi + eps), axis=1)
    if np.any(outside):
        a_off, b_off = ab[np.argmax(outside)]
        raise ValueError(f"offset ({a_off}, {b_off}) outside the table cell "
                         f"[{lo}, {hi}]^2")

    # each offset's window start and cubic Lagrange basis, per axis
    x = (ab - lo) / step
    start = np.clip(np.floor(x).astype(np.int64) - 1, 0, grid_n - 4)
    xi = x - start
    basis = np.ones(ab.shape + (4,))
    for jn in range(4):
        for kn in range(4):
            if kn != jn:
                basis[..., jn] *= (xi - float(kn)) / float(jn - kn)

    # the terms' coefficients in table row order, to the table's last mode
    coef = np.zeros((len(terms), table.n_rows))
    for i, t in enumerate(terms):
        for mode, c in t.coefficients.items():
            if mode[1] > table.n_modes:
                break
            coef[i, _mode_row(mode)] = c
    # each term's 4x4 window of every row it reads, weighted in row order
    reach = np.arange(4)
    ia = start[:, 0, None, None] + reach[:, None]
    ib = start[:, 1, None, None] + reach
    patch = np.zeros((len(terms), 4, 4, table.data.shape[-1]))
    for row in np.flatnonzero(np.any(coef != 0.0, axis=0)):
        patch += coef[:, row, None, None, None] * table.data[row][ia, ib]
    out = (basis[:, 1, None, :, None] * patch).sum(axis=2)
    return (basis[:, 0, :, None] * out).sum(axis=1)
