"""Command-line front end: weight tables and convergence studies.

Subcommands:

* ``ctquad weights build|verify|info`` -- build the per-mode correction
  weight tables, spot-check entries against an independent
  recomputation, print metadata.
* ``ctquad quad2d run`` -- convergence studies of the corrected rules on
  plane point-singular benchmark integrands: successive-difference errors
  and observed orders over a geometric h-sequence.  Options pick the study,
  the h-sequence, k, p and the cell offset; every weight comes from the
  dual-lattice solve, and the grids end at |x| = 1.7.
* ``ctquad ibim3d run`` -- self-convergence study of the corrected
  layer-potential evaluation on the tilted-torus fixture.

Results go to RFC-4180 CSV with a ``#``-prefixed metadata prelude, plus a
JSON sidecar carrying the full record.  Every output names the config hash,
the table format, and the library version, and a fixed config reproduces
its output byte for byte (no timestamps, seeded randomness only).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import shlex
import sys
from typing import Callable

import numpy as np

from . import ibim3d
from . import surfaces
from . import weights as wt
from .quad_core import (
    GridOffset,
    SingularFunction,
    SingularTerm,
    block_nodes,
    composite_Up,
    corrected_Qp,
    grid_values,
    grid_with_offset,
    locate_singularity,
    pair_orders,
    punctured_trapezoidal,
    row_blocks,
    stencil_for_order,
)


class CliError(RuntimeError):
    """User-facing failure: printed without a traceback, exit status 2."""


# --------------------------------------------------------------------------
# benchmark integrands for the 2D studies
# --------------------------------------------------------------------------
#
# The singular factors are trigonometric polynomials in the polar angle with
# deliberately un-round coefficients (so no symmetry hides an error term);
# the smooth factor combines a Bessel function of continuously varying
# order, a C^inf window, and a trigonometric modulation.  All studies keep
# the singular point at the origin and move the grid instead, pinning the
# cell offset (alpha, beta) across refinement levels.

SMOOTH_SHIFT = (0.027, 0.0197)  # window centre, slightly off the singularity
# half-width of the 2D study grids: smooth_factor is below double precision
# past it, so the truncated domain is exact to roundoff
HALF_WIDTH = 1.7


def angular_phi0(psi):
    """Angular factor of the single-term benchmarks (and s_0 below)."""
    psi = np.asarray(psi, dtype=float)
    return 4.2398 + 0.816735 * np.cos(psi - 0.2) - 1.24397865 * np.sin(2.0 * psi + 0.1)


def angular_phi1(psi):
    psi = np.asarray(psi, dtype=float)
    return 0.78167 * np.sin(psi + 0.5) - 2.24397865 * np.cos(3.0 * psi - 0.3)


def angular_phi2(psi):
    psi = np.asarray(psi, dtype=float)
    return 1.127 + 1.2134875 * np.cos(psi - 0.65) - 1.24397865 * np.sin(2.0 * psi + 0.1)


def angular_phi3(psi):
    psi = np.asarray(psi, dtype=float)
    return 0.77 - 1.29 * np.cos(4.0 * psi - 0.35) + 0.987 * np.sin(2.0 * psi + 0.14)


def radial_tail(r, psi):
    """Coefficient of |x|**3 in the general benchmark; carries a log, so it
    is smooth in |x| but not one of the pure-homogeneity terms."""
    return (1.2927 - 0.929 * np.cos(psi + 0.34) + 0.712 * np.sin(3.0 * psi + 0.14)
            + np.log(r + 1.3))


def smooth_factor(x, y):
    """The smooth factor v multiplying every benchmark singularity.

    Bessel J of real order |x|**2 + 1 at argument 3 (the real part of the
    outgoing Hankel function of that order), an exp(-|x - c|**8) window
    centred slightly off the singular point, and a gentle trigonometric
    modulation.  Decays below double precision for |x| > HALF_WIDTH = 1.7,
    so truncating the integration domain there is exact to roundoff.
    """
    from scipy import special  # on first use: keeps scipy off the import path
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r2 = x * x + y * y
    dx = x - SMOOTH_SHIFT[0]
    dy = y - SMOOTH_SHIFT[1]
    window = np.exp(-((dx * dx + dy * dy) ** 4))
    return (1.1 + special.jv(r2 + 1.0, 3.0)) * window * (0.5 + np.sin(x * (y - 1.0)))


def singular_benchmark_term(k: int) -> SingularTerm:
    """|x|**(k-1) * angular_phi0(psi), the single-term benchmark."""
    return SingularTerm.from_callable(k, angular_phi0)


def general_benchmark_function() -> SingularFunction:
    """Mixed-homogeneity benchmark singularity with a log-bearing tail.

    s = |x|**-1 phi0 + phi1 + |x| phi2 + |x|**2 phi3 + |x|**3 * tail,
    supplied with its leading terms s_0..s_3 for the composite rules.
    """
    terms = [
        SingularTerm.from_callable(0, angular_phi0),
        SingularTerm.from_callable(1, angular_phi1),
        SingularTerm.from_callable(2, angular_phi2),
        SingularTerm.from_callable(3, angular_phi3),
    ]

    def full(dx, dy):
        dx = np.asarray(dx, dtype=float)
        dy = np.asarray(dy, dtype=float)
        r = np.hypot(dx, dy)
        psi = np.arctan2(dy, dx)
        rsafe = np.where(r > 0.0, r, 1.0)
        lead = np.where(r > 0.0, angular_phi0(psi) / rsafe, np.inf)
        return (lead + angular_phi1(psi) + r * angular_phi2(psi)
                + r * r * angular_phi3(psi) + r ** 3 * radial_tail(r, psi))

    return SingularFunction(terms=terms, full=full)


# --------------------------------------------------------------------------
# study configuration
# --------------------------------------------------------------------------

STUDY_KINDS = ("quad2d-sk", "quad2d-general", "ibim3d")
SK_P_RANGE = (1, 2, 3, 4)
GENERAL_P_RANGE = (2, 3, 4, 5)


@dataclasses.dataclass(frozen=True)
class StudyConfig:
    """Everything that determines a study's numbers (and so its output)."""

    study: str
    h0: float
    ratio: float = 1.5
    count: int = 7
    alpha: float = 0.81
    beta: float = 0.46
    k_values: tuple[int, ...] = (0, 1, 2)
    p_values: tuple[int, ...] = ()
    kernels: tuple[str, ...] = ("SL", "DL", "DLC")
    eps: float = 0.1
    n_targets: int = 5
    seed: int = 7
    include_baseline: bool = False

    def __post_init__(self) -> None:
        if self.study not in STUDY_KINDS:
            raise ValueError(f"study must be one of {STUDY_KINDS}, got {self.study!r}")
        if not self.ratio > 1.0:
            raise ValueError(f"h-sequence ratio must exceed 1, got {self.ratio}")
        if self.count < 3:
            raise ValueError("count must be at least 3 (an order estimate needs two "
                             f"successive differences), got {self.count}")
        if not self.h0 > 0.0:
            raise ValueError(f"h0 must be positive, got {self.h0}")
        if self.study == "quad2d-sk":
            bad = [p for p in self.p_values if p not in SK_P_RANGE]
            if bad:
                raise ValueError(f"single-term corrections support p in "
                                 f"{SK_P_RANGE}, got {bad}")
            if any(k < 0 or k != int(k) for k in self.k_values):
                raise ValueError(f"k values must be nonnegative integers, "
                                 f"got {self.k_values}")
        if self.study == "quad2d-general":
            bad = [p for p in self.p_values if p not in GENERAL_P_RANGE]
            if bad:
                raise ValueError(f"composite rules support p in "
                                 f"{GENERAL_P_RANGE}, got {bad}")
        if self.study == "ibim3d":
            for kind in self.kernels:
                if kind not in ibim3d.KERNEL_KINDS:
                    raise ValueError(f"unknown kernel kind {kind!r}; choose from "
                                     f"{ibim3d.KERNEL_KINDS}")
            if not self.eps > 0.0:
                raise ValueError(f"eps must be positive, got {self.eps}")
            if self.n_targets < 1:
                raise ValueError(f"need at least one target, got {self.n_targets}")

    def hs(self) -> list[float]:
        return h_sequence(self.h0, self.ratio, self.count)

    def as_dict(self) -> dict:
        base = {"study": self.study, "h0": self.h0, "ratio": self.ratio,
                "count": self.count}
        if self.study == "ibim3d":
            base.update(eps=self.eps, n_targets=self.n_targets, seed=self.seed,
                        kernels=list(self.kernels),
                        include_baseline=self.include_baseline)
        else:
            base.update(alpha=self.alpha, beta=self.beta,
                        p_values=list(self.p_values))
            if self.study == "quad2d-sk":
                base["k_values"] = list(self.k_values)
        return base

    def config_hash(self) -> str:
        return config_hash(self.as_dict())


def config_hash(payload: dict) -> str:
    """SHA-256 of the canonical JSON form of a config document."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# --------------------------------------------------------------------------
# error sequences and observed orders
# --------------------------------------------------------------------------

def h_sequence(h0: float, ratio: float, count: int) -> list[float]:
    return [h0 / ratio ** i for i in range(count)]


def successive_differences(values) -> list[float]:
    """|A(h_i) - A(h_{i+1})|: the error proxy when no exact value exists."""
    return [abs(values[i] - values[i + 1]) for i in range(len(values) - 1)]


# pairs with either error at or below this are taken as summation roundoff
ORDER_FLOOR = 1e-13


def observed_order(errors, hs) -> float:
    """Tail order estimate: median of the last three usable pair orders.

    errors[i] belongs to spacing hs[i].  The coarsest pairs are routinely
    preasymptotic and the finest can sink into summation roundoff; pairs
    with either error at or below ORDER_FLOOR are excluded, and the median
    of the last three surviving estimates reports the established slope
    without hand-picking a single pair.
    """
    pairs = list(zip(pair_orders(errors, hs), errors, errors[1:]))
    orders = [o for o, a, b in pairs
              if o is not None and a > ORDER_FLOOR and b > ORDER_FLOOR]
    if not orders:
        orders = [o for o, _, _ in pairs if o is not None]
    if not orders:
        return math.nan
    return float(np.median(orders[-3:]))


def _build_command(k: int, p: int, tol: float | None, n_modes: int,
                   grid_n: int, cache_dir: str | None) -> str:
    cmd = f"ctquad weights build --k {k} --p {p}"
    if tol is not None:
        cmd += f" --tol {tol:g}"
    if n_modes != 16:
        cmd += f" --n-modes {n_modes}"
    if grid_n != 33:
        cmd += f" --grid-n {grid_n}"
    if cache_dir is not None:
        cmd += f" --cache-dir {shlex.quote(cache_dir)}"
    return cmd


def _checked_table_path(k: int, p: int, tol: float | None, n_modes: int,
                        grid_n: int, cache_dir: str | None) -> str:
    try:
        return wt.table_path(k, p, tol, n_modes, grid_n, cache_dir)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def load_table_checked(k: int, p: int, cache_dir: str | None = None,
                       tol: float | None = None, n_modes: int = 16,
                       grid_n: int = 33) -> wt.WeightTable:
    """Load the (k, p) table or fail with the command that would create it.

    When the cache holds (k, p) tables built for other parameters only, the
    error lists them.  A file the loader refuses (truncated, foreign, or
    built by another library version) fails with the command that rebuilds
    it.  Parameters out of range fail with the one they name.
    """
    path = _checked_table_path(k, p, tol, n_modes, grid_n, cache_dir)
    build = _build_command(k, p, tol, n_modes, grid_n, cache_dir)
    if not os.path.exists(path):
        where, name = os.path.split(path)
        others = []
        if os.path.isdir(where):
            others = sorted(n for n in os.listdir(where)
                            if n.startswith(f"ctwt_k{k}_p{p}_")
                            and n.endswith(".ctwt"))
        held = (f"; it holds (k={k}, p={p}) tables built for other "
                f"parameters only: {', '.join(others)}" if others else "")
        raise CliError(f"no weight table {name} in {where}{held}; "
                       f"build it with: {build}")
    try:
        return wt.load_weight_table(path)
    except ValueError as exc:
        raise CliError(f"{exc}; rebuild it with: {build} --force") from None


def _table_selection(args) -> dict:
    """The table parameters ``weights verify`` and ``weights info`` select by."""
    return {"tol": args.tol, "n_modes": args.n_modes, "grid_n": args.grid_n}


# --------------------------------------------------------------------------
# 2D studies
# --------------------------------------------------------------------------

def expected_order(study: str, k: int | None, method: str) -> int:
    if method == "punctured":
        return (k + 1) if study == "quad2d-sk" else 1
    p = int(method.rsplit("-", 1)[1])
    return (k + p + 1) if study == "quad2d-sk" else p


def run_quad2d(config: StudyConfig, cache_dir: str | None = None,
               progress: Callable[[str], None] | None = None) -> dict:
    """Run one 2D study; returns per-level rows and per-method summaries.

    The single-term study runs once per k, correcting s_k at order p; the
    general study corrects each expansion term s_k of its one function at
    order p-1-k.  Each level evaluates v once on its grid, a block of rows
    at a time on the thread pool (`grid_values`), and multiplies each
    case's s(x - x0) into it over the same row blocks on the calling
    thread: s evaluates `SingularTerm.phi`, and the benchmark's tracer,
    which wraps it, keeps one span stack for all threads.  Every rule of
    that level reads the product.  Only one level's values are held at a
    time: v and one case's product, or in a one-case study the product
    alone.  The grids end at |x| = HALF_WIDTH.  Every correction's weights
    come from `weights.weights_dual`, solved once at the first level's cell
    offset before the level loop and reused on every level (the offset does
    not depend on h); the dual route is exact on and off the lattice.

    `cache_dir` is not read: no 2D study reads a table.  It stays only
    because the benchmark's `quad2d` workload passes `cache_dir=TABLE_DIR`.
    """
    if config.study not in ("quad2d-sk", "quad2d-general"):
        raise ValueError(f"not a 2D study: {config.study!r}")
    x0 = (0.0, 0.0)
    hs = config.hs()
    rows: list[dict] = []
    summary: list[dict] = []

    def emit(study: str, k: int | None, values: dict[str, list[float]]) -> None:
        for method, vals in values.items():
            errs = successive_differences(vals)
            # the order of the pair (h_{i-1}, h_i) sits on the finer row
            orders = [None] + pair_orders(errs, hs)
            for i, h in enumerate(hs):
                rows.append({
                    "study": study.removeprefix("quad2d-"),
                    "k": k,
                    "method": method,
                    "h": h,
                    "error": errs[i] if i < len(errs) else None,
                    "order": orders[i] if i < len(orders) else None,
                    "value": vals[i],
                })
            summary.append({
                "study": study.removeprefix("quad2d-"),
                "k": k,
                "method": method,
                "expected_order": expected_order(study, k, method),
                "observed_order": observed_order(errs, hs),
            })

    g0 = grid_with_offset(hs[0], HALF_WIDTH, x0, config.alpha, config.beta)

    if config.study == "quad2d-sk":
        cases = [(k, singular_benchmark_term(k)) for k in config.k_values]
    else:
        cases = [(None, general_benchmark_function())]

    def prepare(k, s):
        """The case's singular factor, its weights per order p, and its
        value lists per method."""
        single = k is not None
        method = "corrected" if single else "composite"
        # the (term, correction order) pairs each order-p rule corrects
        parts = {p: [(s, p)] if single
                 else [(s.terms[kk], p - 1 - kk) for kk in range(p - 1)]
                 for p in config.p_values}
        weights: dict[int, list[np.ndarray]] = {}
        for p in config.p_values:
            weights[p] = []
            for t, q in parts[p]:
                stencil, off = locate_singularity(x0, g0, q)
                weights[p].append(wt.weights_dual(t, off, stencil))

        f = s.evaluate if single else s.full

        def singular(x, y):
            return np.asarray(f(x - x0[0], y - x0[1]))

        values: dict[str, list[float]] = {"punctured": []}
        for p in config.p_values:
            values[f"{method}-{p}"] = []
        return singular, weights, values

    studies = [(k, s, *prepare(k, s)) for k, s in cases]

    # the level loop holds the case loop, so each level's smooth factor v
    # is evaluated once and shared by every case
    for h in hs:
        grid = grid_with_offset(h, HALF_WIDTH, x0, config.alpha, config.beta)
        v = grid_values(smooth_factor, grid)
        for i, (k, s, singular, weights, values) in enumerate(studies):
            # s(x - x0) * v on this thread (see above); the last case
            # multiplies into v itself, so a one-case study holds one array
            # per level
            fv = v if i == len(studies) - 1 else v.copy()
            for block in row_blocks(grid):
                fv[block] *= singular(*block_nodes(grid, block))
            values["punctured"].append(punctured_trapezoidal(
                fv, grid, [locate_singularity(x0, grid, 1)[1].anchor]))
            for p in config.p_values:
                if k is not None:
                    values[f"corrected-{p}"].append(corrected_Qp(
                        s, smooth_factor, x0, grid, p, weights[p][0], fv))
                else:
                    values[f"composite-{p}"].append(composite_Up(
                        s, smooth_factor, x0, grid, p, weights[p], fv))
            del fv
            if progress:
                label = f"{config.study} k={k}" if k is not None else config.study
                progress(f"{label}: h={h:.6g} done")
        del v  # before the next, larger level's values are built
    for k, _, _, _, values in studies:
        emit(config.study, k, values)
    return {"config": config.as_dict(), "config_hash": config.config_hash(),
            "hs": hs, "rows": rows, "summary": summary}


# --------------------------------------------------------------------------
# 3D study
# --------------------------------------------------------------------------

def run_ibim3d(config: StudyConfig, cache_dir: str | None = None,
               progress: Callable[[str], None] | None = None) -> dict:
    """Self-convergence study on the tilted-torus fixture.

    Targets are drawn in (theta, phi) parameter space from the seeded
    generator and recorded in the output.  Errors are measured against the
    same rule at half the finest spacing; the per-target rows are followed
    by the study's "mean" rows, and the summary gives each label's tail
    order of the mean errors.
    """
    if config.study != "ibim3d":
        raise ValueError(f"not a 3D study: {config.study!r}")
    surface = surfaces.tilted_torus()
    if not 0.0 < config.eps < surface.reach:
        raise CliError(
            f"tube half-width eps={config.eps:g} violates the reach "
            f"{surface.reach:g} of the surface: the closest-point projection "
            f"is single-valued only for |eta| < reach; pick a smaller eps")
    tables = (load_table_checked(0, 2, cache_dir),
              load_table_checked(1, 1, cache_dir))
    targets = surfaces.random_targets(config.n_targets, config.seed)
    hs = config.hs()
    res = ibim3d.convergence_study_3d(
        surface, targets, hs, tables, kinds=config.kernels, eps=config.eps,
        include_baseline=config.include_baseline, progress=progress)
    summary = [{
        "kernel": label,
        "mean_error_order": observed_order(mean_errs, hs),
        "pooled_mean_order": res["mean_orders"].get(label, math.nan),
    } for label, mean_errs in res["mean_errors"].items()]

    return {"config": config.as_dict(), "config_hash": config.config_hash(),
            "hs": hs, "reference_h": res["reference_h"],
            "targets": [list(map(float, t)) for t in targets],
            "rows": res["rows"] + res["mean_rows"], "summary": summary}


# --------------------------------------------------------------------------
# output
# --------------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def write_csv(fp, metadata: dict, fieldnames: list[str], rows: list[dict]) -> None:
    """RFC-4180 records (CRLF, minimal quoting) after a '#' metadata prelude."""
    for key in sorted(metadata):
        fp.write(f"# {key}: {metadata[key]}\r\n")
    writer = csv.DictWriter(fp, fieldnames=fieldnames, lineterminator="\r\n",
                            restval="", extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(row.get(k)) for k in fieldnames})


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    return obj


def emit_results(out: str | None, metadata: dict, fieldnames: list[str],
                 rows: list[dict], payload: dict,
                 summary_lines: list[str]) -> None:
    """Write CSV (+ JSON sidecar) to --out, or CSV to stdout when no --out."""
    if out:
        with open(out, "w", newline="") as fp:
            write_csv(fp, metadata, fieldnames, rows)
        jpath = os.path.splitext(out)[0] + ".json"
        with open(jpath, "w") as fp:
            json.dump(_jsonify(payload), fp, indent=2, sort_keys=True)
            fp.write("\n")
        for line in summary_lines:
            print(line)
        print(f"wrote {out} and {jpath}")
    else:
        buf = io.StringIO()
        write_csv(buf, metadata, fieldnames, rows)
        sys.stdout.write(buf.getvalue())
        for line in summary_lines:
            print(line, file=sys.stderr)


def _stderr_progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------

def _print_table_info(table: wt.WeightTable, path: str | None) -> None:
    domain_hi = table.domain_lo + 1.0
    hstar = 2.0 ** -int(table.m_levels.max())
    print(f"weight table: {path or '(in memory)'}")
    print(f"  k={table.k} p={table.p} stencil nodes={len(table.stencil_offsets)}")
    print(f"  modes N={table.n_modes} ({table.n_rows} rows)  lattice "
          f"{table.grid_n}x{table.grid_n} over "
          f"[{table.domain_lo:g}, {domain_hi:g}]^2")
    print(f"  tol={table.tol:.1e}  version={table.version}  "
          f"format={wt.TABLE_FORMAT_MAGIC.decode()}")
    print(f"  sweep levels: min {int(table.m_levels.min())} max "
          f"{int(table.m_levels.max())} (h* = {hstar:g})")
    print(f"  bump: r0={table.bump_r0:g} R={table.bump_R:g}")


def cmd_weights_build(args) -> int:
    selection = _table_selection(args)
    path = _checked_table_path(args.k, args.p, cache_dir=args.cache_dir,
                               **selection)
    if not args.force and os.path.exists(path):
        # a cache hit; a file the loader refuses fails with the rebuild command
        table = load_table_checked(args.k, args.p, args.cache_dir, **selection)
    else:
        table = wt.build_weight_table(
            args.k, args.p, processes=args.processes,
            cache_dir=args.cache_dir, force=args.force, **selection)
    _print_table_info(table, path)
    return 0


def cmd_weights_info(args) -> int:
    cache_dir = args.cache_dir or wt.default_cache_dir()
    if args.k is None and args.p is None:
        if not os.path.isdir(cache_dir):
            print(f"no table cache at {cache_dir}")
            return 0
        names = sorted(n for n in os.listdir(cache_dir) if n.endswith(".ctwt"))
        if not names:
            print(f"no weight tables in {cache_dir}")
            return 0
        for name in names:
            try:
                table = wt.load_weight_table(os.path.join(cache_dir, name))
            except ValueError as exc:
                print(f"{name}: refused: {exc}")
                continue
            hstar = 2.0 ** -int(table.m_levels.max())
            print(f"{name}: k={table.k} p={table.p} N={table.n_modes} "
                  f"lattice {table.grid_n}x{table.grid_n} tol={table.tol:.1e} "
                  f"h*={hstar:g} version={table.version}")
        return 0
    if args.k is None or args.p is None:
        raise CliError("give both --k and --p (or neither, to list the cache)")
    selection = _table_selection(args)
    table = load_table_checked(args.k, args.p, args.cache_dir, **selection)
    _print_table_info(table, wt.table_path(args.k, args.p,
                                           cache_dir=args.cache_dir,
                                           **selection))
    return 0


def cmd_weights_verify(args) -> int:
    """Recompute random table entries by an independent route and compare.

    Every entry, on a stencil node or off, is recomputed by the dual-lattice
    limit, which shares no code with the halving sweep that built the table.
    """
    if args.entries < 1:
        raise CliError(f"--entries must be at least 1, got {args.entries}")
    table = load_table_checked(args.k, args.p, args.cache_dir,
                               **_table_selection(args))
    stencil = stencil_for_order(table.p)
    rng = np.random.default_rng(args.seed)
    failures = 0
    worst = 0.0
    print(f"verifying {args.entries} random offsets of the (k={table.k}, "
          f"p={table.p}) table against the dual-lattice limit "
          f"(tol={table.tol:.1e})")
    for _ in range(args.entries):
        mi = int(rng.integers(0, table.grid_n))
        ni = int(rng.integers(0, table.grid_n))
        alpha = table.domain_lo + mi * table.step
        beta = table.domain_lo + ni * table.step
        offset = GridOffset(alpha, beta, (0, 0))
        recomputed = np.array([wt.weights_dual(wt.row_term(table.k, r),
                                               offset, stencil)
                               for r in range(table.n_rows)])
        dev = float(np.max(np.abs(recomputed - table.data[:, mi, ni, :])))
        worst = max(worst, dev)
        ok = dev <= 10.0 * table.tol
        failures += 0 if ok else 1
        print(f"  (alpha, beta)=({alpha:+.5f}, {beta:+.5f})  dual  "
              f"max deviation {dev:.3e}  [{'ok' if ok else 'FAIL'}]")
    print(f"worst deviation {worst:.3e} vs allowance {10.0 * table.tol:.1e}: "
          f"{'all entries verified' if failures == 0 else f'{failures} FAILED'}")
    return 0 if failures == 0 else 1


def _parse_study_configs(args) -> list[StudyConfig]:
    configs = []
    which = args.study
    try:
        if which in ("sk", "both"):
            configs.append(StudyConfig(
                study="quad2d-sk", h0=args.h0, ratio=args.ratio,
                count=args.count, alpha=args.alpha, beta=args.beta,
                k_values=tuple(args.k), p_values=tuple(args.p or SK_P_RANGE)))
        if which in ("general", "both"):
            configs.append(StudyConfig(
                study="quad2d-general", h0=args.h0, ratio=args.ratio,
                count=args.count, alpha=args.alpha, beta=args.beta,
                p_values=tuple(args.p or GENERAL_P_RANGE)
                if which == "general" else GENERAL_P_RANGE))
    except ValueError as exc:
        raise CliError(str(exc))
    return configs


def cmd_quad2d_run(args) -> int:
    if args.study == "both" and args.p:
        raise CliError("--p selects orders for a single study; pick "
                       "--study sk or --study general alongside it")
    configs = _parse_study_configs(args)
    progress = _stderr_progress if args.verbose else None
    results = [run_quad2d(cfg, progress=progress) for cfg in configs]
    if len(results) == 1:
        chash = results[0]["config_hash"]
    else:
        chash = config_hash({"studies": [r["config"] for r in results]})
    metadata = {
        "config_hash": chash,
        "library_version": wt.LIBRARY_VERSION,
        "table_format": wt.TABLE_FORMAT_MAGIC.decode(),
        "command": "quad2d run",
    }
    rows = [r for res in results for r in res["rows"]]
    summary_lines = []
    for res in results:
        for s in res["summary"]:
            where = f"k={s['k']} " if s["k"] is not None else ""
            summary_lines.append(
                f"{s['study']}: {where}{s['method']}: observed order "
                f"{s['observed_order']:.2f} (expected {s['expected_order']})")
    payload = {"metadata": metadata, "studies": results}
    emit_results(args.out, metadata, ["study", "k", "method", "h", "error", "order"],
                 rows, payload, summary_lines)
    return 0


def cmd_ibim3d_run(args) -> int:
    kernels = tuple(ibim3d.KERNEL_KINDS) if "all" in args.kernel \
        else tuple(dict.fromkeys(args.kernel))
    try:
        config = StudyConfig(
            study="ibim3d", h0=args.h0, ratio=args.ratio, count=args.count,
            kernels=kernels, eps=args.eps, n_targets=args.targets,
            seed=args.seed, include_baseline=args.baseline)
    except ValueError as exc:
        raise CliError(str(exc))
    progress = _stderr_progress if args.verbose else None
    res = run_ibim3d(config, cache_dir=args.cache_dir, progress=progress)
    metadata = {
        "config_hash": res["config_hash"],
        "library_version": wt.LIBRARY_VERSION,
        "table_format": wt.TABLE_FORMAT_MAGIC.decode(),
        "command": "ibim3d run",
        "seed": config.seed,
        "reference_h": _fmt(res["reference_h"]),
    }
    for i, (theta, phi) in enumerate(res["targets"]):
        metadata[f"target_{i:03d}"] = f"theta={theta!r} phi={phi!r}"
    summary_lines = [
        f"{s['kernel']}: mean-error order {s['mean_error_order']:.2f} "
        f"(pooled per-target mean {s['pooled_mean_order']:.2f})"
        for s in res["summary"]]
    csv_rows = [{**r, "kernel": r["kind"]} for r in res["rows"]]
    emit_results(args.out, metadata,
                 ["kernel", "target", "h", "value", "error", "order"],
                 csv_rows, {"metadata": metadata, **res}, summary_lines)
    return 0


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _add_table_selection(sp: argparse.ArgumentParser) -> None:
    """Options naming a table built with non-default parameters."""
    sp.add_argument("--tol", type=float, default=None,
                    help="tolerance the table was built with (default per p)")
    sp.add_argument("--n-modes", type=int, default=16)
    sp.add_argument("--grid-n", type=int, default=33)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctquad",
        description="Corrected trapezoidal rules: weight tables, 2D "
                    "convergence studies, and 3D layer-potential studies.")
    sub = parser.add_subparsers(dest="command", required=True)

    wp = sub.add_parser("weights", help="build, verify, or inspect weight tables")
    wsub = wp.add_subparsers(dest="action", required=True)

    wb = wsub.add_parser("build", help="build (or load) the (k, p) table")
    wb.add_argument("--k", type=int, required=True, help="homogeneity index")
    wb.add_argument("--p", type=int, required=True, help="correction order")
    wb.add_argument("--tol", type=float, default=None,
                    help="sweep tolerance (default 1e-8, or 1e-4 for p >= 4)")
    wb.add_argument("--n-modes", type=int, default=16)
    wb.add_argument("--grid-n", type=int, default=33)
    wb.add_argument("--processes", type=int, default=None)
    wb.add_argument("--force", action="store_true",
                    help="rebuild even if the cache already has the table")
    wb.add_argument("--cache-dir", default=None,
                    help="table cache (default ~/.cache/ctquad or "
                         "$CTQUAD_CACHE_DIR)")
    wb.set_defaults(func=cmd_weights_build)

    wv = wsub.add_parser("verify", help="recompute random entries by the "
                         "dual-lattice limit and compare")
    wv.add_argument("--k", type=int, required=True)
    wv.add_argument("--p", type=int, required=True)
    wv.add_argument("--entries", type=int, default=10)
    wv.add_argument("--seed", type=int, default=0)
    wv.add_argument("--cache-dir", default=None)
    _add_table_selection(wv)
    wv.set_defaults(func=cmd_weights_verify)

    wi = wsub.add_parser("info", help="print table metadata (no --k/--p: list all)")
    wi.add_argument("--k", type=int, default=None)
    wi.add_argument("--p", type=int, default=None)
    wi.add_argument("--cache-dir", default=None)
    _add_table_selection(wi)
    wi.set_defaults(func=cmd_weights_info)

    qp = sub.add_parser("quad2d", help="2D singular-quadrature studies")
    qsub = qp.add_subparsers(dest="action", required=True)
    qr = qsub.add_parser("run", help="run the convergence studies")
    qr.add_argument("--study", choices=("sk", "general", "both"), default="both",
                    help="single-term corrections, the composite rule, or both")
    qr.add_argument("--h0", type=float, default=0.4, help="coarsest spacing")
    qr.add_argument("--ratio", type=float, default=1.5)
    qr.add_argument("--count", type=int, default=10, help="number of levels")
    qr.add_argument("--k", type=int, nargs="+", default=[0, 1, 2],
                    help="homogeneity indices (single-term study)")
    qr.add_argument("--p", type=int, nargs="+", default=None,
                    help="correction orders (default 1-4 single-term, "
                         "2-5 composite)")
    qr.add_argument("--alpha", type=float, default=0.81)
    qr.add_argument("--beta", type=float, default=0.46)
    qr.add_argument("--out", default=None, help="CSV path (JSON written "
                    "alongside); stdout if omitted")
    qr.add_argument("--verbose", action="store_true")
    qr.set_defaults(func=cmd_quad2d_run)

    ip = sub.add_parser("ibim3d", help="3D layer-potential studies")
    isub = ip.add_subparsers(dest="action", required=True)
    ir = isub.add_parser("run", help="tilted-torus self-convergence study")
    ir.add_argument("--h0", type=float, default=0.075, help="coarsest spacing")
    ir.add_argument("--ratio", type=float, default=1.5)
    ir.add_argument("--count", type=int, default=4, help="number of levels")
    ir.add_argument("--targets", type=int, default=5)
    ir.add_argument("--seed", type=int, default=7)
    ir.add_argument("--eps", type=float, default=0.1, help="tube half-width")
    ir.add_argument("--kernel", nargs="+", default=["all"],
                    choices=("SL", "DL", "DLC", "all"))
    ir.add_argument("--baseline", action="store_true",
                    help="also report the uncorrected product rule")
    ir.add_argument("--out", default=None)
    ir.add_argument("--cache-dir", default=None)
    ir.add_argument("--verbose", action="store_true")
    ir.set_defaults(func=cmd_ibim3d_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
