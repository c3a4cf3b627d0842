"""Command-line front end: weight tables and convergence studies.

Subcommands:

* ``ctquad weights build|verify|info`` -- build the per-mode correction
  weight tables, spot-check entries against an independent
  recomputation, print metadata.
* ``ctquad quad2d run`` -- convergence studies of the corrected rules on
  plane point-singular benchmark integrands: successive-difference errors
  and observed orders over a geometric h-sequence.
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
import sys
from typing import Callable

import numpy as np
from scipy import special

from . import ibim3d
from . import surfaces
from . import weights as wt
from .quad_core import (
    GridOffset,
    SingularFunction,
    SingularTerm,
    composite_Up,
    corrected_Qp,
    grid_with_offset,
    locate_singularity,
    punctured_trapezoidal,
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
    modulation.  Decays below double precision for |x| > 1.7, so truncating
    the integration domain there is exact to roundoff.
    """
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
    weights_mode: str = "exact"
    half_width: float = 1.7
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
        if self.weights_mode not in ("exact", "table"):
            raise ValueError(f"weights_mode must be 'exact' or 'table', "
                             f"got {self.weights_mode!r}")
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
                        p_values=list(self.p_values),
                        weights_mode=self.weights_mode,
                        half_width=self.half_width)
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


def running_orders(errors, ratio: float) -> list[float | None]:
    """log(e_{i-1}/e_i)/log(ratio) aligned with the error list (None first)."""
    out: list[float | None] = [None]
    for a, b in zip(errors, errors[1:]):
        if a > 0.0 and b > 0.0:
            out.append(math.log(a / b) / math.log(ratio))
        else:
            out.append(None)
    return out


def observed_order(errors, ratio: float, floor: float = 1e-13) -> float:
    """Tail order estimate: median of the last three usable running orders.

    The coarsest pairs are routinely preasymptotic and the finest can sink
    into summation roundoff; pairs with either error at or below ``floor``
    are excluded, and the median of the last three surviving estimates
    reports the established slope without hand-picking a single pair.
    """
    all_orders = running_orders(errors, ratio)
    orders = [o for i, o in enumerate(all_orders)
              if o is not None and errors[i - 1] > floor and errors[i] > floor]
    if not orders:
        orders = [o for o in all_orders if o is not None]
    if not orders:
        return math.nan
    return float(np.median(orders[-3:]))


# --------------------------------------------------------------------------
# weight sourcing for the 2D studies
# --------------------------------------------------------------------------

def study_weights(term: SingularTerm, offset, stencil) -> np.ndarray:
    """High-precision correction weights at one fixed offset.

    Off the lattice the dual-lattice solve is exact to ~1e-12 at any order;
    on lattice points (where it is undefined) the halving sweep takes over,
    accepting its cancellation floor when the tolerance is unreachable.
    """
    if not wt.on_stencil_node(stencil, offset.alpha, offset.beta):
        return wt.weights_dual(term, offset, stencil)
    try:
        w, _hstar = wt.weights_limit(term, offset, stencil, tol=1e-9)
    except wt.WeightConvergenceError as exc:
        w = exc.best_weights
    return w


def find_table_path(k: int, p: int, cache_dir: str | None = None,
                    tol: float | None = None, n_modes: int = 16,
                    grid_n: int = 33) -> str | None:
    """Path of the cached (k, p) table built with these parameters, or None.

    Only the file named by ``weights.table_filename`` is served; a table
    built with another tolerance, mode count or lattice never stands in.
    """
    cache_dir = cache_dir or wt.default_cache_dir()
    path = os.path.join(cache_dir, wt.table_filename(k, p, tol, n_modes, grid_n))
    return path if os.path.exists(path) else None


def _build_command(k: int, p: int, tol: float | None, n_modes: int,
                   grid_n: int) -> str:
    cmd = f"ctquad weights build --k {k} --p {p}"
    if tol is not None:
        cmd += f" --tol {tol:g}"
    if n_modes != 16:
        cmd += f" --n-modes {n_modes}"
    if grid_n != 33:
        cmd += f" --grid-n {grid_n}"
    return cmd


def load_table_checked(k: int, p: int, cache_dir: str | None = None,
                       tol: float | None = None, n_modes: int = 16,
                       grid_n: int = 33) -> wt.WeightTable:
    """Load the (k, p) table or fail with the command that would create it.

    When the cache holds (k, p) tables built for other parameters only, the
    error lists them.
    """
    path = find_table_path(k, p, cache_dir, tol, n_modes, grid_n)
    where = cache_dir or wt.default_cache_dir()
    build = _build_command(k, p, tol, n_modes, grid_n)
    if path is None:
        name = wt.table_filename(k, p, tol, n_modes, grid_n)
        others = []
        if os.path.isdir(where):
            others = sorted(n for n in os.listdir(where)
                            if n.startswith(f"ctwt_k{k}_p{p}_")
                            and n.endswith(".ctwt"))
        held = (f"; it holds (k={k}, p={p}) tables built for other "
                f"parameters only: {', '.join(others)}" if others else "")
        raise CliError(f"no weight table {name} in {where}{held}; "
                       f"build it with: {build}")
    table = wt.load_weight_table(path)
    if table.version != wt.LIBRARY_VERSION:
        raise CliError(
            f"{path} was built by library version {table.version}, this is "
            f"{wt.LIBRARY_VERSION}; rebuild it with: {build} --force")
    return table


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


def _nearest_node(grid, x0) -> tuple[int, int]:
    _stencil, off = locate_singularity(x0, grid, 1)
    return off.anchor


def run_quad2d(config: StudyConfig, cache_dir: str | None = None,
               progress: Callable[[str], None] | None = None) -> dict:
    """Run one 2D study; returns per-level rows and per-method summaries.

    Correction weights are resolved once per method at the study's fixed
    cell offset and reused across levels (the offset is h-independent by
    construction).  In "table" mode they are interpolated from the cached
    tables instead, which caps the achievable accuracy at the table
    tolerance; "exact" is the default for exactly that reason.
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
            orders = running_orders(errs, config.ratio)
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
                "observed_order": observed_order(errs, config.ratio),
            })

    if config.study == "quad2d-sk":
        for k in config.k_values:
            term = singular_benchmark_term(k)
            g0 = grid_with_offset(hs[0], config.half_width, x0,
                                  config.alpha, config.beta)
            per_p: dict[int, dict] = {}
            for p in config.p_values:
                stencil, off = locate_singularity(x0, g0, p)
                if config.weights_mode == "table":
                    per_p[p] = {"table": load_table_checked(k, p, cache_dir)}
                else:
                    per_p[p] = {"weights": study_weights(term, off, stencil)}
            values: dict[str, list[float]] = {"punctured": []}
            for p in config.p_values:
                values[f"corrected-{p}"] = []
            for h in hs:
                grid = grid_with_offset(h, config.half_width, x0,
                                        config.alpha, config.beta)

                def f(x, y):
                    return term.evaluate(x - x0[0], y - x0[1]) * smooth_factor(x, y)

                values["punctured"].append(punctured_trapezoidal(
                    f, grid, skip_indices=[_nearest_node(grid, x0)]))
                for p in config.p_values:
                    values[f"corrected-{p}"].append(
                        corrected_Qp(term, smooth_factor, x0, grid, p, **per_p[p]))
                if progress:
                    progress(f"quad2d-sk k={k}: h={h:.6g} done")
            emit(config.study, k, values)
        return {"config": config.as_dict(), "config_hash": config.config_hash(),
                "hs": hs, "rows": rows, "summary": summary}

    s = general_benchmark_function()
    g0 = grid_with_offset(hs[0], config.half_width, x0, config.alpha, config.beta)
    per_p = {}
    for p in config.p_values:
        if config.weights_mode == "table":
            per_p[p] = {"tables": {kk: load_table_checked(kk, p - 1 - kk, cache_dir)
                                   for kk in range(p - 1)}}
        else:
            wbk = {}
            for kk in range(p - 1):
                stencil, off = locate_singularity(x0, g0, p - 1 - kk)
                wbk[kk] = study_weights(s.terms[kk], off, stencil)
            per_p[p] = {"weights_by_k": wbk}
    values = {"punctured": []}
    for p in config.p_values:
        values[f"composite-{p}"] = []
    for h in hs:
        grid = grid_with_offset(h, config.half_width, x0, config.alpha, config.beta)

        def f(x, y):
            return np.asarray(s.full(x - x0[0], y - x0[1])) * smooth_factor(x, y)

        values["punctured"].append(punctured_trapezoidal(
            f, grid, skip_indices=[_nearest_node(grid, x0)]))
        for p in config.p_values:
            values[f"composite-{p}"].append(
                composite_Up(s, smooth_factor, x0, grid, p, **per_p[p]))
        if progress:
            progress(f"quad2d-general: h={h:.6g} done")
    emit(config.study, None, values)
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
    same rule at half the finest spacing; "mean" rows average the
    per-target errors at each level and carry the orders of those averages.
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

    rows = [dict(r) for r in res["rows"]]
    labels = list(config.kernels)
    if config.include_baseline:
        labels += [f"{kind}:baseline" for kind in config.kernels]
    summary = []
    for label in labels:
        errs_at = {}
        for r in rows:
            if r["kind"] == label:
                errs_at.setdefault(r["h"], []).append(r["error"])
        mean_errs = [float(np.mean(errs_at[h])) for h in hs]
        for i, h in enumerate(hs):
            order = None
            if i + 1 < len(hs) and mean_errs[i] > 0 and mean_errs[i + 1] > 0:
                order = (math.log(mean_errs[i] / mean_errs[i + 1])
                         / math.log(hs[i] / hs[i + 1]))
            rows.append({"kind": label, "target": "mean", "h": h,
                         "value": None, "error": mean_errs[i], "order": order})
        summary.append({
            "kernel": label,
            "mean_error_order": observed_order(mean_errs, config.ratio),
            "pooled_mean_order": res["mean_orders"].get(label, math.nan),
        })

    return {"config": config.as_dict(), "config_hash": config.config_hash(),
            "hs": hs, "reference_h": res["reference_h"],
            "targets": [list(map(float, t)) for t in targets],
            "rows": rows, "summary": summary}


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
    table = wt.build_weight_table(
        args.k, args.p, tol=args.tol, n_modes=args.n_modes, grid_n=args.grid_n,
        processes=args.processes, cache_dir=args.cache_dir, force=args.force)
    cache_dir = args.cache_dir or wt.default_cache_dir()
    name = wt.table_filename(args.k, args.p, table.tol, table.n_modes,
                             table.grid_n)
    _print_table_info(table, os.path.join(cache_dir, name))
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
            table = wt.load_weight_table(os.path.join(cache_dir, name))
            hstar = 2.0 ** -int(table.m_levels.max())
            print(f"{name}: k={table.k} p={table.p} N={table.n_modes} "
                  f"lattice {table.grid_n}x{table.grid_n} tol={table.tol:.1e} "
                  f"h*={hstar:g} version={table.version}")
        return 0
    if args.k is None or args.p is None:
        raise CliError("give both --k and --p (or neither, to list the cache)")
    selection = _table_selection(args)
    table = load_table_checked(args.k, args.p, args.cache_dir, **selection)
    _print_table_info(table, find_table_path(args.k, args.p, args.cache_dir,
                                             **selection))
    return 0


def cmd_weights_verify(args) -> int:
    """Recompute random table entries by an independent route and compare.

    Off the stencil nodes the entries are recomputed by the dual-lattice
    limit, which shares no code with the halving sweep that built them; at
    a stencil node, where that limit is undefined, the sweep is rerun.
    """
    table = load_table_checked(args.k, args.p, args.cache_dir,
                               **_table_selection(args))
    stencil = stencil_for_order(table.p)
    rng = np.random.default_rng(args.seed)
    failures = 0
    worst = 0.0
    print(f"verifying {args.entries} random offsets of the (k={table.k}, "
          f"p={table.p}) table: dual-lattice limit off the stencil nodes, "
          f"fresh sweep on them (tol={table.tol:.1e})")
    for _ in range(args.entries):
        mi = int(rng.integers(0, table.grid_n))
        ni = int(rng.integers(0, table.grid_n))
        alpha = table.domain_lo + mi * table.step
        beta = table.domain_lo + ni * table.step
        if wt.on_stencil_node(stencil, alpha, beta):
            route = "sweep"
            _mi, _ni, recomputed, _lev = wt._table_point(
                (table.k, table.p, mi, ni, alpha, beta, table.tol, table.n_modes))
        else:
            route = "dual"
            offset = GridOffset(alpha, beta, (0, 0))
            recomputed = np.array([wt.weights_dual(wt.row_term(table.k, r),
                                                   offset, stencil)
                                   for r in range(table.n_rows)])
        dev = float(np.max(np.abs(recomputed - table.data[:, mi, ni, :])))
        worst = max(worst, dev)
        ok = dev <= 10.0 * table.tol
        failures += 0 if ok else 1
        print(f"  (alpha, beta)=({alpha:+.5f}, {beta:+.5f})  {route:<5}  "
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
                k_values=tuple(args.k), p_values=tuple(args.p or SK_P_RANGE),
                weights_mode=args.weights, half_width=args.half_width))
        if which in ("general", "both"):
            configs.append(StudyConfig(
                study="quad2d-general", h0=args.h0, ratio=args.ratio,
                count=args.count, alpha=args.alpha, beta=args.beta,
                p_values=tuple(args.p or GENERAL_P_RANGE)
                if which == "general" else GENERAL_P_RANGE,
                weights_mode=args.weights, half_width=args.half_width))
    except ValueError as exc:
        raise CliError(str(exc))
    return configs


def cmd_quad2d_run(args) -> int:
    if args.study == "both" and args.p:
        raise CliError("--p selects orders for a single study; pick "
                       "--study sk or --study general alongside it")
    configs = _parse_study_configs(args)
    progress = _stderr_progress if args.verbose else None
    results = [run_quad2d(cfg, cache_dir=args.cache_dir, progress=progress)
               for cfg in configs]
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
    qr.add_argument("--weights", choices=("exact", "table"), default="exact",
                    help="weight source: per-offset dual-lattice solve "
                         "(exact) or interpolated cache tables")
    qr.add_argument("--half-width", type=float, default=1.7)
    qr.add_argument("--out", default=None, help="CSV path (JSON written "
                    "alongside); stdout if omitted")
    qr.add_argument("--cache-dir", default=None)
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
