"""Build and certify the weight tables the benchmark's 3D workloads read.

    python3 perfbench/make_tables.py

Writes ``perfbench/tables/``:

* the (k=0, p=2) table, built by ``build_weight_table`` (the library's
  halving sweep) with the production parameters;
* the (k=1, p=1) table, assembled from the public ``weights_dual`` solve at
  every lattice offset off the stencil node and ``weights_limit`` at the one
  offset on it, (0, 0).  The library's own (1, 1) build stops with
  ``WeightConvergenceError`` at some offsets, so this is the only (1, 1)
  source; dual entries carry level 0 in ``m_levels`` (they are h -> 0
  limits, not sweep iterates);
* ``MANIFEST.json``: the SHA-256 of every table file and the certification
  record.  Each table is certified on a seeded sample of lattice points
  against a fresh per-mode sweep, within the ``ctquad weights verify``
  bound of 10 * tol.

Both builds use one worker process per CPU; the tables do not depend on the
worker count, since every lattice point is computed alone and assembled in
lattice order.

The tables are checked in, so the benchmark at any two commits reads the same
weights.  Nothing is written to the library's table cache: the build's cache
directory is the output directory itself.
"""
from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from ctquad import weights as wt  # noqa: E402
from ctquad.quad_core import GridOffset, stencil_for_order  # noqa: E402
from workloads import mode_term  # noqa: E402

TABLE_DIR = os.path.join(HERE, "tables")
MANIFEST = os.path.join(TABLE_DIR, "MANIFEST.json")
N_MODES = 16
GRID_N = 33
CERT_POINTS = 6
CERT_SEED = 0
PROCESSES = os.cpu_count() or 1


def table_name(k: int, p: int, tol: float) -> str:
    return f"ctwt_k{k}_p{p}_N{N_MODES}_g{GRID_N}_tol{tol:.1e}.ctwt"


def lattice_offset(table_lo: float, mi: int, ni: int) -> GridOffset:
    step = 1.0 / (GRID_N - 1)
    return GridOffset(table_lo + mi * step, table_lo + ni * step, (0, 0))


def sweep_row(k: int, p: int, row: int, offset: GridOffset, tol: float):
    """Fresh halving sweep for one mode row; returns (weights, level)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        w, hstar = wt.weights_limit(mode_term(k, row), offset,
                                    stencil_for_order(p), tol=tol)
    return w, int(round(-np.log2(hstar)))


def _dual_point(args):
    """Worker: all (1, 1) mode rows at one lattice offset."""
    mi, ni = args
    offset = lattice_offset(-0.5, mi, ni)
    stencil = stencil_for_order(1)
    rows = [wt.weights_dual(mode_term(1, r), offset, stencil)
            for r in range(2 * N_MODES + 1)]
    return mi, ni, np.array(rows)


def build_table11() -> wt.WeightTable:
    tol = wt.default_tolerance(1)
    n_rows = 2 * N_MODES + 1
    data = np.zeros((n_rows, GRID_N, GRID_N, 1))
    m_levels = np.zeros((n_rows, GRID_N, GRID_N), dtype=np.int8)
    on_node = (GRID_N // 2, GRID_N // 2)  # offset (0, 0)
    jobs = [(mi, ni) for mi in range(GRID_N) for ni in range(GRID_N)
            if (mi, ni) != on_node]
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=PROCESSES, mp_context=ctx) as ex:
        for mi, ni, w in ex.map(_dual_point, jobs, chunksize=8):
            data[:, mi, ni, :] = w
    offset = lattice_offset(-0.5, *on_node)
    for r in range(n_rows):
        w, level = sweep_row(1, 1, r, offset, tol)
        data[r, on_node[0], on_node[1], :] = w
        m_levels[r, on_node[0], on_node[1]] = level
    stencil = stencil_for_order(1)
    return wt.WeightTable(k=1, p=1, tol=tol, n_modes=N_MODES, grid_n=GRID_N,
                          domain_lo=-0.5, stencil_offsets=stencil.offsets,
                          bump_r0=wt.DEFAULT_BUMP.r0, bump_R=wt.DEFAULT_BUMP.R,
                          data=data, m_levels=m_levels)


def certify(table: wt.WeightTable) -> dict:
    """Worst |table - fresh sweep| over a seeded sample of lattice points."""
    rng = np.random.default_rng(CERT_SEED)
    points = [tuple(int(i) for i in rng.integers(0, table.grid_n, size=2))
              for _ in range(CERT_POINTS)]
    worst = 0.0
    for mi, ni in points:
        offset = lattice_offset(table.domain_lo, mi, ni)
        for r in range(table.n_rows):
            w, _level = sweep_row(table.k, table.p, r, offset, table.tol)
            worst = max(worst, float(np.max(np.abs(w - table.data[r, mi, ni]))))
    bound = 10.0 * table.tol
    if not worst <= bound:
        raise SystemExit(f"(k={table.k}, p={table.p}) table fails certification: "
                         f"worst deviation {worst:.3e} > {bound:.1e}")
    return {"points": [list(p) for p in points], "rows": table.n_rows,
            "worst_deviation": worst, "bound": bound}


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def main() -> int:
    os.makedirs(TABLE_DIR, exist_ok=True)
    manifest = {"tables": {}}

    t0 = time.perf_counter()
    table02 = wt.build_weight_table(0, 2, n_modes=N_MODES, grid_n=GRID_N,
                                    processes=PROCESSES,
                                    cache_dir=TABLE_DIR, force=True)
    built02 = time.perf_counter() - t0
    print(f"(0,2) built by build_weight_table in {built02:.1f} s", flush=True)

    t0 = time.perf_counter()
    table11 = build_table11()
    wt.save_weight_table(table11, os.path.join(TABLE_DIR, table_name(1, 1, table11.tol)))
    built11 = time.perf_counter() - t0
    print(f"(1,1) built by weights_dual/weights_limit in {built11:.1f} s", flush=True)

    for table, route, seconds in ((table02, "build_weight_table", built02),
                                  (table11, "weights_dual + weights_limit at (0,0)",
                                   built11)):
        name = table_name(table.k, table.p, table.tol)
        cert = certify(table)
        print(f"({table.k},{table.p}) certified: worst deviation "
              f"{cert['worst_deviation']:.3e} <= {cert['bound']:.1e}", flush=True)
        manifest["tables"][name] = {
            "k": table.k, "p": table.p, "route": route,
            "build_seconds": round(seconds, 1),
            "sha256": sha256(os.path.join(TABLE_DIR, name)),
            "certification": cert,
        }
    with open(MANIFEST, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
