"""The benchmark's four workloads and their correctness checks.

Each workload runs one *unit* of work through the library's public entry
points and returns the wall time of the library calls (the checks are not
timed) together with one check per operation.  A check compares a measured
accuracy figure with the bound the acceptance tests use; a failed check or an
exception counts as a failed operation and never aborts the run.

Sizes keep one benchmark run, set-up included, near half a minute on a
2-CPU machine, so that a hundred runs (ten seeds per workload, on two
commits, plus traced runs) fit in an hour.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import time
import traceback
from typing import Callable

import numpy as np

from ctquad import cli, ibim3d
from ctquad import weights as wt
from ctquad.quad_core import GridOffset, SingularTerm, stencil_for_order

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE_DIR = os.path.join(HERE, "tables")
TABLE_NAMES = ("ctwt_k0_p2_N16_g33_tol1.0e-08.ctwt",   # (k=0, p=2), then (1, 1)
               "ctwt_k1_p1_N16_g33_tol1.0e-08.ctwt")
ORACLE_FILE = os.path.join(HERE, "data", "oracle.json")

# torus-study: criterion 8's ladder (five levels from h=0.075, ratio 1.5,
# reference at half the finest spacing) and target seed, with the first 2 of
# its 20 targets so a run stays near half a minute.
TORUS_H0 = 0.075
TORUS_LEVELS = 5
TORUS_TARGETS = 2
TORUS_TARGET_SEED = 7
ORDER_FLOOR = 3.0            # criterion 8: mean-error order >= 3 per kernel

# tube-fine: the torus-study reference spacing, variable density (criterion 9)
TUBE_FINE_H = TORUS_H0 / 1.5 ** (TORUS_LEVELS - 1) / 2.0
EPS = 0.1

# quad2d: criteria 1 and 2
SK_COUNT = 10
GENERAL_COUNT = 12
ORDER_TOL = 0.35             # criteria 1 and 2: |observed - expected| <= 0.35

# table-build: the (0,2) production table on a sublattice of its 33x33 lattice
BUILD_K, BUILD_P = 0, 2
BUILD_GRID_N = 5
RESIDUAL_POINTS = 2          # sampled lattice points for the moment residual
RESIDUAL_FACTOR = 10.0       # criterion 3 / `weights verify`: <= 10 * tol

# gate share of a check whose value is missing or not finite (JSON has no inf)
FAILED_SHARE = 1000.0


@dataclasses.dataclass
class Check:
    """One checked operation: ``value`` against ``bound``.

    ``floor`` checks pass when value >= bound (an order that must be reached);
    the others pass when value <= bound (an error that must stay small).
    """

    name: str
    value: float
    bound: float
    floor: bool = False

    @property
    def ok(self) -> bool:
        if not math.isfinite(self.value):
            return False
        return self.value >= self.bound if self.floor else self.value <= self.bound

    @property
    def gate_share(self) -> float:
        """Share of the check's allowance used: below 1 passes, lower is better."""
        if not math.isfinite(self.value) or (self.floor and self.value <= 0):
            return FAILED_SHARE
        return self.bound / self.value if self.floor else self.value / self.bound


@dataclasses.dataclass
class UnitResult:
    seconds: float        # the library calls: the run_s sample
    wall: float           # the whole unit, checks included
    checks: list[Check]
    attempted: int
    failed: int
    accuracy: dict[str, float]


@dataclasses.dataclass
class Context:
    """What every unit needs and nothing times: tables, surface, scratch."""

    tables: tuple
    surface: object
    scratch: str
    workers: int


@dataclasses.dataclass
class Workload:
    """A named unit of work; BENCHMARK.json says why each exists."""

    name: str
    operations: int                      # checked operations per unit
    unit: Callable[[Context, int], tuple[float, list[Check], dict]]


def run_unit(workload: Workload, ctx: Context, seed: int) -> UnitResult:
    """One unit; an exception fails all of its operations, and is reported."""
    t0 = time.perf_counter()
    try:
        seconds, checks, accuracy = workload.unit(ctx, seed)
    except Exception:  # a benchmark run must finish and report the failure
        traceback.print_exc()
        wall = time.perf_counter() - t0
        return UnitResult(wall, wall, [], workload.operations,
                          workload.operations, {})
    wall = time.perf_counter() - t0
    failed = sum(0 if c.ok else 1 for c in checks)
    return UnitResult(seconds, wall, checks, len(checks), failed, accuracy)


# --------------------------------------------------------------------------
# torus-study
# --------------------------------------------------------------------------

def torus_study(ctx: Context, seed: int):
    # The seed orders the kernels; the targets stay criterion 8's, so the
    # orders (a bounded metric) repeat exactly from run to run.
    kernels = tuple(np.random.default_rng(seed).permutation(ibim3d.KERNEL_KINDS))
    config = cli.StudyConfig(study="ibim3d", h0=TORUS_H0, ratio=1.5,
                             count=TORUS_LEVELS, n_targets=TORUS_TARGETS,
                             seed=TORUS_TARGET_SEED, eps=EPS,
                             kernels=tuple(str(k) for k in kernels))
    t0 = time.perf_counter()
    res = cli.run_ibim3d(config, cache_dir=TABLE_DIR)
    seconds = time.perf_counter() - t0
    checks = [Check(f"order {s['kernel']}", float(s["mean_error_order"]),
                    ORDER_FLOOR, floor=True) for s in res["summary"]]
    return seconds, checks, {"order.min": min(c.value for c in checks)}


# --------------------------------------------------------------------------
# tube-fine
# --------------------------------------------------------------------------

def load_oracle() -> dict:
    with open(ORACLE_FILE) as f:
        return json.load(f)


def tube_fine(ctx: Context, seed: int):
    # The seed orders targets and kernels; the targets are criterion 9's
    # first two, whose oracle values are stored.
    oracle = load_oracle()
    rng = np.random.default_rng(seed)
    targets = [oracle["targets"][int(i)]
               for i in rng.permutation(len(oracle["targets"]))]
    kernels = [str(k) for k in rng.permutation(ibim3d.KERNEL_KINDS)]
    surface = ctx.surface
    rho = surface.density_at
    values = {}
    t0 = time.perf_counter()
    tube = ibim3d.build_tube(surface, TUBE_FINE_H, EPS, rho=rho)
    for ti, target in enumerate(targets):
        x = surface.param_point(target["theta"], target["phi"])
        for kind in kernels:
            values[(ti, kind)] = ibim3d.evaluate_V3(
                kind, surface, rho, x, TUBE_FINE_H, EPS, ctx.tables, tube=tube)
    seconds = time.perf_counter() - t0
    del tube
    checks = []
    for (ti, kind), v in values.items():
        ref = targets[ti]["values"][kind]
        checks.append(Check(f"oracle {kind} target {targets[ti]['index']}",
                            abs(v - ref) / abs(ref), oracle["bound"]))
    return seconds, checks, {"oracle_gap.max": max(c.value for c in checks)}


# --------------------------------------------------------------------------
# quad2d
# --------------------------------------------------------------------------

def quad2d(ctx: Context, seed: int):
    # The seed orders the work (which study first, which k first).  The cell
    # offset stays at criteria 1 and 2's (0.81, 0.46): at other offsets some
    # order estimates miss the 0.35 gate (see README).
    rng = np.random.default_rng(seed)
    k_values = tuple(int(k) for k in rng.permutation(3))
    configs = [
        cli.StudyConfig(study="quad2d-sk", h0=0.4, ratio=1.5, count=SK_COUNT,
                        k_values=k_values, p_values=cli.SK_P_RANGE),
        cli.StudyConfig(study="quad2d-general", h0=0.4, ratio=1.5,
                        count=GENERAL_COUNT, p_values=cli.GENERAL_P_RANGE),
    ]
    if rng.integers(2):
        configs.reverse()
    seconds = 0.0
    checks = []
    for config in configs:
        t0 = time.perf_counter()
        res = cli.run_quad2d(config, cache_dir=TABLE_DIR)
        seconds += time.perf_counter() - t0
        for s in res["summary"]:
            where = f"k={s['k']} " if s["k"] is not None else ""
            checks.append(Check(f"{s['study']} {where}{s['method']}",
                                abs(s["observed_order"] - s["expected_order"]),
                                ORDER_TOL))
    return seconds, checks, {"order_gap.max": max(c.value for c in checks)}


# --------------------------------------------------------------------------
# table-build
# --------------------------------------------------------------------------

def mode_term(k: int, row: int) -> SingularTerm:
    """The angular mode of table row ``row``: 1, cos(m psi) or sin(m psi)."""
    if row == 0:
        return SingularTerm.from_coefficients(k, 1.0)
    m = (row + 1) // 2
    coef = [0.0] * m
    coef[m - 1] = 1.0
    if row % 2 == 1:
        return SingularTerm.from_coefficients(k, 0.0, a=coef)
    return SingularTerm.from_coefficients(k, 0.0, b=coef)


def table_build(ctx: Context, seed: int):
    cache = os.path.join(ctx.scratch, "table-build")
    try:
        t0 = time.perf_counter()
        table = wt.build_weight_table(BUILD_K, BUILD_P, grid_n=BUILD_GRID_N,
                                      processes=ctx.workers, cache_dir=cache,
                                      force=True)
        seconds = time.perf_counter() - t0
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    fixture = ctx.tables[0]
    # the build's lattice is a sublattice of the fixture's: same sweep, same bits
    stride = (fixture.grid_n - 1) // (table.grid_n - 1)
    sub = fixture.data[:, ::stride, ::stride, :]
    deviation = float(np.max(np.abs(table.data - sub)))
    rng = np.random.default_rng(seed)
    stencil = stencil_for_order(table.p)
    worst = 0.0
    for mi, ni in rng.integers(0, table.grid_n, size=(RESIDUAL_POINTS, 2)):
        off = GridOffset(table.domain_lo + mi * table.step,
                         table.domain_lo + ni * table.step, (0, 0))
        for row in range(table.n_rows):
            hstar = 2.0 ** -int(table.m_levels[row, mi, ni])
            res = wt.moment_residual(mode_term(table.k, row), off, stencil,
                                     table.data[row, mi, ni], hstar)
            worst = max(worst, float(np.max(np.abs(res))) / table.tol)
    checks = [Check("table matches fixture", deviation / table.tol, RESIDUAL_FACTOR),
              Check("moment residual / tol", worst, RESIDUAL_FACTOR)]
    return seconds, checks, {"residual.max": worst}


WORKLOADS = {w.name: w for w in (
    Workload("torus-study", 3, torus_study),
    Workload("tube-fine", 6, tube_fine),
    Workload("quad2d", 20, quad2d),
    Workload("table-build", 2, table_build),
)}
