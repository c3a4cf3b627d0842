"""ctquad benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/`` directory, nothing is installed.  Workloads are defined in
``workloads.py`` and listed in ``BENCHMARK.json``.

``--trace 0`` measures: it times the fresh-process set-up several times, then
repeats the workload's unit while the next one is expected to end within
``--seconds`` (at least once), and reports the end-to-end metrics.
``--trace 1`` runs two untraced units and then one unit with every layer
wrapped (``layers.py``), and reports the per-layer metrics, the traced wall
time that the layers' self times do not cover, and the tracing overhead
(traced ``run_s`` minus the smaller untraced one).

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

The run never writes the library's table cache: ``CTQUAD_CACHE_DIR`` points at
an empty scratch directory under ``.bench_build/`` for the run, and the run
fails (without a result) if anything appears there.  Table builds go to their
own scratch directory, removed afterwards.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from typing import NoReturn

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
WORKERS = min(2, os.cpu_count() or 1)

# gate_share reads at least this: accuracy deep inside its gate (a residual at
# roundoff, say) is not a figure a later change should be held to
GATE_SHARE_FLOOR = 0.01


def fail(msg: str) -> NoReturn:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def preflight() -> None:
    """Refuse to run without the library sources or with altered fixtures."""
    if not os.path.isfile(os.path.join(SRC, "ctquad", "__init__.py")):
        fail(f"no library sources at {SRC}; run from the root of a checkout")
    manifest = os.path.join(HERE, "tables", "MANIFEST.json")
    if not os.path.isfile(manifest):
        fail("fixture tables missing; build them with perfbench/make_tables.py")
    with open(manifest) as f:
        entries = json.load(f)["tables"]
    for name, entry in entries.items():
        path = os.path.join(HERE, "tables", name)
        if not os.path.isfile(path):
            fail(f"fixture table {name} missing")
        with open(path, "rb") as f:
            if hashlib.sha256(f.read()).hexdigest() != entry["sha256"]:
                fail(f"fixture table {name} does not match its MANIFEST hash")
    if not os.path.isfile(os.path.join(HERE, "data", "oracle.json")):
        fail("oracle values missing; compute them with perfbench/make_oracle.py")


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists under ``section``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def listing(path: str) -> list[str]:
    return sorted(os.listdir(path)) if os.path.isdir(path) else []


def time_setup(env: dict) -> float:
    """Median wall time of fresh-process set-ups (import, tables, surface)."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, probe], cwd=ROOT, env=env, check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident set of this process and its waited-for children (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def measure(workload, ctx, seed: int, seconds: float, env: dict) -> tuple[dict, list]:
    from workloads import FAILED_SHARE, run_unit

    setup_s = time_setup(env)
    units = []
    t0 = time.perf_counter()
    while True:
        units.append(run_unit(workload, ctx, seed))
        elapsed = time.perf_counter() - t0
        typical = statistics.median(u.wall for u in units)
        if elapsed + typical > seconds:
            break
    checks = [c for u in units for c in u.checks]
    shares = [c.gate_share for c in checks]
    metrics = {
        "setup_s": setup_s,
        "run_s": statistics.median(u.seconds for u in units),
        "peak_rss_mb": peak_rss_mb(),
        "gate_share": max(shares + [GATE_SHARE_FLOOR]) if shares else FAILED_SHARE,
    }
    return metrics, units


def trace(workload, ctx, seed: int) -> tuple[dict, list]:
    from layers import instrument, per_layer_values
    from tracing import Tracer
    from workloads import run_unit

    # two untraced units: the first also pays the process's cold start, and
    # the faster of the two is the baseline the overhead is taken against
    untraced = [run_unit(workload, ctx, seed) for _ in range(2)]
    tracer = Tracer()
    try:
        instrument(tracer)
        traced = run_unit(workload, ctx, seed)
    finally:
        tracer.restore()
    failed_ops = traced.failed / traced.attempted
    overhead_s = traced.seconds - min(u.seconds for u in untraced)
    metrics = per_layer_values(tracer, traced.wall, overhead_s, ctx.workers,
                               traced.accuracy, failed_ops)
    return metrics, untraced + [traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ctquad benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    preflight()
    scratch = os.path.join(ROOT, ".bench_build", "perfbench", str(os.getpid()))
    library_cache = os.path.join(scratch, "library-cache")
    os.makedirs(library_cache, exist_ok=True)
    os.environ["CTQUAD_CACHE_DIR"] = library_cache
    os.environ.setdefault("PYTHONDONTWRITEBYTECODE", "1")
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    warnings.simplefilter("ignore")
    try:
        import ctquad
        if os.path.dirname(os.path.abspath(ctquad.__file__)) != os.path.join(SRC, "ctquad"):
            fail(f"imported ctquad from {ctquad.__file__}, not from {SRC}")
        from ctquad import surfaces
        from ctquad import weights as wt
        from workloads import FAILED_SHARE, TABLE_DIR, TABLE_NAMES, WORKLOADS, Context

        if args.workload not in WORKLOADS:
            fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        workload = WORKLOADS[args.workload]
        tables = tuple(wt.load_weight_table(os.path.join(TABLE_DIR, name))
                       for name in TABLE_NAMES)
        ctx = Context(tables=tables, surface=surfaces.tilted_torus(),
                      scratch=scratch, workers=WORKERS)
        before = listing(library_cache)
        if args.trace:
            metrics, units = trace(workload, ctx, args.seed)
        else:
            metrics, units = measure(workload, ctx, args.seed, args.seconds,
                                     dict(os.environ))
        if listing(library_cache) != before:
            fail(f"the run wrote to the library table cache: {listing(library_cache)}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        for parent in (os.path.dirname(scratch), os.path.dirname(os.path.dirname(scratch))):
            try:
                os.rmdir(parent)  # only when no other run is using it
            except OSError:
                break

    units_of = metric_units("per_layer" if args.trace else "end_to_end")
    missing = sorted(set(units_of) - set(metrics))
    if missing:
        fail(f"metrics listed in BENCHMARK.json but not computed: {missing}")
    for u in units:
        for c in u.checks:
            if not c.ok:
                print(f"perfbench: check failed: {c.name}: {c.value!r} vs bound "
                      f"{c.bound!r}", file=sys.stderr)
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # a figure that could not be computed (NaN from a failed study) reads
        # as the failed-check share, since JSON has no NaN
        "metrics": {name: {"value": metrics[name] if math.isfinite(metrics[name])
                           else FAILED_SHARE, "unit": unit}
                    for name, unit in units_of.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
