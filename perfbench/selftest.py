"""The benchmark's own tests (not part of the library's suite).

    python3 -m pytest -q perfbench/selftest.py

They check the harness, not the library: the untraced run installs no
wrappers and the traced run removes all of its own, self times add up to the
traced wall time, and one run of each mode prints every metric
``BENCHMARK.json`` names, with its unit.  About a minute on two CPUs.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
from layers import instrument  # noqa: E402
from tracing import Tracer, is_wrapped  # noqa: E402
from workloads import Check, Context, Workload  # noqa: E402


def wrap_points():
    tracer = Tracer()
    instrument(tracer)
    points = [(owner, attr) for owner, attr, _raw in tracer._patches]
    tracer.restore()
    return points


def probe_workload(seen: list) -> Workload:
    """A unit that records, at every call, which wrap points are wrapped."""
    points = wrap_points()

    def unit(ctx, seed):
        seen.append(sum(is_wrapped(o, a) for o, a in points))
        return 0.001, [Check("probe", 0.5, 1.0)], {}

    return Workload("probe", 1, unit)


def test_wrap_points_are_distinct_and_restorable():
    points = wrap_points()
    assert len(points) == len(set(points)) > 10
    assert not any(is_wrapped(o, a) for o, a in points)


def test_untraced_run_installs_no_wrappers():
    seen = []
    ctx = Context(tables=(), surface=None, scratch="", workers=1)
    metrics, units = run.measure(probe_workload(seen), ctx, 0, 0.0, dict(os.environ))
    assert seen and all(n == 0 for n in seen)
    assert set(metrics) == set(run.metric_units("end_to_end"))


def test_traced_run_restores_every_wrapper():
    seen = []
    ctx = Context(tables=(), surface=None, scratch="", workers=1)
    run.trace(probe_workload(seen), ctx, 0)
    points = wrap_points()
    assert seen == [0, 0, len(points)]
    assert not any(is_wrapped(o, a) for o, a in points)


def test_self_times_account_for_the_wall_time():
    tracer = Tracer()
    t0 = time.perf_counter()
    outer = tracer.open("outer")
    time.sleep(0.02)
    inner = tracer.open("inner")
    time.sleep(0.03)
    tracer.close(inner)
    tracer.close(outer)
    wall = time.perf_counter() - t0
    self_s = tracer.self_times()
    assert self_s["inner"] == pytest.approx(0.03, abs=0.01)
    assert self_s["outer"] == pytest.approx(0.02, abs=0.01)
    assert sum(self_s.values()) == pytest.approx(tracer.spans[outer].duration)
    assert 0.0 <= wall - sum(self_s.values()) < 0.01


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table-build",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    want = run.metric_units(section)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
