"""The benchmark under perfbench/ reaches into the library by name: its
tracer wraps callables at the names their callers look them up by, and its
workloads and table scripts call module attributes directly.  A rename in
the library that the benchmark does not follow breaks the benchmark, so these
tests check those names from here.  The `table-build` workload also checks
its build against the fixture tables, and a test here holds the library to
that fixture.  They read perfbench/ and change nothing there."""
from __future__ import annotations

import ast
import importlib
import inspect
import os
import sys
import threading

import numpy as np
import pytest

from ctquad import cli, ibim3d, quad_core, surfaces, weights

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
SOURCES = sorted(name for name in os.listdir(PERFBENCH) if name.endswith(".py"))


@pytest.fixture
def perfbench_on_path(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)


def test_every_wrap_point_installs(perfbench_on_path):
    from layers import instrument
    from tracing import Tracer, is_wrapped

    tracer = Tracer()
    try:
        instrument(tracer)
        points = [(owner, attr) for owner, attr, _ in tracer._patches]
        assert points and all(is_wrapped(o, a) for o, a in points)
    finally:
        tracer.restore()
    assert not any(is_wrapped(o, a) for o, a in points)


def test_pooled_library_code_calls_no_traced_name(perfbench_on_path,
                                                  monkeypatch):
    """The tracer keeps one span stack for all threads, so a wrapped name
    called from a pool thread would close its span out of order or leave it
    open.  The 2D studies and a tube with a density run on a pool of two,
    in blocks small enough to make several tasks, under every wrap and with
    the interpreter switching threads as often as it can: nothing raises,
    every span opens on the calling thread and the stack ends empty.  The
    pooled callables: the integrands of `quad_core.grid_values`, and in the
    tube `TiltedTorus.foot_and_normal` (the band's projection),
    `geometry.stencil_area_ratio` (the J passes) and `TiltedTorus.density_at`
    (the rho fill)."""
    from layers import instrument
    from tracing import Tracer, is_wrapped

    class ThreadTracer(Tracer):
        def open(self, name):
            threads.add(threading.get_ident())
            return super().open(name)

    threads = set()
    monkeypatch.setattr(quad_core, "_pool_size", lambda: 2)
    monkeypatch.setattr(quad_core, "BLOCK_NODES", 64)
    torus = surfaces.tilted_torus()
    configs = [cli.StudyConfig(study="quad2d-sk", h0=0.4, count=3,
                               p_values=(1, 2)),
               cli.StudyConfig(study="quad2d-general", h0=0.4, count=3,
                               p_values=(2, 3))]
    tracer = ThreadTracer()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        instrument(tracer)
        points = [(owner, attr) for owner, attr, _ in tracer._patches]
        for config in configs:
            cli.run_quad2d(config)
        ibim3d.build_tube(torus, 0.04, 0.1, rho=torus.density_at)
    finally:
        sys.setswitchinterval(interval)
        tracer.restore()
    assert tracer._stack == []
    assert threads == {threading.get_ident()}
    # the wraps saw the work: the rules, phi and the tube's own span
    assert {"quad_core.rule", "quad_core.phi", "ibim3d.tube"} <= {
        span.name for span in tracer.spans}
    assert not any(is_wrapped(o, a) for o, a in points)


def _library_names(tree: ast.Module):
    """(module, attribute, line) for each library name the source uses.

    Covers ``from ctquad import m [as alias]`` followed by ``alias.attr``,
    and ``from ctquad.m import name``.
    """
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ctquad":
            for a in node.names:
                aliases[a.asname or a.name] = f"ctquad.{a.name}"
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.startswith("ctquad.")):
            for a in node.names:
                yield node.module, a.name, node.lineno
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            yield aliases[node.value.id], node.attr, node.lineno


@pytest.mark.parametrize("source", SOURCES)
def test_perfbench_names_exist(source):
    with open(os.path.join(PERFBENCH, source)) as f:
        tree = ast.parse(f.read(), filename=source)
    missing = [f"{source}:{line} {module}.{attr}"
               for module, attr, line in _library_names(tree)
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing, missing


def test_scan_sees_the_table_script_names():
    # make_tables.py builds the benchmark's fixture tables with weights_limit
    with open(os.path.join(PERFBENCH, "make_tables.py")) as f:
        names = {(m, a) for m, a, _ in _library_names(ast.parse(f.read()))}
    assert ("ctquad.weights", "weights_limit") in names


def test_table_build_matches_the_fixture_sublattice(tmp_path):
    """The `table-build` workload compares its 5x5 (0,2) build with the
    fixture table on the matching sublattice.  Here every level must agree
    and every entry within 1e-12, so a change that flips a level or moves
    an entry further fails here before it reaches the benchmark."""
    fixture = weights.load_weight_table(os.path.join(
        PERFBENCH, "tables", weights.table_filename(0, 2)))
    table = weights.build_weight_table(0, 2, grid_n=5, cache_dir=str(tmp_path))
    stride = (fixture.grid_n - 1) // (table.grid_n - 1)
    assert np.array_equal(table.m_levels,
                          fixture.m_levels[:, ::stride, ::stride])
    assert np.max(np.abs(table.data - fixture.data[:, ::stride, ::stride, :])) <= 1e-12


def _weight_table_uses(source: str, names: set[str]):
    """The keywords of the source's ``WeightTable(...)`` calls, and the
    attributes it reads on variables called one of ``names``."""
    with open(os.path.join(PERFBENCH, source)) as f:
        tree = ast.parse(f.read(), filename=source)
    keywords, attributes = set(), set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "WeightTable"):
            keywords |= {k.arg for k in node.keywords}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in names):
            attributes.add(node.attr)
    return keywords, attributes


def test_weight_table_takes_the_table_script_keywords():
    # make_tables.py assembles the (1,1) fixture with WeightTable(...)
    keywords, _ = _weight_table_uses("make_tables.py", set())
    assert keywords == {"k", "p", "tol", "n_modes", "grid_n", "domain_lo",
                        "stencil_offsets", "bump_r0", "bump_R", "data",
                        "m_levels"}
    inspect.signature(weights.WeightTable).bind(**dict.fromkeys(keywords))


def test_weight_table_has_the_workload_attributes():
    # the table-build workload reads these off its build and the fixture
    _, attributes = _weight_table_uses("workloads.py", {"table", "fixture"})
    assert attributes == {"data", "grid_n", "domain_lo", "step", "k", "p",
                          "n_rows", "m_levels", "tol"}
    table = weights.WeightTable(
        k=1, p=1, tol=1e-8, n_modes=0, grid_n=4, domain_lo=-0.5,
        stencil_offsets=((0, 0),), bump_r0=weights.DEFAULT_BUMP.r0,
        bump_R=weights.DEFAULT_BUMP.R, data=np.zeros((1, 4, 4, 1)),
        m_levels=np.zeros((1, 4, 4), dtype=np.int8))
    assert all(hasattr(table, name) for name in attributes)


@pytest.mark.parametrize("k, p", [(0, 2), (1, 1)])
def test_fixture_tables_pass_the_header_checks(k, p):
    # the fixtures are named as the library's cache names its tables, for
    # the default parameters, so a parameter-keyed lookup serves them
    path = os.path.join(PERFBENCH, "tables", weights.table_filename(k, p))
    table = weights.load_named_table(path, k, p)
    assert (table.k, table.p, table.n_modes, table.grid_n) == (k, p, 16, 33)
    served = cli.load_table_checked(k, p, cache_dir=os.path.dirname(path))
    assert np.array_equal(served.data, table.data)
