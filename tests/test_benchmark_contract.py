"""The benchmark under perfbench/ reaches into the library by name: its
tracer wraps callables at the names their callers look them up by, and its
workloads and table scripts call module attributes directly.  A rename in
the library that the benchmark does not follow breaks the benchmark, so these
tests check those names from here.  They read perfbench/ and change nothing
there."""
from __future__ import annotations

import ast
import importlib
import os
import sys
import threading

import pytest

from ctquad import cli, ibim3d, quad_core, surfaces

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
    every span opens on the calling thread and the stack ends empty."""
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
