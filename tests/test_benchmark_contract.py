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

import pytest

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
