"""Every name a ctquad module exports in ``__all__`` exists in that module."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import ctquad

MODULES = sorted(f"ctquad.{m.name}" for m in pkgutil.iter_modules(ctquad.__path__))


def test_modules_found():
    assert {"ctquad.ibim3d", "ctquad.kernels3d", "ctquad.weights"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
