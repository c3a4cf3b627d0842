"""Shared fixtures: the production weight tables (cached across sessions),
and a guard against threads a test leaves running."""
from __future__ import annotations

import threading

import pytest

from ctquad.weights import build_weight_table

# how long a thread a test started may take to finish after the test ends
THREAD_GRACE_S = 2.0


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves alive a thread it started.

    The library's pools live inside the calls that use them; a pool that
    failed to shut down would keep its threads, and a later fork (the
    table build's process pool) would copy a process with threads.
    """
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    for t in left:
        t.join(THREAD_GRACE_S)
    alive = [t.name for t in left if t.is_alive()]
    assert not alive, f"test left threads running: {alive}"


@pytest.fixture(scope="session")
def table02():
    """Order-2 table for the k=0 (1/|x|-type) term."""
    return build_weight_table(0, 2)


@pytest.fixture(scope="session")
def table11():
    """Order-1 table for the k=1 (|x|-type) term."""
    return build_weight_table(1, 1)
