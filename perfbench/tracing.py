"""Per-layer spans and counts, recorded by wrapping library callables.

The traced run replaces a layer's public callables at the names their callers
look them up by (a module attribute such as ``ctquad.ibim3d.build_tube``, or a
method on a class) with a wrapper that opens a span, calls the original, and
closes the span.  Nothing under ``src/`` is edited, and ``Tracer.restore``
puts every original back.

Spans nest on one stack (the library is single-threaded in the parent
process).  A span's self time is its duration minus the time its child spans
cover, so the self times of all spans plus the uncovered remainder add up to
the traced wall time.
"""
from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from typing import Any, Callable


@dataclasses.dataclass
class Span:
    name: str
    parent: int          # index of the enclosing span, -1 at the root
    start: float
    end: float = 0.0
    child: float = 0.0   # time covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """Holds the spans and counts of one traced run and the patches made."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, time.perf_counter()))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        if span.parent >= 0:
            self.spans[span.parent].child += span.duration

    # -- patching ------------------------------------------------------------

    def wrap(self, owner: Any, attr: str, span: str | None,
             count: Callable[[tuple, dict, Any], dict[str, float]] | None = None
             ) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``span`` names the span each call opens (None: count only, the call's
        time stays with its caller).  ``count(args, kwargs, result)`` returns
        counter increments for the call.  Methods, class methods and module
        functions are all handled; the original is restored by ``restore``.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(span) if span is not None else -1
            try:
                result = func(*args, **kwargs)
            finally:
                if idx >= 0:
                    tracer.close(idx)
            if count is not None:
                for name, amount in count(args, kwargs, result).items():
                    tracer.counts[name] += amount
            return result

        wrapper.__wrapped__ = func
        wrapper.perfbench_wrapper = True
        wrapper.__name__ = getattr(func, "__name__", attr)
        new = type(raw)(wrapper) if isinstance(raw, (classmethod, staticmethod)) else wrapper
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- summaries -----------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.self_time
        return dict(out)


def is_wrapped(owner: Any, attr: str) -> bool:
    """True when ``owner.attr`` is a tracing wrapper (used by the self-tests)."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    return getattr(func, "perfbench_wrapper", False)
