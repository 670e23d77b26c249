"""In-memory spans recorded around calls into the program's layers.

The benchmark does not change the program to trace it.  A :class:`Tracer`
replaces chosen public functions and methods with timing wrappers and puts
the originals back on :meth:`Tracer.close`.  Each call
becomes one :class:`Span` (name, start, end, parent, op id) kept in memory;
nothing is written until the run ends, when :func:`chrome_trace` turns the
spans into Chrome trace-event JSON that Perfetto and chrome://tracing open.

Times are integer nanoseconds from :func:`time.perf_counter_ns`, so a
span's self time (its duration minus the durations of its direct
children) is exact and never negative.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    """One timed call: ``parent`` indexes the enclosing span, or is -1."""

    name: str
    start_ns: int
    end_ns: int
    parent: int
    op: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records nested spans and named counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        #: Named sets of op ids, e.g. the ops that ran a scalar context.
        self.marks: dict[str, set[int]] = {}
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.op))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end_ns = time.perf_counter_ns()

    def mark(self, name: str) -> None:
        """Add the current op to the set ``name``."""
        self.marks.setdefault(name, set()).add(self.op)

    def wrap(self, fn, name: str, count=None):
        """``fn`` timed as span ``name``; ``count(args)`` adds to the counter.

        Calls made outside every open span, such as the correctness checks
        that follow an op, run untimed and uncounted.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            if count is not None:
                self.counters[name] += count(args)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- patching ------------------------------------------------------
    def patch_function(self, module: str, attr: str, name: str) -> None:
        """Time ``module.attr`` and every ``repro`` module's alias of it."""
        original = getattr(sys.modules[module], attr)
        traced = self.wrap(original, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "repro" and getattr(mod, attr, None) is original:
                self._set(mod, attr, traced)

    def patch_method(self, cls, attr: str, name: str, count=None) -> None:
        """Time method ``cls.attr`` (plain or classmethod) as span ``name``."""
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.wrap(raw.__func__, name, count)))
        else:
            self._set(cls, attr, self.wrap(raw, name, count))

    def after_init(self, cls, hook) -> None:
        """Call ``hook(instance)`` after every ``cls.__post_init__``."""
        original = inspect.getattr_static(cls, "__post_init__")

        @functools.wraps(original)
        def post_init(instance):
            original(instance)
            hook(instance)

        self._set(cls, "__post_init__", post_init)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def close(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- reductions ----------------------------------------------------
    def self_ns(self) -> list[int]:
        """Each span's duration minus its direct children's durations."""
        out = [s.duration_ns for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration_ns
        return out

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``s`` and ``self_s``."""
        out: dict[str, dict[str, float]] = {}
        for span, self_ns in zip(self.spans, self.self_ns()):
            row = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += span.duration_ns / 1e9
            row["self_s"] += self_ns / 1e9
        return out


def chrome_trace(spans: list[Span], *, process: str) -> dict:
    """Spans as Chrome trace-event JSON (complete ``X`` events, in µs)."""
    if spans:
        origin = min(s.start_ns for s in spans)
    else:
        origin = 0
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": process}},
    ]
    for index, s in enumerate(spans):
        events.append({
            "name": s.name,
            "cat": s.name.split(".")[0],
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": (s.start_ns - origin) / 1e3,
            "dur": s.duration_ns / 1e3,
            "args": {"op": s.op, "span": index, "parent": s.parent},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
