"""In-memory host-time spans around public ``repro`` functions.

:class:`Tracer` replaces a function with a wrapper that records one span
per call: name, parent span, and both wall-clock and CPU start/end
(nanoseconds). The CPU clock is the calling thread's, or the whole
process's for the names in :attr:`Tracer.process_cpu`. Spans nest per
thread, so a span's *self* time is its duration minus its direct
children's. Rank threads are charged in thread-CPU time: under the GIL
their wall-clock intervals overlap while they wait for one another, CPU
time does not.

Only the traced run installs a tracer; the timed end-to-end run never
imports this module.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    """One finished call. A tuple of ints and a str: the garbage
    collector stops tracking it, so a traced run's spans do not make the
    collections that rank threads trigger slower."""

    sid: int
    name: str
    parent: int | None
    start: int
    end: int
    cpu_start: int
    cpu_end: int

    @property
    def wall(self) -> int:
        return self.end - self.start

    @property
    def cpu(self) -> int:
        return self.cpu_end - self.cpu_start


class Tracer:
    """Records spans around wrapped functions until :meth:`uninstall`."""

    def __init__(self, process_cpu=()) -> None:
        self.spans: list[Span] = []
        #: Span names whose CPU clock is the process's, not the thread's.
        self.process_cpu = frozenset(process_cpu)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        clock = time.process_time_ns if name in self.process_cpu else time.thread_time_ns
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start, cpu_start = time.perf_counter_ns(), clock()
        try:
            return fn(*args, **kwargs)
        finally:
            cpu_end, end = clock(), time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(sid, name, parent, start, end, cpu_start, cpu_end))

    def wrap(self, owner, attr: str, name: str, arg_hook=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``arg_hook(args, kwargs)`` may rewrite the call's arguments
        before the call (used to wrap a rank program in its own span).
        Class- and static-methods keep their kind.
        """
        raw = inspect.getattr_static(owner, attr)
        func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if arg_hook is not None:
                args, kwargs = arg_hook(args, kwargs)
            return self.call(name, func, *args, **kwargs)

        if isinstance(raw, classmethod):
            new = classmethod(wrapper)
        elif isinstance(raw, staticmethod):
            new = staticmethod(wrapper)
        else:
            new = wrapper
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- post-hoc views -------------------------------------------------------

    def self_times(self, spans=None) -> dict[str, float]:
        """Seconds of self time per span name: thread-CPU for the
        :data:`RANK_SPANS`, wall-clock for the harness-thread spans."""
        spans = self.spans if spans is None else spans
        child_wall: dict[int, int] = defaultdict(int)
        child_cpu: dict[int, int] = defaultdict(int)
        for s in spans:
            if s.parent is not None:
                child_wall[s.parent] += s.wall
                child_cpu[s.parent] += s.cpu
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            if rank_side(s.name):
                out[s.name] += (s.cpu - child_cpu[s.sid]) / 1e9
            else:
                out[s.name] += (s.wall - child_wall[s.sid]) / 1e9
        return dict(out)


def outermost(spans, name: str) -> int:
    """Spans called ``name`` with no same-named ancestor: one per
    user-level call (a shift's inner send/recv count once)."""
    by_id = {s.sid: s for s in spans}
    n = 0
    for s in spans:
        if s.name != name:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.name != name:
            p = by_id.get(p.parent)
        n += p is None
    return n


#: Spans that run on rank threads and are charged in thread-CPU time.
RANK_SPANS = ("simmpi.rank", "simmpi.collective", "simmpi.fastpath_resolve", "simmpi.p2p")


def rank_side(name: str) -> bool:
    return name in RANK_SPANS
