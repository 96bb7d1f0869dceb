"""Per-rank event logs — the tracing substrate of the simulator.

When a run is started with ``trace=True`` (see
:func:`repro.simmpi.engine.run_spmd` / :meth:`repro.simmpi.pool.SpmdPool.run`),
every rank owns an :class:`EventLog`: a fixed-capacity ring buffer of
structured :class:`Event` records appended by the metering hooks in
:mod:`repro.simmpi.comm` and :mod:`repro.simmpi.collectives`:

* ``flops`` — a metered kernel span (``Comm.add_flops``);
* ``send`` / ``recv`` — point-to-point endpoints, carrying word/message
  tallies, the peer's world rank and (on receives) a ``ref`` to the
  matching send event so cross-rank dependencies can be replayed;
* ``coll`` — a collective span (begin/end virtual times plus the
  F/W/S the collective charged), tagged with the collective name,
  algorithm and communicator size;
* ``alloc`` / ``release`` — memory high-water tracking marks.

Events carry *virtual* times: ``t0``/``t1`` are the rank's clock before
and after the operation (both 0.0 when the run has no machine model),
and ``cost`` is the exact seconds the operation advanced the clock by —
kept separately from ``t1 - t0`` so downstream analyses
(:mod:`repro.analysis.timeline`) can re-accumulate the critical path
bit-exactly, without float re-rounding.

Like the cost counters, event logs are lock-free by ownership: only the
owning rank's thread appends during a run, and readers look only after
the SPMD join. The default path stays zero-overhead: when tracing is
off no ``EventLog`` exists and every hook is a single ``is None`` test
(guarded by ``benchmarks/bench_trace_overhead.py``).

Everything that observes a traced run reads these logs after the join
and adds no hook of its own: the timeline and critical path
(:mod:`repro.analysis.timeline`), the Eq. (2) power trace
(:mod:`repro.analysis.powertrace`) and the run metrics
(:func:`repro.metrics.runtime.run_metrics`, read as
``SpmdResult.metrics``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.exceptions import ParameterError

__all__ = [
    "Event",
    "EventLog",
    "collective_span",
    "DEFAULT_TRACE_CAPACITY",
]

#: Default per-rank ring capacity (events). At ~100 bytes/event this is
#: a few MiB per rank — generous for every workload in the repo.
DEFAULT_TRACE_CAPACITY = 1 << 16


@dataclass(slots=True)
class Event:
    """One structured trace record (see the module docstring for kinds)."""

    seq: int  # per-rank monotonically increasing id
    rank: int  # owning world rank
    kind: str  # "flops" | "send" | "recv" | "coll" | "alloc" | "release"
    t0: float  # virtual clock before the operation
    t1: float  # virtual clock after the operation
    #: exact seconds this event advanced the clock by (flops/send only;
    #: a recv's wait shows up as t1 > t0 with cost 0 — the time belongs
    #: to the sender's chain)
    cost: float = 0.0
    words: int = 0
    messages: int = 0
    flops: float = 0.0
    peer: int = -1  # world rank of the other endpoint (p2p only)
    tag: Any = None  # message tag / collective name / kernel label
    detail: str = ""  # collective algorithm etc.
    depth: int = 0  # collective-nesting depth when recorded
    size: int = 0  # communicator size (coll only)
    ref: tuple[int, int] | None = None  # (rank, seq) of the matching send

    @property
    def duration(self) -> float:
        """Virtual-time extent ``t1 - t0`` (display; sums may re-round —
        use ``cost`` for exact accumulation)."""
        return self.t1 - self.t0

    @property
    def stalled(self) -> bool:
        """True for a receive whose clock jumped forward to the message's
        departure time — the receiver waited on the sender."""
        return self.kind == "recv" and self.t1 > self.t0

    def label(self) -> str:
        """Compact human-readable name for renderers."""
        if self.kind == "coll":
            return f"{self.tag}[{self.detail}]" if self.detail else str(self.tag)
        if self.kind == "send":
            return f"send->{self.peer}"
        if self.kind == "recv":
            return f"recv<-{self.peer}"
        if self.kind == "flops":
            return str(self.tag) if self.tag is not None else "compute"
        return self.kind


class EventLog:
    """Fixed-capacity ring buffer of :class:`Event` records for one rank.

    Appends past capacity overwrite the oldest events (``dropped``
    counts them); analyses that need a complete history
    (:class:`~repro.analysis.timeline.CriticalPath`) detect drops and
    ask for a larger ``trace_capacity``.
    """

    __slots__ = ("rank", "capacity", "span_depth", "_buf", "_count")

    def __init__(self, rank: int, capacity: int = DEFAULT_TRACE_CAPACITY):
        if capacity < 1:
            raise ParameterError(f"trace capacity must be >= 1, got {capacity}")
        self.rank = rank
        self.capacity = capacity
        #: live collective-nesting depth (mutated by collective spans)
        self.span_depth = 0
        self._buf: list[Event] = []
        self._count = 0

    def append(
        self,
        kind: str,
        t0: float,
        t1: float,
        cost: float = 0.0,
        words: int = 0,
        messages: int = 0,
        flops: float = 0.0,
        peer: int = -1,
        tag: Any = None,
        detail: str = "",
        ref: tuple[int, int] | None = None,
        size: int = 0,
    ) -> int:
        """Record an event; returns its ``seq`` id."""
        seq = self._count
        # positional, in field order: keywords cost ~3x as much per event
        ev = Event(
            seq, self.rank, kind, t0, t1, cost, words, messages, flops, peer,
            tag, detail, self.span_depth, size, ref,
        )
        if seq < self.capacity:
            self._buf.append(ev)
        else:
            self._buf[seq % self.capacity] = ev
        self._count = seq + 1
        return seq

    @property
    def recorded(self) -> int:
        """Total events ever appended (including dropped ones)."""
        return self._count

    @property
    def dropped(self) -> int:
        """Events overwritten by ring wraparound."""
        return max(0, self._count - self.capacity)

    def events(self) -> list[Event]:
        """Surviving events in chronological (seq) order."""
        if self._count <= self.capacity:
            return list(self._buf)
        head = self._count % self.capacity
        return self._buf[head:] + self._buf[:head]

    def find(self, seq: int) -> Event | None:
        """The event with this seq, or None if dropped / never recorded."""
        if seq < 0 or seq >= self._count or seq < self._count - self.capacity:
            return None
        return self._buf[seq % self.capacity]

    def __len__(self) -> int:
        return min(self._count, self.capacity)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"EventLog(rank={self.rank}, recorded={self._count}, "
            f"dropped={self.dropped}, capacity={self.capacity})"
        )


class _NullSpan:
    """No-op context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _CollectiveSpan:
    """Records one ``coll`` event spanning a collective's execution.

    Snapshots the rank's clock and sent/flop tallies on entry and logs
    the deltas on exit, so each span carries exactly the F/W/S the
    collective charged, plus the communicator's size (the fan-out that
    :func:`repro.metrics.runtime.run_metrics` folds). Nested
    collectives (e.g. the scatter+allgather inside a large-message
    bcast) record at increasing ``depth``; breakdowns and metrics
    aggregate depth-0 spans only to avoid double counting.
    """

    __slots__ = (
        "_elog", "_size", "_counter", "_name", "_detail",
        "_t0", "_w0", "_m0", "_f0",
    )

    def __init__(self, elog, size: int, counter, name: str, detail: str):
        self._elog = elog
        self._size = size
        self._counter = counter
        self._name = name
        self._detail = detail

    def __enter__(self) -> "_CollectiveSpan":
        c = self._counter
        self._t0 = c.vtime
        self._w0 = c.words_sent
        self._m0 = c.messages_sent
        self._f0 = c.flops
        self._elog.span_depth += 1
        return self

    def __exit__(self, *exc_info) -> bool:
        c = self._counter
        elog = self._elog
        elog.span_depth -= 1
        elog.append(
            "coll",
            self._t0,
            c.vtime,
            words=c.words_sent - self._w0,
            messages=c.messages_sent - self._m0,
            flops=c.flops - self._f0,
            tag=self._name,
            detail=self._detail,
            size=self._size,
        )
        return False


def collective_span(comm, name: str, detail: str = ""):
    """Context manager tracing one collective call on ``comm``.

    Returns a shared no-op object when the world is untraced, so the
    default path pays one attribute test and no allocation.
    """
    elog = comm._elog
    if elog is None:
        return _NULL_SPAN
    return _CollectiveSpan(elog, comm.size, comm.counter, name, detail)
