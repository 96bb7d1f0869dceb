"""Deterministic fault injection for the simulated machine.

A :class:`FaultPlan` is a *seedable, reproducible* schedule of failures
that the engine and the comm layer honor during an SPMD run — the
chaos-harness counterpart to the paper's replication argument: 2.5D
algorithms hold ``c = p M / n^2`` redundant copies of the data
(Section IV), and that redundancy is exactly what fault tolerance can
exploit for free. The plan supports:

* :class:`CrashFault` — a rank raises
  :class:`~repro.exceptions.RankCrashedError` when its metered-operation
  counter (sends, receives, ``add_flops`` calls and explicit
  ``fault_tick``\\ s) reaches ``at_op``. The engine *isolates* the crash:
  the rank is marked dead in ``World.dead`` instead of aborting the
  world, so survivors can detect it (receives from a dead peer raise
  :class:`~repro.exceptions.PeerDeadError`) and recover.
* :class:`DropFault` / :class:`DuplicateFault` / :class:`DelayFault` —
  message faults applied at the mailbox boundary of the *n*-th message
  on a directed ``(src, dst)`` edge. Drops divert the envelope into a
  retransmission buffer that :meth:`~repro.simmpi.comm.Comm.recv_reliable`
  can recover from (metering the retransmission as recovery traffic);
  duplicates deliver the envelope twice; delays add virtual seconds to
  the message's departure time (machine-model runs only).
* :class:`SlowdownFault` — a transient per-rank ``gamma_t`` multiplier
  over a metered-operation window, modeling thermal throttling or a
  noisy neighbor. Virtual-time only; counts are untouched.

Determinism contract: every fault triggers on *operation counts* and
*per-edge message sequence numbers*, never on wall-clock time or thread
scheduling, so a given ``(program, FaultPlan)`` pair produces the same
counts, the same virtual clocks and the same recovery traffic on every
run. The failure detector is likewise *perfect and prescient*: resilient
algorithms may ask :meth:`~repro.simmpi.comm.Comm.doomed_ranks` which
ranks the plan will crash and route around them from the start — the
simulator meters the *data flow* of recovery (which replicas move
where), not a distributed agreement protocol.

With ``faults=None`` (the default everywhere) no :class:`FaultState` is
created and every hook is a single ``is None`` test: counts and per-rank
virtual clocks are bit-identical to a build without fault support
(held by ``tests/test_faults.py::TestDisabledPathIdentity``).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

from repro.exceptions import ParameterError, RankCrashedError, SimulationError

__all__ = [
    "CrashFault",
    "DropFault",
    "DuplicateFault",
    "DelayFault",
    "SlowdownFault",
    "FaultPlan",
    "FaultState",
    "park_until_crash",
]

#: Iteration cap for :func:`park_until_crash` — far above any sensible
#: ``at_op`` while still bounding a misconfigured plan.
PARK_LIMIT = 10_000_000


@dataclass(frozen=True)
class CrashFault:
    """Crash ``rank`` when its metered-operation counter reaches ``at_op``
    (1-based: ``at_op=1`` kills the very first metered operation, before
    that operation takes effect)."""

    rank: int
    at_op: int


@dataclass(frozen=True)
class SlowdownFault:
    """Multiply ``rank``'s per-flop cost ``gamma_t`` by ``factor`` for
    metered operations ``first_op..last_op`` (inclusive, 1-based)."""

    rank: int
    factor: float
    first_op: int
    last_op: int


@dataclass(frozen=True)
class DropFault:
    """Drop the ``nth`` (0-based) message sent on the ``src -> dst`` edge.

    The sender meters the send normally — the words left its NIC — but
    the envelope is diverted into the fault state's retransmission
    buffer instead of the destination mailbox. A plain ``recv`` on the
    channel deadlocks; ``recv_reliable`` recovers the envelope once the
    world goes quiescent and meters the retransmission as recovery
    traffic.
    """

    src: int
    dst: int
    nth: int = 0


@dataclass(frozen=True)
class DuplicateFault:
    """Deliver the ``nth`` message on the ``src -> dst`` edge twice (the
    network duplicated it; the sender is metered once, a receiver that
    consumes both copies meters two receives — word conservation breaks,
    by design)."""

    src: int
    dst: int
    nth: int = 0


@dataclass(frozen=True)
class DelayFault:
    """Add ``delay`` virtual seconds to the departure time of the ``nth``
    message on the ``src -> dst`` edge (no effect on counts, and no
    effect at all without a machine model)."""

    src: int
    dst: int
    nth: int = 0
    delay: float = 0.0


_EDGE_KINDS = (DropFault, DuplicateFault, DelayFault)
_ALL_KINDS = (CrashFault, SlowdownFault) + _EDGE_KINDS


class FaultPlan:
    """An immutable, validated collection of fault specs.

    Build one directly from specs, or deterministically from a seed::

        plan = FaultPlan([CrashFault(rank=3, at_op=10)])
        plan = FaultPlan.random(seed=7, size=16, crashes=1, drops=2)

    Pass it to :func:`~repro.simmpi.engine.run_spmd` /
    :meth:`~repro.simmpi.pool.SpmdPool.run` via ``faults=``.
    """

    __slots__ = ("faults",)

    def __init__(self, faults=()):
        faults = tuple(faults)
        for f in faults:
            if not isinstance(f, _ALL_KINDS):
                raise ParameterError(
                    f"unknown fault spec {f!r}; expected one of "
                    f"{', '.join(k.__name__ for k in _ALL_KINDS)}"
                )
            if isinstance(f, CrashFault) and f.at_op < 1:
                raise ParameterError(f"crash at_op must be >= 1, got {f.at_op}")
            if isinstance(f, SlowdownFault) and (
                f.factor <= 0 or f.first_op < 1 or f.last_op < f.first_op
            ):
                raise ParameterError(f"invalid slowdown window {f!r}")
            if isinstance(f, _EDGE_KINDS) and f.nth < 0:
                raise ParameterError(f"message index nth must be >= 0, got {f.nth}")
            if isinstance(f, DelayFault) and f.delay < 0:
                raise ParameterError(f"delay must be >= 0, got {f.delay}")
        object.__setattr__(self, "faults", faults)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("FaultPlan is immutable")

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultPlan({list(self.faults)!r})"

    @classmethod
    def single_crash(cls, rank: int, at_op: int) -> "FaultPlan":
        """The most common plan: one rank dies at its ``at_op``-th op."""
        return cls((CrashFault(rank=rank, at_op=at_op),))

    @classmethod
    def random(
        cls,
        seed: int,
        size: int,
        crashes: int = 1,
        drops: int = 0,
        duplicates: int = 0,
        delays: int = 0,
        slowdowns: int = 0,
        max_op: int = 64,
        max_delay: float = 1e-3,
    ) -> "FaultPlan":
        """A deterministic plan sampled from ``numpy`` RNG ``seed``.

        Crash victims are distinct ranks; message faults pick random
        directed edges and small message indices. The same
        ``(seed, size, ...)`` arguments always produce the same plan —
        the chaos CI job sweeps a fixed seed list.
        """
        import numpy as np

        if size < 1:
            raise ParameterError(f"size must be >= 1, got {size}")
        rng = np.random.default_rng(seed)
        faults: list = []
        victims = rng.permutation(size)[: min(crashes, size)]
        for rank in victims:
            faults.append(
                CrashFault(rank=int(rank), at_op=int(rng.integers(1, max_op + 1)))
            )
        def edge():
            src = int(rng.integers(size))
            dst = int(rng.integers(size))
            return src, dst, int(rng.integers(0, 4))

        for _ in range(drops):
            src, dst, nth = edge()
            faults.append(DropFault(src=src, dst=dst, nth=nth))
        for _ in range(duplicates):
            src, dst, nth = edge()
            faults.append(DuplicateFault(src=src, dst=dst, nth=nth))
        for _ in range(delays):
            src, dst, nth = edge()
            faults.append(
                DelayFault(
                    src=src, dst=dst, nth=nth, delay=float(rng.uniform(0, max_delay))
                )
            )
        for _ in range(slowdowns):
            first = int(rng.integers(1, max_op + 1))
            faults.append(
                SlowdownFault(
                    rank=int(rng.integers(size)),
                    factor=float(rng.uniform(1.5, 8.0)),
                    first_op=first,
                    last_op=first + int(rng.integers(1, max_op)),
                )
            )
        return cls(faults)

    # -- queries ---------------------------------------------------------

    def crash_ranks(self) -> frozenset[int]:
        """Ranks this plan dooms — the prescient failure detector."""
        return frozenset(f.rank for f in self.faults if isinstance(f, CrashFault))

    def validate(self, size: int) -> None:
        """Raise :class:`~repro.exceptions.ParameterError` if any fault
        references a rank outside ``range(size)``."""
        for f in self.faults:
            if isinstance(f, (CrashFault, SlowdownFault)):
                if not 0 <= f.rank < size:
                    raise ParameterError(
                        f"fault {f!r} targets rank {f.rank}, outside world "
                        f"of size {size}"
                    )
            else:
                for what, r in (("src", f.src), ("dst", f.dst)):
                    if not 0 <= r < size:
                        raise ParameterError(
                            f"fault {f!r} has {what}={r}, outside world "
                            f"of size {size}"
                        )

    def activate(self, size: int) -> "FaultState":
        """Instantiate per-run mutable state for a ``size``-rank world."""
        return FaultState(self, size)


class FaultState:
    """One run's live fault-injection state.

    Per-rank operation counters and per-edge message counters are only
    touched by the owning/sending rank's thread (the same ownership
    discipline as :class:`~repro.simmpi.counters.CostCounter`); the
    retransmission buffer and the injection log are shared and guarded
    by a lock.
    """

    __slots__ = (
        "plan",
        "size",
        "_ops",
        "_crash_at",
        "_slow",
        "_edge",
        "_edge_sent",
        "_lock",
        "_dropped",
        "_injected",
    )

    def __init__(self, plan: FaultPlan, size: int):
        plan.validate(size)
        self.plan = plan
        self.size = size
        self._ops = [0] * size
        self._crash_at: dict[int, int] = {}
        self._slow: dict[int, tuple[SlowdownFault, ...]] = {}
        # src rank -> dst rank -> {nth: fault}; counters per src are
        # thread-local to the sender.
        self._edge: list[dict[int, dict[int, object]]] = [{} for _ in range(size)]
        self._edge_sent: list[dict[int, int]] = [{} for _ in range(size)]
        self._lock = threading.Lock()
        # (src, dst, context, tag) -> FIFO of dropped envelopes
        self._dropped: dict[tuple, deque] = {}
        self._injected: list[dict] = []
        for f in plan.faults:
            if isinstance(f, CrashFault):
                prev = self._crash_at.get(f.rank)
                self._crash_at[f.rank] = f.at_op if prev is None else min(prev, f.at_op)
            elif isinstance(f, SlowdownFault):
                self._slow[f.rank] = self._slow.get(f.rank, ()) + (f,)
            else:
                self._edge[f.src].setdefault(f.dst, {})[f.nth] = f

    # -- per-operation hooks (called from the owning rank's thread) ------

    def tick(self, rank: int) -> float | None:
        """Advance ``rank``'s operation counter; crash or return the
        active ``gamma_t`` multiplier (None when no slowdown applies)."""
        n = self._ops[rank] + 1
        self._ops[rank] = n
        at = self._crash_at.get(rank)
        if at is not None and n >= at:
            self._record("crash", rank=rank, op=n)
            raise RankCrashedError(rank, n)
        windows = self._slow.get(rank)
        if windows is None:
            return None
        factor = None
        for w in windows:
            if w.first_op <= n <= w.last_op:
                factor = w.factor if factor is None else factor * w.factor
        return factor

    def ops(self, rank: int) -> int:
        """Metered operations rank has completed (diagnostics)."""
        return self._ops[rank]

    # -- mailbox-boundary hooks (called from the sender's thread) --------

    def outgoing(self, src: int, dst: int, context, tag, envelope):
        """Apply message faults to one send; returns ``(action, envelope)``
        with action one of ``"deliver" | "drop" | "duplicate"``."""
        sent = self._edge_sent[src]
        seq = sent.get(dst, 0)
        sent[dst] = seq + 1
        by_dst = self._edge[src].get(dst)
        if by_dst is None:
            return "deliver", envelope
        fault = by_dst.get(seq)
        if fault is None:
            return "deliver", envelope
        if isinstance(fault, DropFault):
            with self._lock:
                self._dropped.setdefault((src, dst, context, tag), deque()).append(
                    envelope
                )
            self._record("drop", src=src, dst=dst, nth=seq, tag=repr(tag))
            return "drop", envelope
        if isinstance(fault, DuplicateFault):
            self._record("duplicate", src=src, dst=dst, nth=seq, tag=repr(tag))
            return "duplicate", envelope
        # DelayFault: shift the virtual departure (machine-model runs).
        self._record("delay", src=src, dst=dst, nth=seq, delay=fault.delay)
        if envelope.departure is None:
            return "deliver", envelope
        return "deliver", type(envelope)(
            payload=envelope.payload,
            departure=envelope.departure + fault.delay,
            trace_ref=envelope.trace_ref,
            words=envelope.words,
        )

    def has_dropped(self, src: int, dst: int, context, tag) -> bool:
        """True while a dropped envelope waits for retransmission on
        this channel (the predicate ``recv_reliable`` parks with)."""
        with self._lock:
            return (src, dst, context, tag) in self._dropped

    def retransmit(self, src: int, dst: int, context, tag):
        """Pop a dropped envelope for this channel (None when empty) —
        the receiver-driven retransmission of ``recv_reliable``."""
        with self._lock:
            chan = self._dropped.get((src, dst, context, tag))
            if not chan:
                return None
            env = chan.popleft()
            if not chan:
                del self._dropped[(src, dst, context, tag)]
        self._record("retransmit", src=src, dst=dst, tag=repr(tag))
        return env

    # -- reporting -------------------------------------------------------

    def _record(self, kind: str, **detail) -> None:
        with self._lock:
            self._injected.append({"kind": kind, **detail})

    def injected(self) -> list[dict]:
        """Chronological log of every fault that actually fired."""
        with self._lock:
            return list(self._injected)

    def undelivered_drops(self) -> int:
        """Dropped envelopes never retransmitted (lost for good)."""
        with self._lock:
            return sum(len(chan) for chan in self._dropped.values())


def park_until_crash(comm, limit: int = PARK_LIMIT) -> None:
    """Spin a doomed rank on metered no-ops until its injected crash fires.

    Resilient algorithms route all real work around ranks the plan dooms
    (see :meth:`~repro.simmpi.comm.Comm.doomed_ranks`); the doomed rank
    itself calls this to burn operations — sending and receiving nothing
    — until :class:`~repro.exceptions.RankCrashedError` unwinds it. A
    no-op when this rank is not doomed. Raises
    :class:`~repro.exceptions.SimulationError` if the crash never fires
    within ``limit`` operations (a misconfigured plan).
    """
    if comm.rank not in comm.doomed_ranks():
        return
    for _ in range(limit):
        comm.fault_tick()
    raise SimulationError(
        f"rank {comm.world_rank} is doomed but its crash did not fire "
        f"within {limit} operations — check the FaultPlan's at_op"
    )
