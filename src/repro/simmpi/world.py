"""Shared state of one simulated machine run.

A :class:`World` owns the mailboxes, cost counters and configuration
shared by all ranks of an SPMD execution. It is created by
:func:`repro.simmpi.engine.run_spmd` (or by
:meth:`repro.simmpi.pool.SpmdPool.run`) and never touched by user code
directly — algorithms see only their :class:`~repro.simmpi.comm.Comm`.
"""

from __future__ import annotations

import math
import threading

from repro.simmpi.baton import Baton
from repro.simmpi.counters import CostCounter
from repro.simmpi.events import DEFAULT_TRACE_CAPACITY, EventLog
from repro.simmpi.mailbox import Mailbox

__all__ = ["World", "PAYLOAD_MODES"]

#: Valid payload transport modes (see :mod:`repro.simmpi.payload`).
PAYLOAD_MODES = ("cow", "copy")


class World:
    """Mailboxes + counters + config for a ``size``-rank simulation.

    Parameters
    ----------
    size:
        Number of ranks.
    max_message_words:
        The model's m — a k-word payload is metered as ceil(k/m)
        messages. Defaults to unbounded (every send is one message).
    timeout:
        Bounds how long one rank may hold the baton: the engine's
        progress watchdog reports a wedged rank once no hand-off
        happened for ``2*timeout + 1`` seconds. No wait inside the
        world has a timer of its own.
    machine:
        Optional :class:`~repro.core.parameters.MachineParameters`. When
        given, each rank carries a virtual clock advanced by the Eq. (1)
        cost of its operations, yielding a critical-path runtime
        estimate (see :mod:`repro.simmpi.envelope`).
    node_size:
        Optional two-level grouping (Fig. 2): consecutive blocks of
        ``node_size`` ranks form a node; traffic crossing node
        boundaries is tallied separately.
    payload_mode:
        ``"cow"`` (default) — copy-on-write transport: payloads are
        frozen once at the first send and shared read-only by relays and
        receivers (see :class:`~repro.simmpi.payload.FrozenPayload`).
        ``"copy"`` — the historical deep-copy-per-hop transport.
        Word/message counts are identical in both modes.
    trace:
        When True, every rank records structured events (sends,
        receives, collective spans, kernel spans, alloc/release) into a
        per-rank :class:`~repro.simmpi.events.EventLog` for the
        post-hoc consumers (:mod:`repro.analysis.timeline`, the power
        trace, ``SpmdResult.metrics``), and every mailbox observes its
        queue depth after each deposit into its own histogram (the one
        host-side metric the logs cannot carry). Off by default — the
        untraced path pays only one ``is None`` test per operation.
    trace_capacity:
        Per-rank event ring capacity; older events are overwritten once
        it is exceeded (counted in ``CounterSnapshot.events_dropped``).
    faults:
        Optional :class:`~repro.simmpi.faults.FaultPlan`. When given
        (and non-empty), each rank's metered operations tick the plan's
        deterministic fault schedule: crashes, message drops/duplicates/
        delays and transient slowdowns fire at the planned operation and
        message indices. None (default) — the disabled path pays only
        one ``is None`` test per operation, and counts and virtual
        clocks are bit-identical either way.
    fastpath:
        When True (default), collectives called with their default
        algorithm and built-in reduce op resolve analytically through a
        per-communicator :class:`~repro.simmpi.fastpath.CollectiveGate`
        instead of moving O(p log p) envelopes through mailboxes —
        bit-identical counts, virtual clocks and payloads (see
        :mod:`repro.simmpi.fastpath`). Automatically disabled when
        ``trace`` or ``faults`` need to observe individual messages;
        pass ``fastpath=False`` to force the message path outright.
    """

    def __init__(
        self,
        size: int,
        max_message_words: float = math.inf,
        timeout: float = 60.0,
        machine=None,
        node_size: int | None = None,
        payload_mode: str = "cow",
        trace: bool = False,
        trace_capacity: int | None = None,
        faults=None,
        fastpath: bool = True,
    ):
        if size < 1:
            raise ValueError(f"world size must be >= 1, got {size}")
        if max_message_words <= 0:
            raise ValueError(
                f"max_message_words must be > 0, got {max_message_words}"
            )
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        if payload_mode not in PAYLOAD_MODES:
            raise ValueError(
                f"payload_mode must be one of {PAYLOAD_MODES}, got {payload_mode!r}"
            )
        self.size = size
        #: the world communicator's rank group, built once and shared by
        #: every rank's world Comm (a per-rank tuple would be O(p²)
        #: objects per run)
        self.group = tuple(range(size))
        self.max_message_words = float(max_message_words)
        self.timeout = float(timeout)
        #: optional MachineParameters enabling the per-rank virtual clock
        self.machine = machine
        if node_size is not None and (node_size < 1 or size % node_size):
            raise ValueError(
                f"node_size {node_size} must divide world size {size}"
            )
        #: optional two-level grouping (Fig. 2): ranks r with equal
        #: r // node_size share a node; traffic crossing nodes is
        #: tallied separately.
        self.node_size = node_size
        self.payload_mode = payload_mode
        #: True when sends freeze payloads instead of deep-copying them
        self.copy_on_write = payload_mode == "cow"
        #: the single-runner scheduler: at most one rank executes at a
        #: time, and blocked ranks park on it (see repro.simmpi.baton)
        self.baton = Baton(size)
        self.mailboxes = [Mailbox(r, self.baton) for r in range(size)]
        self.counters = [CostCounter(rank=r) for r in range(size)]
        self.trace = bool(trace)
        #: per-rank EventLogs when traced, else None (zero-overhead path)
        self.event_logs: tuple[EventLog, ...] | None = None
        if self.trace:
            capacity = (
                DEFAULT_TRACE_CAPACITY if trace_capacity is None else trace_capacity
            )
            self.event_logs = tuple(
                EventLog(r, capacity=capacity) for r in range(size)
            )
            for counter, log in zip(self.counters, self.event_logs):
                counter.elog = log
            from repro.metrics.runtime import mailbox_depth_histogram

            for box in self.mailboxes:
                box.depths = mailbox_depth_histogram()
        #: live FaultState when a non-empty FaultPlan was given, else None
        #: (zero-overhead path — one ``is None`` test per operation)
        self.faults = faults.activate(size) if faults else None
        #: ranks whose thread raised RankCrashedError (injected faults);
        #: mutated only by the engine's runner threads via mark_dead()
        self.dead: set[int] = set()
        #: set once any rank raises; parked ranks re-check it when
        #: abort() wakes them
        self.failed = threading.Event()
        #: ``failed.is_set``, bound once: the abort check every
        #: fault-free receive hands its mailbox
        self.aborted = self.failed.is_set
        #: True when eligible collectives resolve analytically — any
        #: per-message observer (tracing, faults) forces the faithful
        #: envelope simulation instead
        self.fastpath = bool(fastpath) and not self.trace and self.faults is None
        #: per-communicator-context CollectiveGates, created lazily by
        #: collective_gate() as Comms are constructed
        self._gates: dict[tuple, object] = {}
        self._gates_lock = threading.Lock()

    def collective_gate(self, context: tuple, group) -> "object":
        """Return (creating on first use) the fast-path rendezvous gate
        for one communicator context. All ranks of a communicator share
        a deterministic context tuple, so they all land on one gate.
        Only the first lookup of a context takes the lock."""
        gate = self._gates.get(context)
        if gate is not None:
            return gate
        with self._gates_lock:
            gate = self._gates.get(context)
            if gate is None:
                from repro.simmpi.fastpath import CollectiveGate

                gate = CollectiveGate(self, group)
                self._gates[context] = gate
            return gate

    def mark_dead(self, rank: int) -> None:
        """Record an isolated (injected) rank crash.

        Unlike :meth:`abort`, this does *not* fail the world: survivors
        keep running, but every parked rank is made ready so waits on
        the dead rank can convert into
        :class:`~repro.exceptions.PeerDeadError` via their abort checks
        (the others park again). The dead rank's own mailbox is closed —
        its channel index is pruned and later sends to it are dropped —
        so long-lived :class:`~repro.simmpi.pool.SpmdPool` reuse under
        fault plans doesn't accrete channels nobody will ever drain.
        """
        self.dead.add(rank)
        self.mailboxes[rank].close()
        self.baton.wake_all()

    def same_node(self, rank_a: int, rank_b: int) -> bool:
        """True when two world ranks share a node (trivially true for a
        one-level world)."""
        if self.node_size is None:
            return True
        return rank_a // self.node_size == rank_b // self.node_size

    def abort(self) -> None:
        """Mark the run failed and make every parked rank ready, so its
        abort check abandons the wait.

        Idempotent: only the first call pays the sweep (later calls see
        the flag already set and return immediately).
        """
        if self.failed.is_set():
            return
        self.failed.set()
        with self._gates_lock:
            gates = list(self._gates.values())
        for gate in gates:
            gate.interrupt()
        self.baton.wake_all()
