"""The communicator — the API simulated algorithms program against.

A :class:`Comm` mirrors the mpi4py surface the HPC guides teach
(``send``/``recv``/``sendrecv``, ``bcast``/``reduce``/``allreduce``/
``allgather``/``gather``/``scatter``/``alltoall``/``barrier``,
``split``), with two simulation extras:

* ``comm.add_flops(k)`` — meter local computation;
* every payload crossing ranks is word-counted and message-counted
  (⌈words/m⌉ per the paper's maximum message size m) on both the sender
  and the receiver's :class:`~repro.simmpi.counters.CostCounter`.

Sub-communicators are created with :meth:`split`; each carries a unique
*context id* so traffic on different communicators can never be
mismatched, exactly like MPI contexts. Context ids are derived
deterministically from the parent's id, a per-parent split sequence
number, and the color — identical across ranks without any metadata
exchange (SPMD programs call split in the same order everywhere).
Only the membership travels: split gathers every rank's (color, key)
at local rank 0, which sends each rank its new group and rank — an
unmetered gather/scatter of 2(p-1) mailbox deposits in two hops.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Hashable, Sequence

from repro.exceptions import CommunicatorError, PeerDeadError
from repro.simmpi import collectives as _coll
from repro.simmpi.envelope import Envelope
from repro.simmpi.mailbox import NOTHING
from repro.simmpi.payload import (
    FrozenPayload,
    copy_payload,
    message_count,
    payload_words,
)
from repro.simmpi.request import Request
from repro.simmpi.world import World

__all__ = ["Comm"]

#: Tag of the unmetered split traffic (distinct from any program tag).
_SPLIT_TAG = ("_setup", "split")


class Comm:
    """A group of ranks that can exchange metered messages."""

    def __init__(
        self,
        world: World,
        group: Sequence[int],
        rank: int,
        context: Hashable = ("world",),
    ):
        if rank < 0 or rank >= len(group):
            raise CommunicatorError(
                f"local rank {rank} out of range for group of {len(group)}"
            )
        self._world = world
        self._group = tuple(group)
        self._rank = rank
        self._context = context
        self._split_seq = 0
        #: this rank's event log (None when the world is untraced); the
        #: metering hooks below test it once per operation, which is the
        #: entire overhead of the disabled tracing path
        self._elog = world.counters[self._group[rank]].elog
        #: the world's live FaultState (None for fault-free runs); same
        #: zero-overhead-when-off discipline as ``_elog``
        self._fx = world.faults
        #: the fast-path rendezvous gate for this communicator's context,
        #: or None when ineligible (world-level observers active, world
        #: fastpath=False, or a single-rank group). Per-call conditions
        #: (default algorithm, built-in op) are checked at the dispatch
        #: sites in :mod:`repro.simmpi.collectives`.
        self._gate = None
        if world.fastpath and len(self._group) > 1:
            self._gate = world.collective_gate(context, self._group)

    # -- identity -------------------------------------------------------

    @property
    def rank(self) -> int:
        """This process's rank within the communicator."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return len(self._group)

    @property
    def world_rank(self) -> int:
        """This process's rank in the global world."""
        return self._group[self._rank]

    @property
    def counter(self):
        """This rank's cost counter (flops, words, messages, memory)."""
        return self._world.counters[self.world_rank]

    @property
    def copy_on_write(self) -> bool:
        """True when this world uses copy-on-write payload transport."""
        return self._world.copy_on_write

    @property
    def fastpath_enabled(self) -> bool:
        """True when eligible collectives on this communicator resolve
        analytically (see :mod:`repro.simmpi.fastpath`) instead of
        simulating every envelope. Calls with non-default algorithms or
        custom reduce ops still take the message path either way."""
        return self._gate is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Comm(rank={self._rank}/{self.size}, world_rank={self.world_rank}, "
            f"context={self._context!r})"
        )

    # -- computation metering --------------------------------------------

    def add_flops(self, count: float, label: str = "compute") -> None:
        """Meter ``count`` local floating point operations (and advance
        the virtual clock by gamma_t * count when a machine is set).

        ``label`` names the kernel in trace timelines (e.g. ``"gemm"``);
        it is ignored when tracing is off.
        """
        slowdown = None
        if self._fx is not None:
            slowdown = self._fx.tick(self.world_rank)
        counter = self.counter
        t0 = counter.vtime
        counter.add_flops(count)
        machine = self._world.machine
        cost = 0.0
        if machine is not None:
            cost = machine.gamma_t * count
            if slowdown is not None:
                cost *= slowdown
            counter.advance_clock(cost)
        if self._elog is not None:
            self._elog.append(
                "flops", t0, counter.vtime, cost=cost, flops=count, tag=label
            )

    def allocate(self, words: int) -> None:
        """Meter acquiring a local buffer (memory high-water tracking)."""
        counter = self.counter
        counter.allocate(words)
        if self._elog is not None:
            t = counter.vtime
            self._elog.append("alloc", t, t, words=words)

    def release(self) -> None:
        """Release the most recent metered buffer."""
        counter = self.counter
        freed = counter.release()
        if self._elog is not None:
            t = counter.vtime
            self._elog.append("release", t, t, words=freed)

    # -- point-to-point ----------------------------------------------------

    def send(self, obj: Any, dest: int, tag: Hashable = 0) -> None:
        """Eagerly send ``obj`` to ``dest`` (local rank), metering the
        sender's word and message tallies.

        With a machine model set, the sender's clock advances by
        ``alpha_t * messages + beta_t * words`` and the message carries
        its departure time for the receiver's dependency tracking.

        In copy-on-write mode (the world default) the payload is frozen
        once here — relaying an already-frozen buffer costs no copy at
        all — while legacy ``payload_mode="copy"`` deep-copies per hop.
        The metered word count is identical either way.
        """
        self._check_peer(dest, "dest")
        if self._fx is not None:
            self._fx.tick(self.world_rank)
        if self._world.copy_on_write:
            payload = FrozenPayload.freeze(obj)
            words = payload.words
        else:
            payload = copy_payload(obj)
            words = payload_words(obj)
        msgs = message_count(words, self._world.max_message_words)
        dest_world_rank = self._group[dest]
        internode = not self._world.same_node(self.world_rank, dest_world_rank)
        counter = self.counter
        counter.add_send(words, msgs, internode=internode)
        machine = self._world.machine
        t0 = counter.vtime
        cost = 0.0
        departure = None
        if machine is not None:
            cost = machine.alpha_t * msgs + machine.beta_t * words
            counter.advance_clock(cost)
            departure = counter.vtime
        trace_ref = None
        if self._elog is not None:
            seq = self._elog.append(
                "send",
                t0,
                counter.vtime,
                cost=cost,
                words=words,
                messages=msgs,
                peer=dest_world_rank,
                tag=tag,
            )
            trace_ref = (self.world_rank, seq)
        env = Envelope(payload, departure, trace_ref)
        if self._fx is not None:
            action, env = self._fx.outgoing(
                self.world_rank, dest_world_rank, self._context, tag, env
            )
            if action == "drop":
                # The sender paid for the send — the words left its NIC —
                # but the network ate the envelope; recv_reliable on the
                # receiver can recover it from the retransmission buffer.
                return
            if action == "duplicate":
                self._world.mailboxes[dest_world_rank].put(
                    self.world_rank, self._context, tag, env
                )
        self._world.mailboxes[dest_world_rank].put(
            self.world_rank, self._context, tag, env
        )

    def recv(self, source: int, tag: Hashable = 0) -> Any:
        """Block until a message from ``source`` with ``tag`` arrives.

        With a machine model set, the receiver's clock jumps to the
        message's departure time if that is later (it cannot consume
        data before it was sent) — the link transfer itself is charged
        once, on the sender, matching Eq. (1)'s convention of counting
        words sent.
        """
        self._check_peer(source, "source")
        if self._fx is not None:
            self._fx.tick(self.world_rank)
        src_world = self._group[source]
        env = self._world.mailboxes[self.world_rank].get(
            src_world,
            self._context,
            tag,
            abort_check=self._abort_for(src_world),
        )
        return self._open_envelope(env, src_world, tag=tag)

    def isend(self, obj: Any, dest: int, tag: Hashable = 0) -> Request:
        """Nonblocking send. Eager sends complete immediately; the
        returned request is already done."""
        self.send(obj, dest, tag=tag)
        return Request.completed(None)

    def irecv(self, source: int, tag: Hashable = 0) -> Request:
        """Nonblocking receive: a :class:`Request` to ``test()``/``wait()``.

        Metering (received words/messages, virtual clock sync) happens
        when the request completes, matching a blocking ``recv``.
        """
        self._check_peer(source, "source")
        if self._fx is not None:
            self._fx.tick(self.world_rank)
        src_world = self._group[source]
        mailbox = self._world.mailboxes[self.world_rank]

        def poll(block: bool = False):
            if block:
                env = mailbox.get(
                    src_world,
                    self._context,
                    tag,
                    abort_check=self._abort_for(src_world),
                )
                return True, env
            env = mailbox.try_get(src_world, self._context, tag)
            if env is NOTHING:
                # A missed poll lets every ready rank run first, so a
                # test() loop cannot keep the sender from ever sending.
                self._world.baton.yield_(self.world_rank)
                return False, env
            return True, env

        def finish(env):
            return self._open_envelope(env, src_world, tag=tag)

        return Request(poll=poll, finish=finish)

    def sendrecv(
        self,
        obj: Any,
        dest: int,
        source: int,
        sendtag: Hashable = 0,
        recvtag: Hashable = 0,
    ) -> Any:
        """Combined send+receive (deadlock-free thanks to eager sends).

        A self-exchange (dest == source == this rank) is short-circuited
        without metering, matching real MPI where a sendrecv to self
        never touches the network.
        """
        if dest == source == self._rank and sendtag == recvtag:
            if self._world.copy_on_write:
                # Same aliasing contract as a real hop: the caller gets a
                # read-only view, and relaying an already-frozen buffer
                # (e.g. Cannon's displacement-0 corner) stays zero-copy.
                return FrozenPayload.freeze(obj).view()
            return copy_payload(obj)
        self.send(obj, dest, tag=sendtag)
        return self.recv(source, tag=recvtag)

    def shift(self, obj: Any, displacement: int, tag: Hashable = 0) -> Any:
        """Cyclic shift: send to (rank+displacement) mod p, receive from
        (rank-displacement) mod p. The workhorse of Cannon's algorithm
        and the n-body ring."""
        p = self.size
        dest = (self._rank + displacement) % p
        src = (self._rank - displacement) % p
        return self.sendrecv(obj, dest, src, sendtag=tag, recvtag=tag)

    # -- fault tolerance ----------------------------------------------------

    def recv_reliable(self, source: int, tag: Hashable = 0) -> Any:
        """A receive that survives injected message drops.

        Parks like :meth:`recv`. When the world goes quiescent (no rank
        can run) while a dropped envelope is pending on this channel,
        the world's baton resumes this rank, which takes the envelope
        from the fault state's retransmission buffer and meters the
        re-send *and* the receive as recovery traffic (the retransmitted
        words cross the network again; the charge lands on this rank's
        counter to preserve the counters' thread-ownership discipline).
        So recovery is a function of the fault plan alone, never of the
        host's speed. A genuinely missing message (peer never sent)
        deadlocks at once, like a plain ``recv``.

        The mailbox is always checked first, so a retransmitted envelope
        arrives after any later envelope on the same channel that was
        already delivered: drops may reorder a channel, unlike MPI's
        non-overtaking rule.

        Identical to :meth:`recv` — same metering, same virtual-clock
        sync — for fault-free runs.
        """
        fx = self._fx
        if fx is None:
            return self.recv(source, tag=tag)
        self._check_peer(source, "source")
        fx.tick(self.world_rank)
        src_world = self._group[source]
        me = self.world_rank
        context = self._context
        env = self._world.mailboxes[me].get(
            src_world,
            context,
            tag,
            abort_check=self._abort_for(src_world),
            recoverable=lambda: fx.has_dropped(src_world, me, context, tag),
        )
        if env is not NOTHING:
            return self._open_envelope(env, src_world, tag=tag)
        env = fx.retransmit(src_world, me, context, tag)
        # Recovered from the retransmission buffer: charge the re-send
        # (proxy, on this rank) and the receive as recovery traffic.
        with self.recovery():
            payload = env.payload
            if type(payload) is FrozenPayload:
                words = payload.words
            else:
                words = payload_words(payload)
            msgs = message_count(words, self._world.max_message_words)
            self.counter.add_send(words, msgs)
            return self._open_envelope(env, src_world, tag=tag)

    @contextmanager
    def recovery(self):
        """Scope whose metered costs are *additionally* tallied as
        recovery overhead (``recovery_*`` counter fields) — wrap replica
        re-pushes, tile recomputation and retransmission handling so the
        profiler can price resilience against the Eq. (1)/(2) model."""
        counter = self.counter
        prev = counter.recovering
        counter.recovering = True
        try:
            yield
        finally:
            counter.recovering = prev

    def fault_tick(self) -> None:
        """Explicitly advance this rank's fault-plan operation counter
        without metering anything — lets a doomed rank reach its crash
        point while doing no real work (see
        :func:`~repro.simmpi.faults.park_until_crash`). A no-op for
        fault-free runs."""
        if self._fx is not None:
            self._fx.tick(self.world_rank)

    def doomed_ranks(self) -> frozenset[int]:
        """Local ranks of this communicator the fault plan will crash.

        The simulator's failure detector is *prescient*: resilient
        algorithms route around doomed ranks from the start, which keeps
        their recovery schedules — and therefore all counts — fully
        deterministic regardless of when the crash actually fires.
        Empty for fault-free runs.
        """
        fx = self._fx
        if fx is None:
            return frozenset()
        doomed = fx.plan.crash_ranks()
        return frozenset(i for i, w in enumerate(self._group) if w in doomed)

    def dead_ranks(self) -> frozenset[int]:
        """Local ranks whose injected crash has already fired.

        While some doomed rank of this communicator is still alive the
        answer can change, so the query then yields the baton: a loop
        polling it lets the doomed ranks run to their crash."""
        dead = self._world.dead
        found = frozenset(i for i, w in enumerate(self._group) if w in dead)
        if not self.doomed_ranks() <= found:
            self._world.baton.yield_(self.world_rank)
        return found

    def is_alive(self, rank: int) -> bool:
        """False once ``rank``'s (local) injected crash has fired. A
        query that finds the rank alive yields the baton, so a loop
        polling it lets the other ranks run."""
        self._check_peer(rank, "rank")
        if self._group[rank] in self._world.dead:
            return False
        self._world.baton.yield_(self.world_rank)
        return True

    # -- collectives --------------------------------------------------------

    def barrier(self) -> None:
        """Dissemination barrier (log p zero-word messages per rank)."""
        _coll.barrier(self)

    def bcast(self, obj: Any, root: int = 0, algorithm: str = "binomial") -> Any:
        """Broadcast from ``root`` ("binomial" or, for large ndarray
        payloads, "scatter_allgather")."""
        return _coll.bcast(self, obj, root=root, algorithm=algorithm)

    def reduce(
        self,
        obj: Any,
        op: Callable[[Any, Any], Any] = _coll.sum_op,
        root: int = 0,
        algorithm: str = "binomial",
    ) -> Any:
        """Reduction to ``root`` (None elsewhere); "binomial" or, for
        large ndarray payloads, "reduce_scatter_gather"."""
        return _coll.reduce(self, obj, op=op, root=root, algorithm=algorithm)

    def allreduce(
        self,
        obj: Any,
        op: Callable[[Any, Any], Any] = _coll.sum_op,
        algorithm: str = "reduce_bcast",
    ) -> Any:
        """All-reduce ("reduce_bcast" or "recursive_doubling")."""
        return _coll.allreduce(self, obj, op=op, algorithm=algorithm)

    def reduce_scatter(
        self, obj: Any, op: Callable[[Any, Any], Any] = _coll.sum_op
    ) -> Any:
        """Ring reduce-scatter: rank r gets chunk r of the elementwise
        reduction (ndarray payloads)."""
        return _coll.reduce_scatter(self, obj, op=op)

    def allgather(self, obj: Any) -> list:
        """Ring allgather; returns the rank-indexed list of contributions."""
        return _coll.allgather(self, obj)

    def gather(self, obj: Any, root: int = 0) -> list | None:
        """Gather to ``root``; rank-indexed list there, None elsewhere."""
        return _coll.gather(self, obj, root=root)

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter from ``root``; rank r receives objs[r]."""
        return _coll.scatter(self, objs, root=root)

    def alltoall(self, blocks: Sequence[Any]) -> list:
        """Cyclic pairwise all-to-all (p-1 messages per rank)."""
        return _coll.alltoall(self, blocks)

    def alltoall_bruck(self, blocks: Sequence[Any]) -> list:
        """Bruck all-to-all (log2 p messages per rank; p must be 2^j)."""
        return _coll.alltoall_bruck(self, blocks)

    # -- sub-communicators ----------------------------------------------------

    def split(self, color: Hashable, key: int | None = None) -> "Comm":
        """Partition the communicator by ``color``; rank order within each
        new communicator follows ``key`` (default: current rank), ties
        broken by current rank.

        Every rank must call split (it is collective). The (color, key)
        exchange travels *unmetered*: communicator construction is setup
        machinery outside the paper's cost model (which charges only the
        algorithm's F/W/S), and metering it would pollute small-problem
        count validation with O(p) metadata words per sub-communicator.
        It is one gather/scatter through local rank 0: 2(p-1) mailbox
        deposits in two hops (see :meth:`_split_unmetered`).
        """
        if key is None:
            key = self._rank
        group, my_local = self._split_unmetered(color, key)
        self._split_seq += 1
        context = (self._context, self._split_seq, color)
        return Comm(self._world, group, my_local, context=context)

    def dup(self) -> "Comm":
        """A duplicate communicator with an isolated message context."""
        self._split_seq += 1
        context = (self._context, self._split_seq, "_dup")
        return Comm(self._world, self._group, self._rank, context=context)

    # -- internals ---------------------------------------------------------

    def _abort_for(self, src_world: int):
        """The abort check a blocking receive from ``src_world`` should
        poll: the plain world-failed flag for fault-free runs (no
        allocation, same object every time), or a closure that
        additionally raises :class:`~repro.exceptions.PeerDeadError` the
        moment the awaited peer's injected crash fires."""
        world = self._world
        if self._fx is None:
            return world.failed.is_set

        def check():
            if src_world in world.dead:
                raise PeerDeadError(
                    f"rank {self.world_rank}: receive from rank {src_world} "
                    "abandoned because that rank crashed"
                )
            return world.failed.is_set()

        return check

    def _open_envelope(self, env: Envelope, src_world: int, tag: Hashable = 0) -> Any:
        """Meter an arrived envelope and unwrap its payload.

        Frozen payloads report their cached word count and deliver
        read-only views (no copy); legacy deep-copied payloads are
        word-counted by traversal and handed over as-is (the receiver
        owns them). Counts are identical in both modes.
        """
        payload = env.payload
        if type(payload) is FrozenPayload:
            words = payload.words
            payload = payload.view()
        else:
            words = payload_words(payload)
        msgs = message_count(words, self._world.max_message_words)
        internode = not self._world.same_node(self.world_rank, src_world)
        counter = self.counter
        counter.add_recv(words, msgs, internode=internode)
        t0 = counter.vtime
        if self._world.machine is not None and env.departure is not None:
            counter.sync_clock(env.departure)
        if self._elog is not None:
            # t1 > t0 here means the clock jumped to the message's
            # departure time: the receiver stalled on the sender, and
            # ``ref`` names the exact send event that bounded it.
            self._elog.append(
                "recv",
                t0,
                counter.vtime,
                words=words,
                messages=msgs,
                peer=src_world,
                tag=tag,
                ref=env.trace_ref,
            )
        return payload

    def _split_unmetered(self, color: Hashable, key: int) -> tuple[tuple[int, ...], int]:
        """This rank's (world-rank group, local rank) after a split.

        Every other rank sends its (color, key) to local rank 0, which
        orders each colour's members by (key, local rank) once and sends
        each rank its own share back: 2(p-1) deposits in two hops, none
        of them metered. The replies are fresh tuples of ints, so nothing
        needs copying on the way.
        """
        p = self.size
        if p == 1:
            return self._group, 0
        world = self._world
        me = self.world_rank
        mailbox = world.mailboxes[me]
        root = self._group[0]
        if self._rank != 0:
            world.mailboxes[root].put(
                me, self._context, _SPLIT_TAG, Envelope((color, key), None)
            )
            return mailbox.get(
                root,
                self._context,
                _SPLIT_TAG,
                abort_check=self._abort_for(root),
            ).payload
        members: dict[Hashable, list] = {color: [(key, 0)]}
        for r in range(1, p):
            src = self._group[r]
            c, k = mailbox.get(
                src,
                self._context,
                _SPLIT_TAG,
                abort_check=self._abort_for(src),
            ).payload
            members.setdefault(c, []).append((k, r))
        shares: list = [None] * p
        for ordered in members.values():
            ordered.sort()
            group = tuple(self._group[r] for _k, r in ordered)
            for local, (_k, r) in enumerate(ordered):
                shares[r] = (group, local)
        for r in range(1, p):
            world.mailboxes[self._group[r]].put(
                me, self._context, _SPLIT_TAG, Envelope(shares[r], None)
            )
        return shares[0]

    def _check_peer(self, peer: int, what: str) -> None:
        if not 0 <= peer < self.size:
            raise CommunicatorError(
                f"{what} {peer} out of range for communicator of size {self.size}"
            )
