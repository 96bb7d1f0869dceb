"""Message matching for the simulated distributed machine.

Each rank owns a :class:`Mailbox`. Sends are *eager*: the payload is
deposited into the destination's mailbox without blocking (the simulator
models an infinitely buffered network — adequate because the paper's
models charge per word/message, not for contention). A receive with no
matching message records the ``(source, context, tag)`` it waits on and
parks its rank on the world's :class:`~repro.simmpi.baton.Baton`, which
hands the single runnable slot to the next ready rank; the deposit that
matches the recorded pattern makes the owner ready again. No other
deposit wakes it, so there are no spurious wake-ups.

A wait that can never be satisfied is detected by the baton at once
(every other rank is blocked too) and raises
:class:`~repro.exceptions.DeadlockError` naming the blocked ranks. A
wait has no timer: it ends by a matching deposit, an abort, or the
world's quiescence (a retransmittable drop, or that deadlock).

Matching is FIFO per (source, communicator context, tag) channel, like
MPI's non-overtaking guarantee for point-to-point traffic on one
communicator. The channel index is one dict keyed by that triple and
holding a FIFO deque per channel, so a concrete-tag deposit or receive
hashes its key once: a deposit appends to the deque its ``setdefault``
finds or inserts, and a receive pops the channel in the lookup that
finds it (putting it back only if a message still queues there).

Only ``ANY_TAG`` receives pay for arrival-order resolution: they scan
every pending channel of the mailbox, across all sources and contexts,
for the oldest head of the given source and context, using per-message
arrival stamps. That is O(pending channels) per wildcard receive; no
algorithm, scenario or benchmark workload in this repository uses
``ANY_TAG``, so the concrete-tag path is the one kept at one hash.

Each deposit and each match attempt takes the mailbox lock once, with a
bare ``acquire``/``release`` (cheaper than a ``with`` block). In a
world only the baton holder touches mailboxes; a standalone mailbox
takes deposits from any thread, and there the lock makes a deposit and
a parking receive agree on who wakes whom.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Hashable

from repro.exceptions import DeadlockError
from repro.simmpi.baton import Baton

__all__ = ["Mailbox", "ANY_TAG", "NOTHING"]

#: Wildcard tag for receives (matches the oldest message from the given
#: source on the given communicator, regardless of tag).
ANY_TAG: object = object()


class Mailbox:
    """Per-rank inbox with blocking, channel-matched receives.

    ``baton`` is the owning world's scheduler (the owner parks on it
    as rank ``owner_rank``). Without one, the mailbox stands alone: its
    owner is whichever thread calls :meth:`get`, deposits may come from
    any thread, and a wait ends only by a matching deposit or an
    :meth:`interrupt`.
    """

    __slots__ = (
        "owner_rank",
        "depths",
        "_lock",
        "_baton",
        "_slot",
        "_want",
        "_boxes",
        "_stamp",
        "_pending",
        "_closed",
    )

    def __init__(self, owner_rank: int, baton: Baton | None = None):
        self.owner_rank = owner_rank
        #: histogram of the pending-message count after each deposit when
        #: the world is traced, else None (set by the World). Observations
        #: happen under the mailbox lock and are read only after the join.
        self.depths = None
        self._lock = threading.Lock()
        if baton is None:
            baton, slot = Baton.solo(), 0
        else:
            slot = owner_rank
        self._baton = baton
        self._slot = slot
        # The (source, context, tag) the parked owner waits on, else None.
        self._want: tuple | None = None
        # (source_world_rank, context_id, tag) -> FIFO deque of the
        # channel's pending (stamp, payload) messages.
        # Invariant: no empty deques are retained.
        self._boxes: dict[tuple[int, Hashable, Hashable], deque] = {}
        # Monotone arrival counter; stamps order messages for ANY_TAG.
        self._stamp = 0
        # Live undelivered-message count (kept exact under the lock).
        self._pending = 0
        # Set by close() when the owning rank dies: the channel index is
        # pruned and later deposits are dropped on the floor.
        self._closed = False

    def put(self, source: int, context: Hashable, tag: Hashable, payload: Any) -> None:
        """Deposit a message (called from the sender's thread).

        Deposits into a closed mailbox (the owner's injected crash
        already fired) are silently dropped — the dead rank will never
        receive again, and retaining its channels would grow the index
        without bound under :class:`~repro.simmpi.pool.SpmdPool` reuse
        with fault plans. The sender's metering is untouched: its words
        left its NIC whether or not anyone was listening.
        """
        key = (source, context, tag)
        lock = self._lock
        lock.acquire()
        try:
            if self._closed:
                return
            self._stamp = stamp = self._stamp + 1
            self._boxes.setdefault(key, deque()).append((stamp, payload))
            self._pending = pending = self._pending + 1
            if self.depths is not None:
                self.depths.observe(pending)
            want = self._want
            if want is not None and (
                want == key
                or (want[2] is ANY_TAG and want[0] == source and want[1] == context)
            ):
                self._want = None
                self._baton.ready(self._slot)
        finally:
            lock.release()

    def get(
        self,
        source: int,
        context: Hashable,
        tag: Hashable,
        abort_check=None,
        recoverable=None,
    ) -> Any:
        """Block until a matching message is available, then return it.

        The owner parks on the baton until the matching deposit (or an
        abort) makes it ready. Raises :class:`DeadlockError` when the
        baton finds every rank blocked. If ``abort_check`` (a
        zero-argument callable) returns True after a wake-up, the wait
        is abandoned immediately with :class:`DeadlockError` — the
        engine uses this to cancel waits when a peer rank fails.
        ``recoverable`` is passed to :meth:`Baton.block`: when the
        world goes quiescent while it holds, the wait ends without a
        message and ``NOTHING`` is returned (``recv_reliable`` then
        retransmits a dropped envelope).
        """
        key = (source, context, tag)
        lock = self._lock
        lock.acquire()
        try:
            while True:
                payload = self._take(key)
                if payload is not _NOTHING:
                    return payload
                self._check_abort(abort_check)
                self._want = key
                lock.release()
                try:
                    woken = self._baton.block(
                        self._slot, ("recv", source, tag), recoverable
                    )
                finally:
                    lock.acquire()
                    self._want = None
                if not woken:
                    return _NOTHING
        finally:
            lock.release()

    def try_get(
        self, source: int, context: Hashable, tag: Hashable, abort_check=None
    ) -> Any:
        """Non-blocking receive: the payload, or the module-level
        ``NOTHING`` sentinel when no matching message is queued. A miss
        runs ``abort_check`` exactly as a blocking :meth:`get` does, so
        a polling loop ends with :class:`DeadlockError` (or whatever
        the check raises) once the world is aborted."""
        lock = self._lock
        lock.acquire()
        try:
            payload = self._take((source, context, tag))
            if payload is _NOTHING:
                self._check_abort(abort_check)
            return payload
        finally:
            lock.release()

    def _take(self, key: tuple) -> Any:
        """Pop the first message matching ``key`` (caller holds the
        lock), or return ``_NOTHING``."""
        boxes = self._boxes
        if key[2] is ANY_TAG:
            key = self._oldest(key[0], key[1])
        chan = boxes.pop(key, None)
        if chan is None:
            return _NOTHING
        payload = chan.popleft()[1]
        if chan:
            boxes[key] = chan
        self._pending -= 1
        return payload

    def _oldest(self, source: int, context: Hashable) -> tuple | None:
        """The channel key of ``source``/``context`` whose head arrived
        first (for ``ANY_TAG``), or None when none is pending. Scans
        every pending channel of the mailbox."""
        best = None
        first = None
        for key, chan in self._boxes.items():
            if key[0] == source and key[1] == context:
                stamp = chan[0][0]
                if first is None or stamp < first:
                    best, first = key, stamp
        return best

    def _check_abort(self, abort_check) -> None:
        if abort_check is not None and abort_check():
            raise DeadlockError(
                f"rank {self.owner_rank}: receive abandoned because a "
                "peer rank failed"
            )

    def pending(self) -> int:
        """Number of undelivered messages (diagnostics)."""
        with self._lock:
            return self._pending

    def interrupt(self) -> None:
        """Wake the owner if it is parked in :meth:`get`, so it re-checks
        its abort condition (a standalone mailbox's abort signal; worlds
        wake every parked rank through the baton instead)."""
        self._baton.ready(self._slot)

    def close(self) -> None:
        """Prune the channel index and refuse further deposits.

        Called by :meth:`~repro.simmpi.world.World.mark_dead` once the
        owning rank's injected crash fires: its pending messages are
        unreachable (the owner will never call ``get`` again) and any
        in-flight or future sends to it are dropped. Idempotent.
        """
        with self._lock:
            self._boxes.clear()
            self._pending = 0
            self._closed = True


class _Nothing:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<no message>"


_NOTHING = _Nothing()

#: Public sentinel returned by :meth:`Mailbox.try_get` on an empty channel.
NOTHING = _NOTHING
