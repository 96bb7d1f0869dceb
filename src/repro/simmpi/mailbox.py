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
communicator. Channels are indexed two-level — ``(source, context)``
then ``tag`` — so the common concrete-tag receive is two dict hits with
no ordering bookkeeping; only ``ANY_TAG`` receives pay for arrival-order
resolution (a scan of the handful of pending tags, using per-message
arrival stamps).
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
        # (source_world_rank, context_id) -> {tag: FIFO of (stamp, payload)}
        # Invariant: no empty deques or empty tag dicts are retained.
        self._boxes: dict[tuple[int, Hashable], dict[Hashable, deque]] = {}
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
        key = (source, context)
        with self._lock:
            if self._closed:
                return
            box = self._boxes.get(key)
            if box is None:
                box = self._boxes[key] = {}
            chan = box.get(tag)
            if chan is None:
                chan = box[tag] = deque()
            self._stamp += 1
            chan.append((self._stamp, payload))
            self._pending += 1
            if self.depths is not None:
                self.depths.observe(self._pending)
            want = self._want
            if (
                want is not None
                and want[0] == source
                and want[1] == context
                and (want[2] is ANY_TAG or want[2] == tag)
            ):
                self._want = None
                self._baton.ready(self._slot)

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
        waits_on = ("recv", source, tag)
        while True:
            with self._lock:
                self._want = None
                payload = self._try_pop(source, context, tag)
                if payload is not _NOTHING:
                    return payload
                if abort_check is not None and abort_check():
                    raise DeadlockError(
                        f"rank {self.owner_rank}: receive abandoned because a "
                        "peer rank failed"
                    )
                self._want = (source, context, tag)
            if not self._baton.block(self._slot, waits_on, recoverable):
                with self._lock:
                    self._want = None
                return _NOTHING

    def _try_pop(self, source: int, context: Hashable, tag: Hashable) -> Any:
        key = (source, context)
        box = self._boxes.get(key)
        if not box:
            return _NOTHING
        if tag is ANY_TAG:
            # Oldest message across this (source, context)'s pending tags.
            tag, chan = min(box.items(), key=lambda item: item[1][0][0])
        else:
            chan = box.get(tag)
            if chan is None:
                return _NOTHING
        _stamp, payload = chan.popleft()
        self._pending -= 1
        if not chan:
            del box[tag]
            if not box:
                del self._boxes[key]
        return payload

    def try_get(self, source: int, context: Hashable, tag: Hashable):
        """Non-blocking receive: the payload, or the module-level
        ``NOTHING`` sentinel when no matching message is queued."""
        with self._lock:
            return self._try_pop(source, context, tag)

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
