"""Message matching for the simulated distributed machine.

Each rank owns a :class:`Mailbox`. Sends are *eager*: the payload is
deposited into the destination's mailbox without blocking (the simulator
models an infinitely buffered network — adequate because the paper's
models charge per word/message, not for contention). Receives block
until a matching message arrives, with a watchdog timeout that converts
a hung wait into :class:`~repro.exceptions.DeadlockError` instead of a
frozen test suite. The watchdog tracks an *absolute* deadline: spurious
condition-variable wake-ups (frequent at large rank counts, where many
messages land in every mailbox) do not re-arm it.

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
from time import monotonic as _monotonic
from typing import Any, Hashable

from repro.exceptions import DeadlockError

__all__ = ["Mailbox", "ANY_TAG", "NOTHING"]

#: Wildcard tag for receives (matches the oldest message from the given
#: source on the given communicator, regardless of tag).
ANY_TAG: object = object()


class Mailbox:
    """Per-rank inbox with blocking, channel-matched receives."""

    __slots__ = (
        "owner_rank",
        "depths",
        "_lock",
        "_ready",
        "_boxes",
        "_stamp",
        "_pending",
        "_closed",
    )

    def __init__(self, owner_rank: int):
        self.owner_rank = owner_rank
        #: histogram of the pending-message count after each deposit when
        #: the world is traced, else None (set by the World). Observations
        #: happen under the mailbox lock, so senders racing on put() are
        #: serialized, and the histogram is read only after the join.
        self.depths = None
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
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
        with self._ready:
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
            self._ready.notify_all()

    def get(
        self,
        source: int,
        context: Hashable,
        tag: Hashable,
        timeout: float,
        abort_check=None,
    ) -> Any:
        """Block until a matching message is available, then return it.

        Raises :class:`DeadlockError` once ``timeout`` seconds have
        elapsed without a match — in a correctly synchronized SPMD
        program the only way a receive waits that long is a deadlock or
        a peer crash. The deadline is absolute: wake-ups for
        non-matching traffic do not extend it. If ``abort_check`` (a
        zero-argument callable) returns True after a wake-up, the wait
        is abandoned immediately with :class:`DeadlockError` — the
        engine uses this to cancel waits when a peer rank fails.
        """
        deadline = _monotonic() + timeout
        with self._ready:
            while True:
                payload = self._try_pop(source, context, tag)
                if payload is not _NOTHING:
                    return payload
                if abort_check is not None and abort_check():
                    raise DeadlockError(
                        f"rank {self.owner_rank}: receive abandoned because a "
                        "peer rank failed"
                    )
                remaining = deadline - _monotonic()
                if remaining <= 0 or not self._ready.wait(timeout=remaining):
                    # One final look: the message may have landed between
                    # the timeout expiring and us reacquiring the lock.
                    payload = self._try_pop(source, context, tag)
                    if payload is not _NOTHING:
                        return payload
                    # An abort may equally have raced the timeout: if a
                    # peer failed while we slept, blame the failure, not
                    # a spurious "timed out after {timeout}s" deadlock.
                    if abort_check is not None and abort_check():
                        raise DeadlockError(
                            f"rank {self.owner_rank}: receive abandoned "
                            "because a peer rank failed"
                        )
                    raise DeadlockError(
                        f"rank {self.owner_rank} timed out after {timeout}s "
                        f"waiting for a message from rank {source} "
                        f"(context={context!r}, tag={tag!r}); likely deadlock "
                        "or peer failure"
                    )

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
        with self._ready:
            return self._try_pop(source, context, tag)

    def pending(self) -> int:
        """Number of undelivered messages (diagnostics)."""
        with self._lock:
            return self._pending

    def interrupt(self) -> None:
        """Wake all blocked receivers (engine uses this on rank failure)."""
        with self._ready:
            self._ready.notify_all()

    def close(self) -> None:
        """Prune the channel index and refuse further deposits.

        Called by :meth:`~repro.simmpi.world.World.mark_dead` once the
        owning rank's injected crash fires: its pending messages are
        unreachable (the owner will never call ``get`` again) and any
        in-flight or future sends to it are dropped. Idempotent.
        """
        with self._ready:
            self._boxes.clear()
            self._pending = 0
            self._closed = True
            self._ready.notify_all()


class _Nothing:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<no message>"


_NOTHING = _Nothing()

#: Public sentinel returned by :meth:`Mailbox.try_get` on an empty channel.
NOTHING = _NOTHING
