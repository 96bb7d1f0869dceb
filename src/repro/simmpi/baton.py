"""One runnable rank per world: the FIFO baton.

Every simulated rank is an OS thread, but at most one rank of a
:class:`~repro.simmpi.world.World` executes at a time — the one holding
the world's :class:`Baton`. A rank gives the baton up only where it
would block: a receive with no matching message, a collective gate it
is not the last to reach, a missed ``Request.test()`` or liveness poll,
or its return. The baton then goes to the rank that has waited longest
in the ready queue (FIFO, so a rank polling in a loop cannot starve the
others).

Why: with every rank thread runnable at once, each GIL release (numpy
calls, lock waits) wakes a convoy of hundreds of threads fighting for
the interpreter. With one runnable thread per world there is nobody to
fight, every hand-off is one lock release to one parked thread, and a
run is a single fixed interleaving — so host-side observations such as
mailbox depth are reproducible.

It also makes the world's *quiescence* exact, and quiescence is the
only thing besides a matching deposit or an abort that ends a wait.
When the holder gives the baton up and no rank is ready, the baton
first resumes the longest-parked rank whose ``recoverable`` predicate
holds (a ``recv_reliable`` whose dropped envelope can be
retransmitted); a missed poll with nobody else ready does the same. If
no predicate holds and some rank is still parked, nothing can ever
wake the parked ranks: every one of them raises
:class:`~repro.exceptions.DeadlockError` naming the blocked ranks and
what each waits on. No wait carries a timer. The engine's progress
watchdog stays as the backstop for a rank wedged outside the simulator
(a holder that never hands the baton on).

Ranks start lazily: rank r's thread (or pool job) is launched the first
time the baton reaches it, in rank order.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable

from repro.exceptions import DeadlockError

__all__ = ["Baton"]

# Rank states. NEW ranks have not started; run() queues them all.
_NEW, _READY, _RUN, _PARKED, _DONE = range(5)

#: Blocked ranks listed by name in a deadlock message before the rest
#: are summarized as a count (the message is repeated on every rank).
_NAMED_BLOCKED = 16


class Baton:
    """The single-runner scheduler of one world of ``size`` ranks.

    Each rank owns one armed ``threading.Lock`` as its wake: parking is
    ``acquire()``, handing the baton over is ``release()`` by the
    previous holder. All queue and state changes happen under one
    mutex, so :meth:`ready` and :meth:`wake_all` are safe from any
    thread (the engine's progress watchdog aborts from outside the
    world). :attr:`handoffs` counts the times the baton changed hands;
    the watchdog reads it to tell a slow run from a wedged one.
    """

    __slots__ = (
        "size",
        "handoffs",
        "_mu",
        "_ready",
        "_state",
        "_wakes",
        "_poked",
        "_waits",
        "_recoverable",
        "_rescued",
        "_holder",
        "_start",
        "_started",
        "_done",
        "_finished",
        "_deadlock",
        "_detect",
    )

    def __init__(self, size: int):
        self.size = size
        #: times the baton was handed to a rank (monotone; read racily
        #: by the watchdog, written under _mu)
        self.handoffs = 0
        self._mu = threading.Lock()
        self._ready: deque[int] = deque()
        self._state = [_NEW] * size
        self._wakes = [threading.Lock() for _ in range(size)]
        for wake in self._wakes:
            wake.acquire()
        #: ranks readied while running; their next block returns at once
        self._poked = [False] * size
        #: parked rank -> what it waits on (named in a deadlock)
        self._waits: dict[int, tuple] = {}
        #: parked rank -> its recoverable predicate, in park order
        self._recoverable: dict[int, Callable[[], bool]] = {}
        #: ranks resumed at quiescence by their predicate; their block
        #: returns False
        self._rescued = [False] * size
        self._holder: int | None = None
        self._start: Callable[[int], None] | None = None
        self._started = [False] * size
        self._done = 0
        self._finished = threading.Event()
        #: snapshot of the blocked ranks once a deadlock is detected
        self._deadlock: dict[int, tuple] | None = None
        self._detect = True

    @classmethod
    def solo(cls) -> "Baton":
        """A one-rank baton already held by the calling thread.

        Backs a :class:`~repro.simmpi.mailbox.Mailbox` used outside any
        world: its deposits come from arbitrary threads, so an empty
        ready queue is no deadlock there and a wait ends only by a
        :meth:`ready`.
        """
        baton = cls(1)
        baton._state[0] = _RUN
        baton._started[0] = True
        baton._holder = 0
        baton._detect = False
        return baton

    # -- running a world -----------------------------------------------

    def run(self, start: Callable[[int], None]) -> None:
        """Launch rank 0; :meth:`wait` for the world to finish.
        ``start(r)`` launches rank r; it is called once per rank, when
        the baton first reaches it."""
        self._start = start
        with self._mu:
            self._ready.extend(range(self.size))
            nxt = self._next()
        self._wake(nxt)

    def wait(self, timeout: float) -> bool:
        """Wait up to ``timeout`` seconds for every rank to finish."""
        return self._finished.wait(timeout)

    @property
    def holder(self) -> int | None:
        """The rank holding the baton, or None while nobody does."""
        with self._mu:
            return self._holder

    def parked(self) -> str:
        """What each parked rank waits on, as a deadlock message lists
        it; empty when no rank is parked."""
        with self._mu:
            return _listing(self._waits)

    def unfinished(self) -> list[int]:
        """Ranks that started but have not finished, in rank order."""
        with self._mu:
            return [
                r
                for r in range(self.size)
                if self._started[r] and self._state[r] != _DONE
            ]

    def exit(self, rank: int) -> None:
        """``rank`` returned or raised: pass the baton on for good."""
        with self._mu:
            self._state[rank] = _DONE
            self._done += 1
            nxt = self._next() if self._holder == rank else None
            finished = self._done == self.size
            if finished:
                # The launcher closes over the substrate's threads or
                # job, which hold the world: drop it to break the cycle.
                self._start = None
        self._wake(nxt)
        if finished:
            self._finished.set()

    # -- giving the baton up ---------------------------------------------

    def block(
        self,
        rank: int,
        waits_on: tuple,
        recoverable: Callable[[], bool] | None = None,
    ) -> bool:
        """Give the baton up until :meth:`ready` is called for ``rank``.

        ``waits_on`` describes the wait for a deadlock message:
        ``("recv", source, tag)`` or ``("collective", name)``.
        ``recoverable`` (called under the baton's mutex, so it must not
        block) says whether the wait can end without a :meth:`ready`:
        once no rank is ready, the longest-parked rank whose predicate
        holds gets the baton instead of a deadlock being reported.
        Returns True when woken by :meth:`ready`, False when resumed by
        its predicate; either way the caller holds the baton again on
        return. Raises :class:`~repro.exceptions.DeadlockError` when the
        world deadlocked while the rank was parked.
        """
        with self._mu:
            if self._poked[rank]:
                self._poked[rank] = False
                return True
            self._state[rank] = _PARKED
            self._waits[rank] = waits_on
            if recoverable is not None:
                self._recoverable[rank] = recoverable
            nxt = self._next()
        self._wake(nxt)
        self._wakes[rank].acquire()
        if self._deadlock is not None:
            raise DeadlockError(self._deadlock_message(rank))
        if self._rescued[rank]:
            self._rescued[rank] = False
            return False
        return True

    def yield_(self, rank: int) -> None:
        """Move the holder to the back of the ready queue (a missed
        poll): every rank that was ready runs before it resumes. With no
        other rank ready, a parked rank whose predicate holds is resumed
        first (the poll may wait on it); a no-op when there is none."""
        with self._mu:
            if not self._ready and not self._rescue():
                return
            self._state[rank] = _READY
            self._ready.append(rank)
            nxt = self._next()
        self._wake(nxt)
        self._wakes[rank].acquire()

    # -- making ranks ready ----------------------------------------------

    def ready(self, rank: int) -> None:
        """Make a parked ``rank`` runnable: it joins the back of the
        ready queue, or takes the baton at once when nobody holds it.
        Readying the running rank makes its next :meth:`block` return
        immediately; other states are left alone."""
        with self._mu:
            if self._state[rank] == _RUN:
                self._poked[rank] = True
                return
            nxt = self._ready_locked((rank,))
        self._wake(nxt)

    def ready_many(self, ranks) -> None:
        """:meth:`ready` for each of ``ranks`` in order, under one lock
        acquisition (the fast-path leader wakes a whole group)."""
        with self._mu:
            nxt = self._ready_locked(ranks)
        self._wake(nxt)

    def wake_all(self) -> None:
        """Make every parked rank ready, in rank order (abort and
        injected crashes: the woken ranks re-check their abort
        conditions and park again if unaffected)."""
        with self._mu:
            nxt = self._ready_locked(sorted(self._waits))
        self._wake(nxt)

    # -- internals (callers hold _mu unless noted) ------------------------

    def _unpark(self, rank: int) -> bool:
        if self._state[rank] != _PARKED:
            return False
        del self._waits[rank]
        self._recoverable.pop(rank, None)
        return True

    def _ready_locked(self, ranks) -> int | None:
        """Queue the parked ones of ``ranks``; when the baton is free,
        hand it to the first of them and return that rank to wake."""
        for rank in ranks:
            if self._unpark(rank):
                self._state[rank] = _READY
                self._ready.append(rank)
        if self._holder is None and self._ready:
            return self._next()
        return None

    def _rescue(self) -> bool:
        """Queue the longest-parked rank whose predicate holds, marked
        so that its :meth:`block` returns False; False if there is none."""
        for rank, recoverable in self._recoverable.items():
            if recoverable():
                break
        else:
            return False
        self._unpark(rank)
        self._rescued[rank] = True
        self._state[rank] = _READY
        self._ready.append(rank)
        return True

    def _next(self) -> int | None:
        """Hand the baton to the longest-waiting ready rank (returned,
        to be woken once _mu is released), or detect a deadlock."""
        ready = self._ready
        if not ready and self._waits and self._detect and not self._rescue():
            # Nobody can run and no wait can end by itself: every
            # parked rank is waiting on another parked rank.
            self._deadlock = dict(self._waits)
            for rank in sorted(self._waits):
                self._state[rank] = _READY
                ready.append(rank)
            self._waits.clear()
            self._recoverable.clear()
        if not ready:
            self._holder = None
            return None
        rank = ready.popleft()
        self._holder = rank
        self._state[rank] = _RUN
        self.handoffs += 1
        return rank

    def _wake(self, rank: int | None) -> None:
        """Resume (or launch) the new holder; called without _mu."""
        if rank is None:
            return
        if self._started[rank]:
            self._wakes[rank].release()
        else:
            self._started[rank] = True
            self._start(rank)

    def _deadlock_message(self, rank: int) -> str:
        blocked = self._deadlock
        return (
            f"rank {rank}: deadlock — no rank can proceed while "
            f"{len(blocked)} rank(s) are blocked: {_listing(blocked)}"
        )


def _listing(waits: dict[int, tuple]) -> str:
    """``rank r waits ...`` for each of ``waits`` in rank order, the
    ones past :data:`_NAMED_BLOCKED` summarized as a count."""
    named = sorted(waits)[:_NAMED_BLOCKED]
    listing = "; ".join(f"rank {r} waits {_describe(waits[r])}" for r in named)
    if len(waits) > len(named):
        listing += f"; and {len(waits) - len(named)} more"
    return listing


def _describe(waits_on: tuple) -> str:
    kind = waits_on[0]
    if kind == "recv":
        _kind, source, tag = waits_on
        return f"for a message from rank {source} (tag={tag!r})"
    return f"in collective {waits_on[1]!r}"
