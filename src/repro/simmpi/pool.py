"""The rank threads every SPMD run executes on.

A simulated rank is one OS thread, and starting and joining ``p``
threads per run would dominate the wall-clock time of sweeps and
benchmarks that execute hundreds of small simulations. An
:class:`SpmdPool` keeps daemon worker threads alive across runs instead.
Each run takes ``size`` idle workers for its ranks (starting new ones
only when too few are idle) and hands them back when it ends, so
steady-state cost per run is one queue put/get per rank. Runs own their
workers, so a run may start inside another run's rank program, and two
threads may run at once. A run that ends with ranks unfinished (wedged,
or the caller's wait interrupted) hands back fresh workers in their
place, so no later run waits behind them. As in every world, one rank
of a run runs at a time: rank r's job is put on its worker's queue when
the world's :class:`~repro.simmpi.baton.Baton` first reaches it, and
the run ends when every rank has handed the baton on for good.

:func:`~repro.simmpi.engine.run_spmd` runs on the process-wide
:func:`shared_pool`, and :meth:`SpmdPool.run` on its own pool; both go
through one internal runner (``SpmdPool._execute``) with the same
``World`` construction, per-rank body and failure handling (shared via
:class:`~repro.simmpi.engine._Run` and
:func:`~repro.simmpi.engine._finalize`), so the counts are bit-identical
whichever entry point a caller uses.

Usage::

    with SpmdPool() as pool:
        for p in (16, 64, 256):
            out = pool.run(p, program, *args)

A pool grows to the most workers its concurrent runs have needed at
once. :func:`shared_pool` returns the process-wide pool for callers
(validation sweeps, benchmarks) that want reuse without plumbing a pool
object through their call stacks.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from typing import Any, Callable

from repro.simmpi.engine import (
    SpmdResult,
    _can_pin,
    _finalize,
    _home_cpu,
    _Run,
    _run_watched,
)
from repro.simmpi.world import World

__all__ = ["SpmdPool", "shared_pool"]


class SpmdPool:
    """Reusable pool of rank workers for running SPMD programs.

    Parameters
    ----------
    initial_workers:
        Workers to start eagerly (the pool still grows on demand).

    The pool picks its runs' home CPU once, when it is built (see
    :func:`~repro.simmpi.engine._home_cpu`), so its workers pin
    themselves on their first run and stay put afterwards. A run whose
    caller cannot pin (:func:`~repro.simmpi.engine._can_pin`) pins
    nothing. Idle workers are kept on two stacks, pinned and never
    pinned: a run that pins takes pinned ones first, and a run that pins
    nothing takes only never-pinned ones, so it stays unpinned.

    The pool is a context manager; leaving the ``with`` block shuts the
    workers down. A pool survives failed runs — a program raising in
    some ranks produces the usual
    :class:`~repro.exceptions.RankFailedError` and the pool remains
    usable for the next :meth:`run`.
    """

    def __init__(self, initial_workers: int = 0):
        if initial_workers < 0:
            raise ValueError(
                f"initial_workers must be >= 0, got {initial_workers}"
            )
        #: live worker queue -> its thread (abandoned workers leave it)
        self._live: dict[queue.SimpleQueue, threading.Thread] = {}
        #: idle worker queues, stacks: ever pinned, never pinned
        self._idle_pinned: list[queue.SimpleQueue] = []
        self._idle_unpinned: list[queue.SimpleQueue] = []
        self._started = 0  # workers ever started; names them
        self._lock = threading.Lock()  # guards the above and _closed
        self._closed = False
        self._cpu = _home_cpu()
        with self._lock:
            for _ in range(initial_workers):
                self._idle_unpinned.append(self._start_worker())

    # -- lifecycle -------------------------------------------------------

    @property
    def workers(self) -> int:
        """Number of live worker threads."""
        return len(self._live)

    def __enter__(self) -> "SpmdPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Stop all workers. Idempotent; the pool is unusable afterwards."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            threads = list(self._live.values())
            for q in self._live:
                q.put(None)  # wake + exit sentinel
        for t in threads:
            t.join()

    def _start_worker(self) -> queue.SimpleQueue:
        """Start one worker (caller holds ``_lock``); returns its queue."""
        q: queue.SimpleQueue = queue.SimpleQueue()
        t = threading.Thread(
            target=_worker_loop,
            args=(q,),
            name=f"simmpi-pool-{self._started}",
            daemon=True,
        )
        t.start()
        self._started += 1
        self._live[q] = t
        return q

    def _take(self, size: int, pins: bool) -> list[queue.SimpleQueue]:
        """``size`` idle workers for one run: if the run ``pins``, the
        pinned ones first, then never-pinned ones; otherwise only
        never-pinned ones. New ones make up any shortfall."""
        with self._lock:
            if self._closed:
                raise RuntimeError("SpmdPool is shut down")
            taken: list[queue.SimpleQueue] = []
            stacks = (self._idle_pinned,) if pins else ()
            for idle in (*stacks, self._idle_unpinned):
                cut = max(0, len(idle) - (size - len(taken)))
                taken += idle[cut:]
                del idle[cut:]
            while len(taken) < size:
                taken.append(self._start_worker())
            return taken

    def _release(self, crew: "_Crew") -> None:
        """Hand a run's workers back, first standing fresh ones in for
        those of ranks still unfinished (see :meth:`_Crew.close`)."""
        stuck = crew.close()
        if stuck:
            self._replace_workers(crew.workers, stuck)
        idle = self._idle_pinned if crew.run.cpu is not None else self._idle_unpinned
        with self._lock:
            if not self._closed:
                idle += crew.workers

    def _replace_workers(
        self, workers: list[queue.SimpleQueue], ranks: list[int]
    ) -> None:
        """Stand fresh workers in for the unfinished ranks' ones. Such a
        thread (a daemon blocked in user code, or unwinding an aborted
        run) is abandoned: the exit sentinel follows its job on its
        queue, so it stops once that job returns."""
        with self._lock:
            for rank in ranks:
                q = workers[rank]
                self._live.pop(q, None)
                q.put(None)
                if not self._closed:
                    workers[rank] = self._start_worker()

    # -- execution -------------------------------------------------------

    def run(
        self,
        size: int,
        program: Callable[..., Any],
        *args: Any,
        max_message_words: float = math.inf,
        timeout: float = 60.0,
        machine: Any = None,
        node_size: int | None = None,
        payload_mode: str = "cow",
        trace: bool = False,
        trace_capacity: int | None = None,
        faults: Any = None,
        fastpath: bool = True,
        **kwargs: Any,
    ) -> SpmdResult:
        """Run ``program(comm, *args, **kwargs)`` on ``size`` pooled ranks.

        Drop-in equivalent of :func:`~repro.simmpi.engine.run_spmd` —
        identical signature, results, trace counts, and failure
        behavior (including ``trace=``/``trace_capacity=`` event
        tracing and the run metrics folded from it, ``faults=``
        injection and the ``fastpath=`` analytic-collective toggle) — on
        this pool's workers and home CPU. Ranks run one at a time in FIFO hand-off order, rank r's
        job reaching its worker when the baton first does. A rank wedged
        outside a receive raises the same
        :class:`~repro.exceptions.DeadlockError` as ``run_spmd`` (one
        progress watchdog, :func:`~repro.simmpi.engine._run_watched`);
        the wedged workers are then replaced so the pool stays usable.
        """
        world = World(
            size,
            max_message_words=max_message_words,
            timeout=timeout,
            machine=machine,
            node_size=node_size,
            payload_mode=payload_mode,
            trace=trace,
            trace_capacity=trace_capacity,
            faults=faults,
            fastpath=fastpath,
        )
        return self._execute(world, program, args, kwargs)

    def _execute(
        self, world: World, program: Callable[..., Any], args: tuple, kwargs: dict
    ) -> SpmdResult:
        """Run ``world`` on workers of its own, homed on the pool's CPU
        if the caller can pin: the one runner behind :meth:`run` and
        :func:`~repro.simmpi.engine.run_spmd`. A wait that ends in an
        exception (a wedge's :class:`~repro.exceptions.DeadlockError`,
        or anything raised into the caller's wait, such as
        ``KeyboardInterrupt``) aborts the world. Either way the workers
        go back only as :meth:`_release` leaves them: idle or fresh."""
        run = _Run(world, program, args, kwargs, self._cpu if _can_pin() else None)
        crew = _Crew(self._take(world.size, run.cpu is not None), run)
        try:
            _run_watched(world, crew.start)
        except BaseException:
            world.abort()  # already done on a wedge; idempotent
            raise
        finally:
            self._release(crew)
        return _finalize(world, run.results, run.failures, run.crashes)


class _Crew:
    """The workers one run holds, rank r's at ``workers[r]``, and the
    launcher the run's baton calls to start rank r on its worker."""

    __slots__ = ("workers", "run", "_lock", "_closed")

    def __init__(self, workers: list[queue.SimpleQueue], run: _Run):
        self.workers = workers
        self.run = run
        self._lock = threading.Lock()
        self._closed = False

    def start(self, rank: int) -> None:
        """Put rank ``rank``'s job on its worker; once the crew is
        closed (its workers handed back) on a thread of its own."""
        with self._lock:
            if not self._closed:
                self.workers[rank].put((rank, self.run))
                return
        threading.Thread(
            target=self.run.rank, args=(rank,), name=f"simmpi-late-{rank}", daemon=True
        ).start()

    def close(self) -> list[int]:
        """Close the crew: the ranks started and not finished, whose
        workers are still busy (none after a run that finished). A
        rank an aborted world reaches later starts off the pool."""
        with self._lock:
            self._closed = True
            return self.run.world.baton.unfinished()


def _worker_loop(q: queue.SimpleQueue) -> None:
    while True:
        item = q.get()
        if item is None:
            return
        rank, run = item
        run.rank(rank)


_shared_pool: SpmdPool | None = None
_shared_pool_lock = threading.Lock()


def shared_pool() -> SpmdPool:
    """The process-wide pool (created lazily; workers are daemons, so
    process exit reaps them). A caller that shuts it down gets a fresh
    one on the next call, so ``run_spmd`` keeps working."""
    global _shared_pool
    with _shared_pool_lock:
        if _shared_pool is None or _shared_pool._closed:
            _shared_pool = SpmdPool()
        return _shared_pool


def _reset_after_fork() -> None:
    """fork() copies only the calling thread: a child inheriting the
    singleton would enqueue jobs onto worker threads that do not exist
    there and hang forever. Dropping the reference (and replacing the
    lock, which may have been held mid-fork) makes the child's first
    shared_pool() call build a fresh pool, which picks the child's own
    home CPU rather than the parent's. The sweep executor's worker
    processes rely on this."""
    global _shared_pool, _shared_pool_lock
    _shared_pool = None
    _shared_pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # not on every platform
    os.register_at_fork(after_in_child=_reset_after_fork)
