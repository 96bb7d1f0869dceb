"""Persistent rank-pool executor for repeated SPMD runs.

:func:`~repro.simmpi.engine.run_spmd` spawns and joins ``p`` fresh OS
threads on every call. That is fine for a single run but dominates
wall-clock time for sweeps and benchmarks that execute hundreds of
small simulations (a validation sweep at p = 256 pays 256 spawns+joins
*per data point*). :class:`SpmdPool` keeps a set of daemon worker
threads alive across runs: each :meth:`SpmdPool.run` call dispatches
the program to the first ``size`` workers through per-worker queues,
so steady-state cost per run is one queue put/get per rank instead of
a thread spawn/join. As in ``run_spmd``, one rank runs at a time: rank
r's job is put on worker r's queue when the world's
:class:`~repro.simmpi.baton.Baton` first reaches it, and the run ends
when every rank has handed the baton on for good.

Semantics are identical to ``run_spmd`` — same ``World`` construction,
same per-rank body and failure handling (shared via
:class:`~repro.simmpi.engine._Run` and
:func:`~repro.simmpi.engine._finalize`),
same :class:`~repro.simmpi.engine.SpmdResult` — and the counts are
bit-identical because the substrate never touches metering.

Usage::

    with SpmdPool() as pool:
        for p in (16, 64, 256):
            out = pool.run(p, program, *args)

Runs are serialized: every rank of a simulation blocks synchronously in
its worker, so a ``size``-rank run needs ``size`` live workers and two
concurrent runs would deadlock sharing them. The pool grows on demand
to the largest ``size`` seen and a pool-level lock enforces one run at
a time. :func:`shared_pool` returns a process-wide pool for callers
(validation sweeps, benchmarks) that want reuse without plumbing a pool
object through their call stacks.
"""

from __future__ import annotations

import math
import os
import queue
import threading
import time
from typing import Any, Callable

from repro.simmpi.engine import SpmdResult, _finalize, _home_cpu, _Run, _run_watched
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
    themselves on their first run and stay put afterwards.

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
        self._queues: list[queue.SimpleQueue] = []
        self._threads: list[threading.Thread] = []
        self._run_lock = threading.Lock()  # serializes run()s
        self._state_lock = threading.Lock()  # guards grow/shutdown
        self._closed = False
        self._cpu = _home_cpu()
        if initial_workers:
            self._grow(initial_workers)

    # -- lifecycle -------------------------------------------------------

    @property
    def workers(self) -> int:
        """Number of live worker threads."""
        return len(self._threads)

    def __enter__(self) -> "SpmdPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Stop all workers. Idempotent; the pool is unusable afterwards."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            for q in self._queues:
                q.put(None)  # wake + exit sentinel
        for t in self._threads:
            t.join()

    def _grow(self, target: int) -> None:
        with self._state_lock:
            if self._closed:
                raise RuntimeError("SpmdPool is shut down")
            while len(self._threads) < target:
                q, t = self._start_worker(len(self._threads))
                self._queues.append(q)
                self._threads.append(t)

    def _start_worker(
        self, idx: int
    ) -> tuple[queue.SimpleQueue, threading.Thread]:
        """Start the worker for slot ``idx``; returns its queue and thread."""
        q: queue.SimpleQueue = queue.SimpleQueue()
        t = threading.Thread(
            target=_worker_loop,
            args=(q,),
            name=f"simmpi-pool-{idx}",
            daemon=True,
        )
        t.start()
        return q, t

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
        record: Any = None,
        **kwargs: Any,
    ) -> SpmdResult:
        """Run ``program(comm, *args, **kwargs)`` on ``size`` pooled ranks.

        Drop-in equivalent of :func:`~repro.simmpi.engine.run_spmd` —
        identical signature, results, trace counts, and failure
        behavior (including ``trace=``/``trace_capacity=`` event
        tracing and the run metrics folded from it, ``faults=``
        injection, the ``fastpath=`` analytic-collective toggle and the
        ``record=`` run-ledger hook) —
        minus the per-call thread spawn/join. Ranks run one at a time
        in FIFO hand-off order, rank r's job reaching worker r when the
        baton first does. A rank wedged outside a receive raises the
        same :class:`~repro.exceptions.DeadlockError` as ``run_spmd``
        (one progress watchdog,
        :func:`~repro.simmpi.engine._run_watched`); the wedged workers
        are then replaced so the pool stays usable.
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
            record=record,
        )
        wall_start = time.monotonic()
        run = _Run(world, program, args, kwargs, self._cpu)
        with self._run_lock:
            self._grow(size)
            queues = self._queues
            _run_watched(
                world, lambda r: queues[r].put((r, run)), self._replace_workers
            )
        return _finalize(
            world, run.results, run.failures, run.crashes, time.monotonic() - wall_start
        )

    def _replace_workers(self, indices: list[int]) -> None:
        """Stand up fresh workers at ``indices``, abandoning the wedged
        threads (daemons blocked in user code; their old queues are
        orphaned so nothing new ever reaches them)."""
        with self._state_lock:
            if self._closed:
                return
            for idx in indices:
                self._queues[idx], self._threads[idx] = self._start_worker(idx)


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
    """The process-wide pool (created lazily, never shut down — workers
    are daemons, so process exit reaps them)."""
    global _shared_pool
    with _shared_pool_lock:
        if _shared_pool is None:
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
