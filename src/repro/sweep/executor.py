"""Sweep executor: dispatch cells to OS processes longest-first, funnel
records through a single writer, survive worker crashes.

The threaded simmpi pool parallelises *ranks inside one simulation*;
Python's GIL means two simulations never overlap in one process. This
executor gets real sweep-level parallelism from a few ``multiprocessing``
worker *slots*. The parent keeps the cache misses in one queue, sorted
by descending ``p``, and feeds each slot over its own pipe: a slot holds
at most two cells (the one it simulates and the next), and every time
it reports a cell the parent sends it the next one from the queue,
before committing the finished record. Big cells therefore start first
and the small ones at the tail fill whichever slot frees up, so no
worker is left with the round's whole heavy end. Workers simulate their
cells serially (reusing their process-local rank-thread pool) and
stream finished records back over a queue. Each worker is pinned to one
CPU of the process's allowed set, a different one per slot while there
are enough, so the slots never share a core.

Three invariants the tests pin:

* **Single-writer funnel** — only the parent process ever touches the
  ledger or the cache. Workers ship ``RunRecord`` JSON over the queue;
  the parent appends. The ledger's append-only JSONL therefore never
  sees interleaved writes, whatever the worker count.
* **Crash-requeue** — a worker that dies (segfault, OOM kill, injected
  ``os._exit``) loses nothing: results it already queued are drained,
  and the cells it held but never reported go back to the front of the
  queue, served first by a replacement worker in the same slot. A slot
  that keeps dying exhausts its ``max_requeues`` budget and the sweep
  raises :class:`~repro.exceptions.SweepError` (partial results
  attached).
* **Cache short-circuit** — cells whose content address is already in
  the :class:`~repro.sweep.cache.RunCache` are *replayed* (the cached
  record re-appended bit-identically) without touching a worker; only
  misses are simulated, and fresh results are stored for next time.

Determinism: the simulator is deterministic per cell, so the *set* of
records a sweep produces is independent of worker count and scheduling;
only the ledger append order varies (the observatory's later-wins
querying is already order-insensitive). ``CellOutcome.shard`` names the
slot that simulated a cell.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import queue as queue_mod
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.exceptions import SweepError
from repro.observatory.ledger import Ledger, RunRecord, git_sha
from repro.sweep.cache import RunCache, code_fingerprint
from repro.sweep.runner import execute_cell
from repro.sweep.spec import Cell

__all__ = [
    "CellOutcome",
    "SweepOutcome",
    "default_workers",
    "run_sweep",
]

#: Queue poll period: how often the parent wakes to check worker health.
_POLL_SECONDS = 0.2


def _allowed_cpus() -> list[int]:
    """The CPUs this process may run on, ascending (all of them where
    the platform has no affinity mask)."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def default_workers() -> int:
    """Worker-count default: one per CPU the process may use, capped —
    sweeps are compute bound, more processes than CPUs just thrash."""
    return max(1, min(8, len(_allowed_cpus())))


def _slot_cpu(slot_id: int, cpus: list[int]) -> int:
    """The CPU worker slot ``slot_id`` runs on: slots take the allowed
    ``cpus`` in order, round-robin once there are more slots than CPUs."""
    return cpus[slot_id % len(cpus)]


@dataclass(frozen=True)
class CellOutcome:
    """What happened to one cell: replayed from cache, simulated fresh,
    or failed (workload raised / sweep abandoned)."""

    cell_id: str
    status: str  # "hit" | "simulated" | "failed"
    shard: int | None = None  # the worker slot that ran it
    error: str | None = None
    wall_seconds: float = 0.0
    #: the exception a serially run cell raised (kept in memory only, so
    #: a caller can chain it; the worker path ships ``error`` alone)
    exception: BaseException | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict[str, Any]:
        return {
            "cell_id": self.cell_id,
            "status": self.status,
            "shard": self.shard,
            "error": self.error,
            "wall_seconds": self.wall_seconds,
        }


@dataclass
class SweepOutcome:
    """One sweep's ledgerable summary: per-cell outcomes + the records."""

    outcomes: list[CellOutcome] = field(default_factory=list)
    records: dict[str, RunRecord] = field(default_factory=dict)
    requeues: int = 0
    elapsed: float = 0.0
    workers: int = 0

    @property
    def hits(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "hit")

    @property
    def simulated(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "simulated")

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "failed")

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def summary(self) -> str:
        total = len(self.outcomes)
        bits = [
            f"{total} cell(s): {self.hits} cached, {self.simulated} simulated",
        ]
        if self.failed:
            bits.append(f"{self.failed} FAILED")
        if self.requeues:
            bits.append(f"{self.requeues} requeue(s)")
        bits.append(f"{self.elapsed:.3g} s ({self.workers} worker(s))")
        return ", ".join(bits)

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": "repro_sweep_outcome/v1",
            "cells": len(self.outcomes),
            "hits": self.hits,
            "simulated": self.simulated,
            "failed": self.failed,
            "requeues": self.requeues,
            "elapsed_seconds": self.elapsed,
            "workers": self.workers,
            "outcomes": [o.to_json() for o in self.outcomes],
        }


def _slot_worker(
    slot_id: int,
    generation: int,
    tasks,
    out_queue,
    crash_after: int | None = None,
) -> None:
    """Worker entry point (top-level so spawn contexts can pickle it).

    Simulates the cells the parent sends down ``tasks`` (a pipe end) in
    arrival order, answering each with one message on ``out_queue``,
    until it reads ``None`` or the parent goes away. ``crash_after=k``
    is the fault-injection hook: once k cells are finished the worker
    flushes the queue feeder and dies with ``os._exit`` — no cleanup,
    no sentinel — exactly like a segfault.

    The worker first pins itself to its slot's CPU (:func:`_slot_cpu`),
    so two slots never share a core and every thread it starts later
    (its rank threads, BLAS threads) inherits that one CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, (_slot_cpu(slot_id, _allowed_cpus()),))
        except OSError:
            pass
    done = 0
    while True:
        if crash_after is not None and done >= crash_after:
            # Flush buffered messages so the parent sees everything this
            # worker actually finished, then die without ceremony.
            out_queue.close()
            out_queue.join_thread()
            os._exit(137)
        try:
            task = tasks.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        cell_id, cell_json = task
        try:
            record = execute_cell(Cell.from_json(cell_json))
        except BaseException as exc:  # noqa: BLE001 - shipped to parent
            kind, payload = "failed", f"{type(exc).__name__}: {exc}"
        else:
            kind, payload = "done", record.to_json()
        out_queue.put((kind, slot_id, generation, cell_id, payload))
        done += 1


def _annotate(record: RunRecord, cache_status: str, cell_id: str) -> RunRecord:
    """The ledger copy of a record carries sweep provenance in ``extra``
    (the cache stores the *unannotated* record, so hit/miss replays stay
    bit-identical in every schema field the observatory reads)."""
    extra = dict(record.extra or {})
    extra["sweep"] = {"cache": cache_status, "cell": cell_id}
    return dataclasses.replace(record, extra=extra)


def _mp_context(name: str | None):
    if name:
        return multiprocessing.get_context(name)
    # fork is cheap and inherits the imported simulator; fall back to
    # spawn where fork is unavailable (or deprecated, e.g. macOS).
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return multiprocessing.get_context("spawn")


#: Cells a worker slot holds at once: the one it simulates and the next,
#: so a worker never idles waiting on the parent between cells.
_SLOT_DEPTH = 2


class _Slot:
    """Parent-side view of one worker slot: its live process, the pipe
    that feeds it cells, and the cells sent but not yet reported."""

    def __init__(self, slot_id: int):
        self.slot_id = slot_id
        self.process = None
        self.tasks = None
        self.generation = 0
        self.in_flight: list[Cell] = []
        self.retired = False

    def start(self, ctx, out_queue, crash_after: int | None) -> None:
        self.close()
        reader, writer = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_slot_worker,
            args=(self.slot_id, self.generation, reader, out_queue, crash_after),
            daemon=True,
        )
        self.process.start()
        reader.close()
        self.tasks = writer

    def send(self, cell: Cell) -> None:
        self.in_flight.append(cell)
        try:
            self.tasks.send((cell.cell_id, cell.to_json()))
        except OSError:  # died already; the liveness scan requeues it
            pass

    def stop(self) -> None:
        """Ask the worker to exit once its cells are done."""
        if self.tasks is not None:
            try:
                self.tasks.send(None)
            except OSError:
                pass
        self.close()

    def close(self) -> None:
        if self.tasks is not None:
            self.tasks.close()
            self.tasks = None

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


def run_sweep(
    cells: Iterable[Cell],
    ledger: Ledger | None = None,
    cache: RunCache | None = None,
    workers: int | None = None,
    mp_context: str | None = None,
    max_requeues: int = 2,
    crash_plan: dict[int, int] | None = None,
    fingerprint: str | None = None,
) -> SweepOutcome:
    """Run a planned cell list: replay cache hits, dispatch the misses
    longest-first to worker processes, funnel every record through this
    (single-writer) process into ``ledger`` and ``cache``.

    Parameters
    ----------
    workers:
        Worker slots for the misses. ``0`` simulates serially in-process,
        in plan order (no multiprocessing at all — the reference path
        the fuzz suite differences the dispatched path against).
        Default: :func:`default_workers`, capped at the miss count.
    max_requeues:
        Crash budget per slot. Each worker death that loses cells puts
        them back on the queue and starts a fresh process in the slot;
        one death past the budget raises :class:`SweepError` with the
        partial outcome attached as ``exc.outcome``.
    crash_plan:
        Fault injection for tests: ``{slot_id: k}`` makes that slot's
        *first* worker die after finishing k cells. Replacement workers
        never crash (generation > 0 runs clean).
    fingerprint:
        Override the code fingerprint (tests pin it to survive the
        source edits the test itself makes).
    """
    cells = list(cells)
    seen: set[str] = set()
    for cell in cells:
        if cell.cell_id in seen:
            raise SweepError(f"duplicate cell in plan: {cell.cell_id}")
        seen.add(cell.cell_id)
    outcome = SweepOutcome()
    start = time.perf_counter()
    if fingerprint is None and cache is not None:
        fingerprint = code_fingerprint()

    # -- cache replay (parent-only, no workers involved) ------------------
    misses: list[Cell] = []
    for cell in cells:
        cached = cache.get(cell, fingerprint) if cache is not None else None
        if cached is not None:
            if ledger is not None:
                ledger.append(_annotate(cached, "hit", cell.cell_id))
            outcome.records[cell.cell_id] = cached
            outcome.outcomes.append(
                CellOutcome(cell.cell_id, "hit", wall_seconds=cached.wall_seconds)
            )
        else:
            misses.append(cell)

    if workers is None:
        workers = min(default_workers(), max(1, len(misses)))
    outcome.workers = workers

    def _commit(cell: Cell, record: RunRecord, slot_id: int | None) -> None:
        if cache is not None or ledger is not None:
            # Only a kept record names its commit: execute_cell leaves
            # git_sha unset, so an unkept run forks no git at all.
            record = dataclasses.replace(record, git_sha=git_sha())
        if cache is not None:
            cache.put(cell, record, fingerprint)
        if ledger is not None:
            ledger.append(_annotate(record, "miss", cell.cell_id))
        outcome.records[cell.cell_id] = record
        outcome.outcomes.append(
            CellOutcome(
                cell.cell_id,
                "simulated",
                shard=slot_id,
                wall_seconds=record.wall_seconds,
            )
        )

    # -- serial reference path --------------------------------------------
    if workers == 0 or not misses:
        for cell in misses:
            try:
                record = execute_cell(cell)
            except Exception as exc:  # noqa: BLE001 - reported per cell
                outcome.outcomes.append(
                    CellOutcome(
                        cell.cell_id,
                        "failed",
                        error=f"{type(exc).__name__}: {exc}",
                        exception=exc,
                    )
                )
            else:
                _commit(cell, record, None)
        outcome.elapsed = time.perf_counter() - start
        return outcome

    # -- dispatched path -------------------------------------------------
    ctx = _mp_context(mp_context)
    out_queue = ctx.Queue()
    # Longest first: big-p cells start early, and the small ones at the
    # tail fill whichever slot frees up (ties keep plan order).
    queue = deque(sorted(misses, key=lambda c: -c.p))
    slots = [_Slot(i) for i in range(min(workers, len(misses)))]
    cell_index = {c.cell_id: c for c in misses}
    crash_plan = dict(crash_plan or {})
    recorded: set[str] = set()

    def _fill() -> None:
        """Top every live slot up to ``_SLOT_DEPTH`` cells."""
        for slot in slots:
            while not slot.retired and len(slot.in_flight) < _SLOT_DEPTH and queue:
                cell = queue.popleft()
                if cell.cell_id not in recorded:
                    slot.send(cell)

    def _handle(msg) -> None:
        kind, slot_id, generation, cell_id, payload = msg
        slot = slots[slot_id]
        if generation == slot.generation:
            slot.in_flight = [c for c in slot.in_flight if c.cell_id != cell_id]
        _fill()  # the slot's next cell goes out before this one commits
        if cell_id in recorded:
            return  # duplicate replay after a requeue race — drop it
        recorded.add(cell_id)
        if kind == "done":
            _commit(cell_index[cell_id], RunRecord.from_json(payload), slot_id)
        else:  # "failed" — the workload raised; not a crash, no requeue
            outcome.outcomes.append(
                CellOutcome(cell_id, "failed", shard=slot_id, error=payload)
            )

    def _drain() -> None:
        while True:
            try:
                _handle(out_queue.get(timeout=_POLL_SECONDS))
            except queue_mod.Empty:
                return

    def _abandon(slot: _Slot) -> SweepError:
        outcome.elapsed = time.perf_counter() - start
        reason = (
            f"slot {slot.slot_id} lost {slot.generation} worker(s); requeue "
            f"budget ({max_requeues}) exhausted"
        )
        abandoned = [cid for cid in cell_index if cid not in recorded]
        for cid in abandoned:
            outcome.outcomes.append(
                CellOutcome(cid, "failed", shard=slot.slot_id, error=reason)
            )
        err = SweepError(f"{reason}; {len(abandoned)} cell(s) abandoned")
        err.outcome = outcome
        return err

    for slot in slots:
        slot.start(ctx, out_queue, crash_plan.get(slot.slot_id))
    _fill()
    finished = False
    try:
        while len(recorded) < len(misses):
            try:
                _handle(out_queue.get(timeout=_POLL_SECONDS))
            except queue_mod.Empty:
                pass
            for slot in slots:
                if slot.retired or slot.alive():
                    continue
                # Dead worker: drain what it managed to flush, then put
                # its unreported cells back at the front of the queue.
                _drain()
                lost = [c for c in slot.in_flight if c.cell_id not in recorded]
                slot.in_flight = []
                if not lost:
                    slot.retired = True  # nothing lost; the others carry on
                    slot.close()
                    continue
                slot.generation += 1
                if slot.generation > max_requeues:
                    raise _abandon(slot)
                queue.extendleft(reversed(lost))
                outcome.requeues += 1
                # Replacement runs clean: an injected crash fires once.
                slot.start(ctx, out_queue, None)
                _fill()
        finished = True
    finally:
        for slot in slots:
            slot.stop()
            if slot.process is not None:
                if not finished:  # abandoned sweep: don't wait on cells
                    slot.process.terminate()
                slot.process.join(timeout=5.0)
                if slot.process.is_alive():  # pragma: no cover
                    slot.process.terminate()
        out_queue.close()

    outcome.elapsed = time.perf_counter() - start
    return outcome
