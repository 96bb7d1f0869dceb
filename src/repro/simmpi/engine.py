"""The SPMD execution engine.

:func:`run_spmd` runs ``program(comm, *args, **kwargs)`` on one OS
thread per rank — the SPMD idiom of mpi4py scripts, with the
communicator injected instead of imported. It waits
for all ranks, converts any rank exception into
:class:`~repro.exceptions.RankFailedError` (after waking peers blocked
on receives), and returns an :class:`SpmdResult` carrying each rank's
return value plus the :class:`~repro.simmpi.trace.TraceReport` of
measured costs.

Only one rank of a run executes at a time: the one holding the world's
:class:`~repro.simmpi.baton.Baton`. A rank hands it on only where it
would block (or when it returns), to the longest-waiting ready rank,
and rank r starts on its thread the first time the baton reaches it.
So a run is one fixed interleaving, a deadlock is reported the moment no
rank can proceed, and hundreds of rank threads never contend for the
interpreter lock. Determinism of the *counts* never depended on this:
it comes from the algorithms' fixed communication patterns. No wait
inside a world carries a timer; the one wall-clock bound is the
progress watchdog (:func:`_run_watched`), which catches a rank that
holds the baton too long without handing it on.

Since only one rank runs at a time, every rank thread of a run is
pinned to one *home CPU* (:func:`_home_cpu`): the CPU the thread that
built the run's :class:`~repro.simmpi.pool.SpmdPool` ran on then (for
``run_spmd``, the process-wide pool's), so a pool's workers pin
themselves once and stay put. A hand-off then wakes the
next rank on the CPU the previous one just left, instead of sending an
interrupt to an idle CPU whose thread would only wait there for the
interpreter lock the waker still holds. The world loses no parallelism
it had. Nothing is pinned where ``os.sched_setaffinity`` is missing,
where the caller may use one CPU only, or where the call fails; the
caller's own thread is never pinned.

The rank threads are the workers of a
:class:`~repro.simmpi.pool.SpmdPool`: ``run_spmd`` runs on the
process-wide :func:`~repro.simmpi.pool.shared_pool`, whose workers live
across runs, and :meth:`~repro.simmpi.pool.SpmdPool.run` on its own
pool. Both go through one runner, which executes this module's per-rank
body and failure handling (:class:`_Run`, :func:`_finalize`) under its
progress watchdog (:func:`_run_watched`).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable

from repro.exceptions import DeadlockError, RankCrashedError, RankFailedError
from repro.simmpi.comm import Comm
from repro.simmpi.trace import TraceReport
from repro.simmpi.world import World

__all__ = ["run_spmd", "SpmdResult"]


@dataclass(frozen=True)
class SpmdResult:
    """Outcome of an SPMD run."""

    results: tuple  # per-rank return values, indexed by rank
    report: TraceReport  # measured F/W/S/M per rank
    #: per-rank EventLogs when the run was traced (``trace=True``),
    #: else None — input to the :mod:`repro.analysis.timeline` analyses
    event_logs: tuple | None = None
    #: per-rank mailbox-depth histograms when the run was traced, else
    #: None — the host-side part of :attr:`metrics`
    mailbox_depths: tuple | None = None
    #: ranks whose injected crash fired during the run (their ``results``
    #: entries are None); empty for fault-free runs
    crashed: tuple[int, ...] = ()

    @cached_property
    def metrics(self):
        """Run-level :class:`~repro.metrics.registry.MetricsRegistry`
        folded from the event logs on first read (traced runs only),
        else None — see :func:`repro.metrics.runtime.run_metrics`."""
        if self.event_logs is None:
            return None
        from repro.metrics.runtime import run_metrics

        return run_metrics(self.event_logs, self.mailbox_depths)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, rank: int):
        return self.results[rank]

    def timeline(self):
        """Build a :class:`~repro.analysis.timeline.Timeline` over this
        run's events (requires the run to have been traced)."""
        from repro.analysis.timeline import Timeline

        return Timeline.from_result(self)


def _can_pin() -> bool:
    """Whether a run started from the calling thread may pin its rank
    threads: ``os.sched_setaffinity`` exists and the caller may use more
    than one CPU."""
    return hasattr(os, "sched_setaffinity") and len(os.sched_getaffinity(0)) >= 2


def _home_cpu() -> int | None:
    """The CPU a pool's rank threads are pinned to: the one the calling
    thread runs on now (field 39 of ``/proc/thread-self/stat``), or
    None to pin nothing — when the caller cannot pin (:func:`_can_pin`)
    or the field cannot be read."""
    if not _can_pin():
        return None
    try:
        with open("/proc/thread-self/stat", "rb") as fh:
            stat = fh.read()
        # The command name (field 2) may hold spaces: count from its ')'.
        return int(stat.rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


#: ``cpu``: the CPU this thread last pinned itself to (a pool worker
#: keeps it across runs, so it pins again only when its CPU changes)
_pinned = threading.local()


class _Run:
    """One SPMD run's shared state and the per-rank body: each
    :class:`~repro.simmpi.pool.SpmdPool` worker of the run calls
    :meth:`rank`, and :func:`_finalize` reads the finished state.
    ``cpu`` is the run's home CPU (:func:`_home_cpu`), or None."""

    __slots__ = (
        "world",
        "cpu",
        "program",
        "args",
        "kwargs",
        "results",
        "failures",
        "crashes",
        "_lock",
    )

    def __init__(
        self, world: World, program: Callable[..., Any], args, kwargs, cpu: int | None
    ):
        self.world = world
        self.cpu = cpu
        self.program = program
        self.args = args
        self.kwargs = kwargs
        self.results: list[Any] = [None] * world.size
        self.failures: dict[int, BaseException] = {}
        #: injected RankCrashedError unwinds (see :func:`_finalize`)
        self.crashes: dict[int, BaseException] = {}
        self._lock = threading.Lock()

    def rank(self, rank: int) -> None:
        """Run ``rank``'s program on the world communicator.

        An injected crash isolates the rank (survivors may recover); any
        other exception is recorded and aborts the world. Either way the
        rank then hands the baton on for good. The rank's thread first
        pins itself to the run's home CPU.
        """
        world = self.world
        cpu = self.cpu
        if cpu is not None and getattr(_pinned, "cpu", None) != cpu:
            _pinned.cpu = cpu  # a refused call is not retried
            try:
                os.sched_setaffinity(0, (cpu,))
            except OSError:
                pass
        try:
            comm = Comm(world, group=world.group, rank=rank)
            self.results[rank] = self.program(comm, *self.args, **self.kwargs)
        except RankCrashedError as exc:
            with self._lock:
                self.crashes[rank] = exc
            world.mark_dead(rank)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            with self._lock:
                self.failures[rank] = exc
            world.abort()
        finally:
            world.baton.exit(rank)


def _finalize(
    world: World,
    results: list[Any],
    failures: dict[int, BaseException],
    crashes: dict[int, BaseException] | None = None,
    wall_seconds: float = 0.0,
) -> SpmdResult:
    """Convert finished-run state into an SpmdResult or RankFailedError.

    ``crashes`` holds injected :class:`~repro.exceptions.RankCrashedError`
    unwinds. Alone they are *survivable* — the run succeeds with
    ``SpmdResult.crashed`` naming the victims (a resilient program
    completed around them). Combined with real ``failures`` they are
    primary context: a crash that a non-resilient program could not
    absorb is the root cause, and the orphaned-receive
    ``DeadlockError``/``PeerDeadError`` cascade on the survivors is
    secondary noise.
    """
    crashes = crashes or {}
    if failures:
        # Deadlock/abort cascades on other ranks are secondary noise; report
        # the primary failures (non-DeadlockError), including any injected
        # crashes the program failed to absorb, first if any exist.
        merged = {**crashes, **failures}
        primary = {r: e for r, e in merged.items() if not isinstance(e, DeadlockError)}
        raise RankFailedError(primary or merged)

    report = TraceReport(ranks=tuple(c.snapshot() for c in world.counters))
    mailbox_depths = None
    if world.trace:
        mailbox_depths = tuple(box.depths for box in world.mailboxes)
    result = SpmdResult(
        results=tuple(results),
        report=report,
        event_logs=world.event_logs,
        mailbox_depths=mailbox_depths,
        crashed=tuple(sorted(crashes)),
    )
    if world.record is not None:
        # Ledger hook: runs strictly after the join, on the already-built
        # result — it can never perturb counts or virtual clocks.
        from repro.observatory.ledger import emit_run

        emit_run(world.record, world, result, wall_seconds)
    return result


#: Seconds an aborted world's ranks get to unwind before the
#: watchdog names the ones still unfinished.
_UNWIND_GRACE = 1.0


def _run_watched(world: World, start: Callable[[int], None]) -> None:
    """Run ``world``'s ranks under the progress watchdog.

    ``start(r)`` launches rank r when the baton first reaches it. Every
    wait inside the world ends by the baton (a deposit, a collective's
    resolution, an abort, a retransmission or a deadlock report), so a
    run can only stall on a rank wedged *outside* the simulator (a
    user-code infinite loop): it keeps the baton and never hands it on.
    The watchdog reads the hand-off count every quarter of the
    ``2*timeout + 1`` second budget and reports a wedge once it has not
    moved for a whole budget, 1 to 1.25 budgets after the last hand-off;
    a live run of any length finishes. On a wedge the world is aborted; if the baton
    has moved off the rank that held it, the ranks get
    :data:`_UNWIND_GRACE` seconds to unwind (a holder that keeps it
    leaves none able to). Then a
    :class:`~repro.exceptions.DeadlockError` names the holder as wedged
    and lists what each rank parked at that moment waits on (a rank
    polling ``Request.test()`` for a message that never comes keeps the
    baton while its peer is parked in a receive).
    """
    budget = 2.0 * world.timeout + 1.0
    baton = world.baton
    baton.run(start)
    seen, still = -1, 0
    while not baton.wait(budget / 4):
        handoffs = baton.handoffs
        still = still + 1 if handoffs == seen else 0
        if still == 4:
            break  # a whole budget without a hand-off: wedged
        seen = handoffs
    else:
        return  # every rank finished
    holder = baton.holder
    parked = baton.parked()  # before the abort wakes the parked ranks
    world.abort()  # unblock anything still waiting on the stuck ranks
    if holder is None or baton.holder != holder:
        # The baton can still move, so aborted ranks can unwind. While
        # the rank that held it at abort still does, none can.
        baton.wait(_UNWIND_GRACE)
    stuck = baton.unfinished()
    message = (
        f"no baton hand-off for {budget:.1f}s (2*timeout+1): rank "
        f"thread(s) {stuck if holder is None else [holder]} are wedged "
        "outside a receive — likely an infinite loop in the SPMD program"
    )
    if parked:
        message += f"; parked meanwhile: {parked}"
    raise DeadlockError(message)


def run_spmd(
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
    """Run ``program(comm, *args, **kwargs)`` on ``size`` simulated ranks.

    One rank runs at a time (see :mod:`repro.simmpi.baton`): ranks start
    in rank order, each runs until it would block or returns, and the
    baton then passes to the longest-waiting ready rank. A program in
    which every unfinished rank is blocked fails at once with
    :class:`~repro.exceptions.DeadlockError` on each blocked rank. The
    ranks run on idle threads of :func:`~repro.simmpi.pool.shared_pool`
    taken for this run alone, so a run may start inside another run's
    rank program or from several threads at once.

    Parameters
    ----------
    size:
        Number of ranks.
    program:
        The SPMD body. Receives a :class:`~repro.simmpi.comm.Comm` as its
        first argument; its return value is collected per rank.
    max_message_words:
        The model's m: payloads are metered as ceil(words/m) messages.
    timeout:
        Bounds how long one rank may hold the baton: the progress
        watchdog reports a wedge once no hand-off happened for
        ``2*timeout + 1`` seconds. Waits have no timer — a deadlock
        among ranks is reported the moment it happens — and a live run
        may take any time.
    machine:
        Optional :class:`~repro.core.parameters.MachineParameters`; when
        given, per-rank virtual clocks advance by the Eq. (1) cost of
        each operation and honor message dependencies, and the report's
        :meth:`~repro.simmpi.trace.TraceReport.simulated_time` returns
        the critical-path finish time.
    node_size:
        Optional two-level grouping (Fig. 2): consecutive blocks of
        ``node_size`` ranks form a node, and traffic crossing node
        boundaries is tallied separately (see
        :meth:`~repro.simmpi.trace.TraceReport.twolevel_counts`).
    payload_mode:
        ``"cow"`` (default) for copy-on-write payload transport or
        ``"copy"`` for the legacy deep-copy-per-hop transport; counts
        are identical, only physical copy traffic differs (see
        :mod:`repro.simmpi.payload`).
    trace:
        Record per-rank structured event logs (sends, receives,
        collective spans, kernel spans) for the
        :mod:`repro.analysis.timeline` analyses; the result's
        ``event_logs`` / :meth:`SpmdResult.timeline` expose them, and
        :attr:`SpmdResult.metrics` folds them into runtime metrics on
        first read. Counts are bit-identical traced or not; the
        untraced default pays only one ``is None`` test per operation.
    trace_capacity:
        Per-rank event ring size (default
        :data:`~repro.simmpi.events.DEFAULT_TRACE_CAPACITY`); overflow
        drops the oldest events.
    faults:
        Optional :class:`~repro.simmpi.faults.FaultPlan` of deterministic
        injected failures (rank crashes, message drops/duplicates/delays,
        transient slowdowns). A rank unwound by its injected crash is
        *isolated*, not fatal: it is marked dead (receives from it raise
        :class:`~repro.exceptions.PeerDeadError`), and if every other
        rank completes, the run succeeds with ``SpmdResult.crashed``
        naming the victims. Counts and virtual clocks are bit-identical
        with ``faults=None`` versus an empty plan.
    fastpath:
        When True (default), eligible collectives (default algorithm,
        built-in reduce op, no tracing/faults) resolve
        analytically instead of simulating every envelope — identical
        counts, virtual clocks and payloads at a fraction of the
        wall-clock cost (see :mod:`repro.simmpi.fastpath`). Pass False
        to force the faithful message path everywhere.
    record:
        Optional run-ledger hook (a
        :class:`~repro.observatory.ledger.RunRecorder`, a bare
        :class:`~repro.observatory.ledger.Ledger`, or a callable
        receiving the built :class:`~repro.observatory.ledger.RunRecord`).
        Invoked once after a *successful* join with the finished result
        and the run's wall-clock seconds; counts and per-rank virtual
        clocks are bit-identical with the hook on or off (the hook runs
        strictly post-join).

    Raises
    ------
    RankFailedError
        If any rank raises; carries the per-rank exceptions.
    DeadlockError
        If one rank keeps the baton for ``2*timeout + 1`` seconds
        without a hand-off (a rank wedged outside a receive, e.g. a
        user-code infinite loop); raised at once while the wedged rank
        keeps the baton, else after a further :data:`_UNWIND_GRACE`
        seconds for the aborted ranks to unwind.
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
    from repro.simmpi.pool import shared_pool  # pool imports this module

    return shared_pool()._execute(world, program, args, kwargs)
