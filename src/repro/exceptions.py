"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ParameterError(ReproError, ValueError):
    """A machine or model parameter is invalid (negative cost, zero memory, ...)."""


class InfeasibleError(ReproError, ValueError):
    """An optimization question has no feasible answer.

    Raised e.g. when an energy budget is below the unavoidable minimum
    energy, or a runtime cap is below the minimum achievable runtime.
    """


class MemoryRangeError(ReproError, ValueError):
    """A requested per-processor memory M lies outside the algorithm's
    admissible range (below one-copy-of-the-data, or above the replication
    saturation point)."""


class SimulationError(ReproError, RuntimeError):
    """The SPMD simulation substrate failed (rank raised, deadlock, ...)."""


class DeadlockError(SimulationError):
    """All live ranks are blocked waiting on communication that can never
    be satisfied."""


class RankCrashedError(SimulationError):
    """An injected fault (see :mod:`repro.simmpi.faults`) crashed this rank.

    Raised inside the crashed rank's thread when its metered-operation
    counter reaches the :class:`~repro.simmpi.faults.CrashFault`'s
    ``at_op``. The engine isolates it — the rank is marked dead instead
    of aborting the whole world — so resilient algorithms can detect the
    death and recover from replicas.

    Attributes
    ----------
    rank:
        World rank that crashed.
    op:
        The metered-operation index at which the crash fired.
    """

    def __init__(self, rank: int, op: int):
        self.rank = rank
        self.op = op
        super().__init__(f"rank {rank} crashed at operation {op} (injected fault)")


class PeerDeadError(DeadlockError):
    """A receive was abandoned because the peer rank is dead.

    A subclass of :class:`DeadlockError` so the engine's failure
    reporting treats it as secondary noise: the primary failure is the
    crash that killed the peer, not the receives it orphaned.
    """


class RankFailedError(SimulationError):
    """One or more ranks raised an exception during an SPMD run.

    The message names each distinct ``(type, text)`` once, with the
    ranks that raised it: an error every rank hits alike reads
    ``4 rank(s) failed: ranks 0, 1, 2, 3: ParameterError: ...``.

    Attributes
    ----------
    failures:
        Mapping ``rank -> exception`` of every rank that failed.
    """

    def __init__(self, failures: dict[int, BaseException]):
        self.failures = dict(failures)
        ranks: dict[str, list[int]] = {}
        for r, e in sorted(failures.items()):
            ranks.setdefault(f"{type(e).__name__}: {e}", []).append(r)
        detail = "; ".join(
            f"rank{'s' if len(rs) > 1 else ''} {', '.join(map(str, rs))}: {what}"
            for what, rs in ranks.items()
        )
        super().__init__(f"{len(failures)} rank(s) failed: {detail}")


class CommunicatorError(SimulationError):
    """Misuse of a communicator (bad rank, bad tag, mismatched collective)."""


class SweepError(SimulationError):
    """The sharded sweep executor could not complete a sweep.

    Raised when a worker slot exhausts its crash-requeue budget or the worker
    pool is lost entirely; partial results are *not* silently dropped —
    the executor reports which cells finished and which were abandoned.
    """
