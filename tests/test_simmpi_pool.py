"""SpmdPool: persistent rank workers, equivalence with run_spmd,
failure recovery, and a standalone mailbox's matching wait."""

import threading
import time

import numpy as np
import pytest

from repro.exceptions import RankFailedError
from repro.simmpi import SpmdPool, run_spmd, shared_pool
from repro.simmpi.mailbox import Mailbox


def _sum_of_ranks(comm):
    return sum(comm.allgather(comm.rank))


def _bcast_sum(comm, words):
    data = np.arange(words, dtype=float) if comm.rank == 0 else None
    got = comm.bcast(data, root=0)
    return float(np.asarray(got).sum())


class TestSpmdPool:
    def test_matches_run_spmd_results_and_counts(self):
        baseline = run_spmd(8, _bcast_sum, 64)
        with SpmdPool() as pool:
            pooled = pool.run(8, _bcast_sum, 64)
        assert pooled.results == baseline.results
        assert (
            pooled.report.counts_signature()
            == baseline.report.counts_signature()
        )

    def test_workers_are_reused_and_grow_on_demand(self):
        with SpmdPool() as pool:
            assert pool.workers == 0
            pool.run(4, _sum_of_ranks)
            assert pool.workers == 4
            first = set(threading.enumerate())
            pool.run(4, _sum_of_ranks)
            assert pool.workers == 4  # same workers, no respawn
            assert {
                t for t in threading.enumerate() if t.name.startswith("simmpi-pool")
            } == {t for t in first if t.name.startswith("simmpi-pool")}
            pool.run(6, _sum_of_ranks)
            assert pool.workers == 6

    def test_initial_workers(self):
        with SpmdPool(initial_workers=3) as pool:
            assert pool.workers == 3
            assert pool.run(2, _sum_of_ranks).results == (1, 1)

    def test_failure_propagates_and_pool_survives(self):
        def boom(comm):
            if comm.rank == 1:
                raise RuntimeError("kaboom")
            if comm.size > 1:
                comm.recv((comm.rank + 1) % comm.size)  # blocks, then aborted
            return comm.rank

        with SpmdPool() as pool:
            with pytest.raises(RankFailedError, match="kaboom"):
                pool.run(4, boom, timeout=30.0)
            # The pool remains usable after a failed run.
            assert pool.run(4, _sum_of_ranks).results == (6, 6, 6, 6)

    def test_shutdown_is_idempotent_and_final(self):
        pool = SpmdPool()
        pool.run(2, _sum_of_ranks)
        pool.shutdown()
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.run(2, _sum_of_ranks)

    def test_run_accepts_engine_kwargs(self):
        with SpmdPool() as pool:
            out = pool.run(
                2,
                _bcast_sum,
                10,
                max_message_words=4,
                payload_mode="copy",
                timeout=30.0,
            )
            assert out.results == (45.0, 45.0)
            assert out.report.ranks[0].messages_sent == 3  # ceil(10/4)

    def test_rejects_negative_initial_workers(self):
        with pytest.raises(ValueError):
            SpmdPool(initial_workers=-1)

    def test_shared_pool_is_a_singleton(self):
        assert shared_pool() is shared_pool()
        assert shared_pool().run(3, _sum_of_ranks).results == (3, 3, 3)


class TestWatchdogDeadline:
    """A standalone mailbox's wait has no deadline: only a matching
    deposit ends it."""

    def test_non_matching_deposits_never_satisfy_the_wait(self):
        box = Mailbox(0)
        matched = threading.Event()

        def feeder():
            for i in range(5):
                box.put(1, "ctx", ("noise", i), i)  # wrong tag: never matches
                box.put(2, "ctx", "wanted", i)  # wrong source
                time.sleep(0.02)
            matched.set()
            box.put(1, "ctx", "wanted", "payload")

        t = threading.Thread(target=feeder, daemon=True)
        t.start()
        assert box.get(1, "ctx", "wanted") == "payload"
        assert matched.is_set()
        t.join()
        assert box.pending() == 10

    def test_message_arriving_before_deadline_is_delivered(self):
        box = Mailbox(0)

        def late_put():
            time.sleep(0.15)
            box.put(1, "ctx", "tag", "payload")

        t = threading.Thread(target=late_put, daemon=True)
        t.start()
        assert box.get(1, "ctx", "tag") == "payload"
        t.join()


class TestPoolWithFaults:
    """Fault injection on the pool substrate: crash isolation behaves
    exactly as on run_spmd, and a failed fault-injected run leaves the
    pool usable."""

    def test_survivable_crash_reported_on_result(self):
        from repro.simmpi import FaultPlan, park_until_crash

        def prog(comm):
            park_until_crash(comm)  # no-op on live ranks
            return comm.rank

        with SpmdPool() as pool:
            out = pool.run(
                4, prog, faults=FaultPlan.single_crash(rank=2, at_op=1),
                timeout=5.0,
            )
            assert out.crashed == (2,)
            assert out.results == (0, 1, None, 3)

    def test_pool_survives_failed_run_with_faults_active(self):
        from repro.exceptions import RankCrashedError
        from repro.simmpi import FaultPlan

        def needs_rank_one(comm):
            if comm.rank == 1:
                comm.add_flops(1.0)  # op 1: the injected crash fires here
                return None
            return comm.recv(1)  # unblocked by the peer-dead abort

        with SpmdPool() as pool:
            with pytest.raises(RankFailedError) as exc:
                pool.run(
                    2, needs_rank_one,
                    faults=FaultPlan.single_crash(rank=1, at_op=1),
                    timeout=5.0,
                )
            # The unabsorbed crash is the primary failure; the survivor's
            # abandoned receive is secondary noise and not reported.
            assert set(exc.value.failures) == {1}
            assert isinstance(exc.value.failures[1], RankCrashedError)
            # The same workers run the next (fault-free) job cleanly.
            out = pool.run(2, _sum_of_ranks)
            assert out.results == (1, 1)
            assert out.crashed == ()
