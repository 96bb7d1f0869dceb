"""SpmdPool: persistent rank workers, equivalence with run_spmd,
failure recovery, and a standalone mailbox's matching wait."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.analysis.validation import default_machine
from repro.exceptions import DeadlockError, RankFailedError
from repro.simmpi import SpmdPool, run_spmd, shared_pool
from repro.simmpi.baton import Baton
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

    def test_run_spmd_outlives_a_shut_down_shared_pool(self):
        old = shared_pool()
        old.shutdown()
        assert run_spmd(3, _sum_of_ranks).results == (3, 3, 3)
        assert shared_pool() is not old


def _ring_and_reduce(comm):
    comm.add_flops(1000 * (comm.rank + 1))
    x = comm.shift(np.full(8 + comm.rank, float(comm.rank)), 1)
    return comm.allreduce(float(x.sum()))


def _counts_and_clocks(out):
    return out.results, out.report.counts_signature(), [
        r.vtime for r in out.report.ranks
    ]


class TestOneSubstrate:
    """``run_spmd`` runs on the shared pool's threads, and every run
    takes workers of its own: runs nest and run concurrently."""

    def test_run_spmd_starts_no_thread_once_warm(self):
        run_spmd(5, _ring_and_reduce)
        before = set(threading.enumerate())
        for _ in range(3):
            out = run_spmd(5, lambda comm: threading.current_thread())
            assert set(out.results) <= before

    def test_run_spmd_never_goes_through_spmdpool_run(self, monkeypatch):
        """Both entry points share one internal runner, so a wrapper on
        ``SpmdPool.run`` never sees (or nests inside) a ``run_spmd``."""

        def refused(*args, **kwargs):
            raise AssertionError("run_spmd called SpmdPool.run")

        monkeypatch.setattr(SpmdPool, "run", refused)
        assert run_spmd(3, _sum_of_ranks).results == (3, 3, 3)

    def test_run_inside_a_rank_program_matches_a_lone_run(self):
        machine = default_machine()
        lone = _counts_and_clocks(run_spmd(5, _ring_and_reduce, machine=machine))

        def outer(comm):
            inner = run_spmd(5, _ring_and_reduce, machine=machine)
            return _counts_and_clocks(inner), comm.allreduce(comm.rank)

        out = run_spmd(3, outer)
        assert [r[0] for r in out.results] == [lone] * 3
        assert [r[1] for r in out.results] == [3, 3, 3]

    @pytest.mark.parametrize("substrate", ["run_spmd", "pool"])
    def test_two_threads_at_once_match_a_lone_run(self, substrate):
        machine = default_machine()
        with SpmdPool() as pool:
            run = pool.run if substrate == "pool" else run_spmd
            lone = _counts_and_clocks(run(6, _ring_and_reduce, machine=machine))
            start = threading.Barrier(2)
            got: list = [None, None]

            def worker(i):
                start.wait()
                got[i] = _counts_and_clocks(
                    run(6, _ring_and_reduce, machine=machine)
                )

            threads = [threading.Thread(target=worker, args=(i,)) for i in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
            assert not any(t.is_alive() for t in threads)
        assert got == [lone, lone]

    def test_concurrent_runs_hand_every_worker_back_once(self):
        """More threads than CPUs run on one pool with a short switch
        interval: every run is right, and afterwards each live worker is
        idle exactly once (a lost or doubled hand-back breaks this)."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        errors: list = []

        def worker(pool):
            try:
                for size in (4, 3, 5, 4):
                    assert pool.run(size, _sum_of_ranks).results == (
                        size * (size - 1) // 2,
                    ) * size
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        try:
            with SpmdPool() as pool:
                threads = [
                    threading.Thread(target=worker, args=(pool,))
                    for _ in range(2 * (os.cpu_count() or 1) + 2)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60.0)
                assert not any(t.is_alive() for t in threads)
                idle = pool._idle_pinned + pool._idle_unpinned
                assert len(idle) == len(set(idle)) == pool.workers
        finally:
            sys.setswitchinterval(interval)
        assert errors == []

    @pytest.mark.parametrize("substrate", ["run_spmd", "pool"])
    def test_next_run_is_prompt_after_an_interrupted_wait(self, substrate, monkeypatch):
        """The caller's wait raises (as ``KeyboardInterrupt`` would from
        Ctrl-C) while rank 0 still runs outside the simulator: the world
        is aborted and rank 0's worker is replaced, so the next run
        neither waits behind it nor gets an aborted rank's job. Once
        released, the interrupted run unwinds and leaves no thread."""
        release = threading.Event()
        inside = threading.Event()

        def held(comm):
            if comm.rank == 0:
                inside.set()
                release.wait(30.0)
            return comm.allreduce(comm.rank)

        def interrupted(baton, timeout):
            monkeypatch.setattr(Baton, "wait", wait)  # only the first wait raises
            assert inside.wait(10.0)
            raise KeyboardInterrupt

        with SpmdPool() as pool:
            run = pool.run if substrate == "pool" else run_spmd
            wait = Baton.wait
            monkeypatch.setattr(Baton, "wait", interrupted)
            try:
                with pytest.raises(KeyboardInterrupt):
                    run(2, held, timeout=0.2)
                t0 = time.monotonic()
                assert run(2, _sum_of_ranks, timeout=0.2).results == (1, 1)
                assert time.monotonic() - t0 < 1.0  # below one watchdog budget
            finally:
                release.set()

            def late():
                return [t for t in threading.enumerate() if t.name.startswith("simmpi-late")]

            deadline = time.monotonic() + 10.0
            while late() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert late() == []

    def test_shared_pool_runs_after_a_wedged_run(self):
        release = threading.Event()

        def wedged(comm):
            if comm.rank == 1:
                while not release.wait(0.01):
                    pass
            return comm.rank

        try:
            with pytest.raises(DeadlockError, match=r"\[1\] are wedged"):
                run_spmd(3, wedged, timeout=0.2)
            assert run_spmd(3, _sum_of_ranks).results == (3, 3, 3)
            assert shared_pool().run(4, _sum_of_ranks).results == (6, 6, 6, 6)
        finally:
            release.set()


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
