"""Tests for the SPMD engine, mailboxes, point-to-point messaging and
failure handling."""

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.analysis.validation import default_machine
from repro.exceptions import (
    CommunicatorError,
    DeadlockError,
    ParameterError,
    RankFailedError,
)
from repro.simmpi import engine
from repro.simmpi import pool as pool_module
from repro.simmpi.engine import run_spmd
from repro.simmpi.mailbox import ANY_TAG, NOTHING, Mailbox
from repro.simmpi.pool import SpmdPool, shared_pool


class TestRunSpmd:
    def test_results_ordered_by_rank(self):
        out = run_spmd(5, lambda comm: comm.rank * 10)
        assert out.results == (0, 10, 20, 30, 40)

    def test_single_rank(self):
        out = run_spmd(1, lambda comm: comm.size)
        assert out.results == (1,)

    def test_args_kwargs_forwarded(self):
        def prog(comm, a, b=0):
            return a + b + comm.rank

        out = run_spmd(3, prog, 100, b=10)
        assert out.results == (110, 111, 112)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            run_spmd(0, lambda comm: None)

    def test_indexing_and_iteration(self):
        out = run_spmd(3, lambda comm: comm.rank)
        assert out[1] == 1
        assert list(out) == [0, 1, 2]

    def test_report_attached(self):
        out = run_spmd(2, lambda comm: comm.add_flops(5))
        assert out.report.total_flops == 10


class TestWorldGroup:
    @pytest.mark.parametrize("substrate", ["run_spmd", "pool"])
    def test_world_comms_share_one_group(self, substrate):
        """Every rank's world Comm holds the world's one group tuple,
        not a copy of its own (O(p) objects per run, not O(p²))."""
        with SpmdPool() as pool:
            run = pool.run if substrate == "pool" else run_spmd
            groups = run(6, lambda comm: comm._group).results
        assert groups[0] == tuple(range(6))
        assert all(g is groups[0] for g in groups)


class TestPointToPoint:
    def test_send_recv(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(4), 1, tag="data")
                return None
            return comm.recv(0, tag="data").sum()

        out = run_spmd(2, prog)
        assert out.results[1] == 6

    def test_message_isolation_by_tag(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("first", 1, tag="a")
                comm.send("second", 1, tag="b")
                return None
            # Receive in reverse tag order: matching is per-channel.
            second = comm.recv(0, tag="b")
            first = comm.recv(0, tag="a")
            return (first, second)

        out = run_spmd(2, prog)
        assert out.results[1] == ("first", "second")

    def test_fifo_per_channel(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(10):
                    comm.send(i, 1)
                return None
            return [comm.recv(0) for _ in range(10)]

        out = run_spmd(2, prog)
        assert out.results[1] == list(range(10))

    def test_receiver_gets_a_copy(self):
        """Distributed-memory semantics: mutating a received buffer must
        not corrupt the sender's array. Under copy-on-write transport the
        receiver materializes a private copy before writing."""
        from repro.simmpi import materialize

        src = np.arange(4)

        def prog(comm):
            if comm.rank == 0:
                comm.send(src, 1)
                comm.barrier()
                return src.copy()
            buf = materialize(comm.recv(0))
            buf[:] = -1
            comm.barrier()
            return buf

        out = run_spmd(2, prog)
        assert np.array_equal(out.results[0], [0, 1, 2, 3])
        assert np.array_equal(out.results[1], [-1, -1, -1, -1])

    def test_received_buffer_is_read_only_under_cow(self):
        """CoW receives deliver read-only views: writing without
        materialize() raises instead of silently aliasing."""

        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(4), 1)
                return None
            buf = comm.recv(0)
            assert not buf.flags.writeable
            with pytest.raises(ValueError):
                buf[:] = -1
            return buf.sum()

        out = run_spmd(2, prog)
        assert out.results[1] == 6

    def test_legacy_copy_mode_delivers_writable_buffers(self):
        """payload_mode="copy" keeps the seed's deep-copy semantics."""
        src = np.arange(4)

        def prog(comm):
            if comm.rank == 0:
                comm.send(src, 1)
                comm.barrier()
                return src.copy()
            buf = comm.recv(0)
            assert buf.flags.writeable
            buf[:] = -1
            comm.barrier()
            return buf

        out = run_spmd(2, prog, payload_mode="copy")
        assert np.array_equal(out.results[0], [0, 1, 2, 3])
        assert np.array_equal(out.results[1], [-1, -1, -1, -1])

    def test_counts_sent_and_received(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(250), 1)
            elif comm.rank == 1:
                comm.recv(0)

        out = run_spmd(2, prog, max_message_words=100)
        snap = out.report.ranks
        assert snap[0].words_sent == 250
        assert snap[0].messages_sent == 3  # ceil(250/100)
        assert snap[1].words_received == 250
        assert snap[1].messages_received == 3
        assert out.report.words_conserved()

    def test_self_sendrecv_unmetered(self):
        def prog(comm):
            got = comm.sendrecv(np.arange(3), dest=comm.rank, source=comm.rank)
            return got.sum()

        out = run_spmd(2, prog)
        assert out.results == (3, 3)
        assert out.report.total_words == 0

    def test_shift_ring(self):
        def prog(comm):
            got = comm.shift(comm.rank, 1)
            return got

        out = run_spmd(4, prog)
        assert out.results == (3, 0, 1, 2)

    def test_any_tag_recv(self):
        """Comm.recv accepts the ANY_TAG wildcard (arrival order)."""
        from repro.simmpi.mailbox import ANY_TAG

        def prog(comm):
            if comm.rank == 0:
                comm.send("first", 1, tag="zebra")
                comm.send("second", 1, tag="aardvark")
                return None
            return (comm.recv(0, tag=ANY_TAG), comm.recv(0, tag=ANY_TAG))

        out = run_spmd(2, prog)
        assert out.results[1] == ("first", "second")

    def test_bad_peer_rejected(self):
        def prog(comm):
            comm.send(1, 99)

        with pytest.raises(RankFailedError) as exc:
            run_spmd(2, prog)
        assert all(
            isinstance(e, CommunicatorError) for e in exc.value.failures.values()
        )


class TestFailureHandling:
    def test_rank_exception_propagates(self):
        def prog(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            return comm.rank

        with pytest.raises(RankFailedError) as exc:
            run_spmd(3, prog)
        assert 1 in exc.value.failures
        assert isinstance(exc.value.failures[1], ValueError)

    def test_message_names_each_distinct_failure_once(self):
        def prog(comm):
            raise ValueError("odd" if comm.rank == 2 else "same")

        with pytest.raises(RankFailedError) as exc:
            run_spmd(4, prog)
        assert str(exc.value) == (
            "4 rank(s) failed: ranks 0, 1, 3: ValueError: same; "
            "rank 2: ValueError: odd"
        )
        assert sorted(exc.value.failures) == [0, 1, 2, 3]

    def test_peer_failure_unblocks_receivers(self):
        """A crash on one rank must not leave others hanging until the
        watchdog: the abort wakes them immediately."""

        def prog(comm):
            if comm.rank == 0:
                raise RuntimeError("early death")
            comm.recv(0)  # would block forever

        t0 = time.time()
        with pytest.raises(RankFailedError) as exc:
            run_spmd(2, prog, timeout=30.0)
        assert time.time() - t0 < 5.0
        # The primary failure is reported, not the secondary deadlock.
        assert isinstance(exc.value.failures[0], RuntimeError)

    def test_deadlock_watchdog(self):
        def prog(comm):
            comm.recv((comm.rank + 1) % comm.size)  # everyone waits

        with pytest.raises(RankFailedError) as exc:
            run_spmd(2, prog, timeout=0.2)
        assert all(
            isinstance(e, DeadlockError) for e in exc.value.failures.values()
        )

    @pytest.mark.parametrize(
        "count, shown",
        [
            (float("nan"), "nan"),
            (float("inf"), "inf"),
            (-float("inf"), "-inf"),
            (10**400, repr(10**400)),
            (2**20000, "an int of 20001 bits"),  # past repr's digit limit
            (-1, "-1"),
        ],
        ids=["nan", "inf", "-inf", "10**400", "2**20000", "-1"],
    )
    def test_unpriceable_flop_count_is_one_parameter_error(self, count, shown):
        """NaN, an infinity or an int past float range would poison or
        break every virtual clock; the count is refused by name."""
        with pytest.raises(RankFailedError) as exc:
            run_spmd(
                2, lambda comm: comm.add_flops(count), machine=default_machine()
            )
        failures = exc.value.failures
        assert sorted(failures) == [0, 1]
        for err in failures.values():
            assert type(err) is ParameterError
            assert str(err) == f"flop count must be a finite number >= 0, got {shown}"


class TestMailbox:
    def test_put_get(self):
        box = Mailbox(0)
        box.put(source=1, context="c", tag="t", payload="hello")
        assert box.get(1, "c", "t") == "hello"

    def test_get_blocks_until_put(self):
        box = Mailbox(0)
        result = []

        def producer():
            time.sleep(0.05)
            box.put(2, "c", 0, payload=42)

        t = threading.Thread(target=producer)
        t.start()
        result.append(box.get(2, "c", 0))
        t.join()
        assert result == [42]

    def test_any_tag(self):
        box = Mailbox(0)
        box.put(1, "c", "zeta", payload="z")
        box.put(1, "c", "alpha", payload="a")
        # ANY_TAG delivers in arrival order, not tag order.
        assert box.get(1, "c", ANY_TAG) == "z"
        assert box.get(1, "c", ANY_TAG) == "a"

    def test_context_isolation(self):
        box = Mailbox(0)
        box.put(1, "ctx1", "t", payload="one")
        assert box.try_get(1, "ctx2", "t") is NOTHING
        assert box.try_get(1, "ctx1", "t") == "one"

    def test_pending(self):
        box = Mailbox(0)
        assert box.pending() == 0
        box.put(1, "c", "t", payload=1)
        box.put(1, "c", "t", payload=2)
        assert box.pending() == 2

    def test_abort_check(self):
        box = Mailbox(0)
        with pytest.raises(DeadlockError, match="peer rank failed"):
            box.get(1, "c", "t", abort_check=lambda: True)


class TestMailboxAbortTimeoutRace:
    """A parked Mailbox.get woken by an interrupt blames the peer
    failure its abort check reports."""

    def test_abort_via_notified_wakeup_blames_peer(self):
        box = Mailbox(0)
        aborted = threading.Event()

        def killer():
            time.sleep(0.05)
            aborted.set()
            box.interrupt()

        t = threading.Thread(target=killer)
        t.start()
        t0 = time.monotonic()
        with pytest.raises(DeadlockError, match="peer rank failed"):
            box.get(1, "c", "t", abort_check=aborted.is_set)
        t.join()
        assert time.monotonic() - t0 < 5.0


def _wedged_on_rank_1(release: threading.Event):
    def prog(comm):
        if comm.rank == 1:
            while not release.wait(0.01):  # wedged until the test ends
                pass
        return comm.rank

    return prog


#: the one message both substrates raise for ``_wedged_on_rank_1`` at
#: timeout=0.2 (hand-off budget 2*timeout+1 = 1.4 s)
WEDGED_MESSAGE = (
    "no baton hand-off for 1.4s (2*timeout+1): rank thread(s) [1] are "
    "wedged outside a receive — likely an infinite loop in the SPMD program"
)


class TestJoinWatchdog:
    @pytest.mark.parametrize("substrate", ["run_spmd", "pool"])
    def test_wedged_rank_outside_receive_is_named(self, substrate):
        """The baton reports a deadlock among blocked ranks; a rank
        spinning in user code never hands the baton on and must be
        caught by the progress watchdog, which names it instead of
        hanging the join forever — with the same error on both
        substrates."""
        release = threading.Event()
        pool = SpmdPool() if substrate == "pool" else None
        run = pool.run if pool is not None else run_spmd
        try:
            t0 = time.monotonic()
            with pytest.raises(DeadlockError) as exc:
                run(2, _wedged_on_rank_1(release), timeout=0.2)
            # Bounded by two hand-off budgets of 2*timeout+1 plus the
            # unwind grace, not by the default timeout's.
            assert time.monotonic() - t0 < 10.0
            assert str(exc.value) == WEDGED_MESSAGE
        finally:
            release.set()
            if pool is not None:
                pool.shutdown()

    @pytest.mark.parametrize("substrate", ["run_spmd", "pool"])
    def test_wedged_baton_holder_spends_no_unwind_grace(
        self, substrate, monkeypatch
    ):
        """While the wedged rank keeps the baton no aborted rank can
        unwind, so the watchdog names it without waiting out the grace
        (set absurdly long here: reaching it would time the test out)."""
        monkeypatch.setattr(engine, "_UNWIND_GRACE", 60.0)
        release = threading.Event()
        pool = SpmdPool() if substrate == "pool" else None
        run = pool.run if pool is not None else run_spmd
        try:
            t0 = time.monotonic()
            with pytest.raises(DeadlockError) as exc:
                run(2, _wedged_on_rank_1(release), timeout=0.2)
            assert time.monotonic() - t0 < 10.0
            assert str(exc.value) == WEDGED_MESSAGE
        finally:
            release.set()
            if pool is not None:
                pool.shutdown()

    @pytest.mark.parametrize("substrate", ["run_spmd", "pool"])
    def test_live_run_longer_than_the_budget_completes(self, substrate):
        """The budget bounds one rank's hold on the baton, not the run:
        18 ring shifts with a 0.1 s kernel each take 1.8 s, longer than
        2*timeout+1 = 1.4 s, yet every hand-off comes within 0.1 s."""

        def ring(comm):
            x = comm.rank
            for step in range(18):
                if comm.rank == 0:
                    time.sleep(0.1)  # the kernel holds the baton
                x = comm.shift(x, 1, tag=step)
            return x

        pool = SpmdPool() if substrate == "pool" else None
        run = pool.run if pool is not None else run_spmd
        try:
            t0 = time.monotonic()
            out = run(2, ring, timeout=0.2)
            assert time.monotonic() - t0 > 1.4
        finally:
            if pool is not None:
                pool.shutdown()
        assert out.results == (0, 1)

    @pytest.mark.parametrize("substrate", ["run_spmd", "pool"])
    def test_polling_holder_is_named_and_its_parked_peer_listed(self, substrate):
        """Rank 0 polls ``irecv(1).test()`` for a message rank 1 never
        sends, while rank 1 is parked in ``recv(0)``: only the baton
        holder is wedged, and the report says what the parked rank waits
        on. The wedge handler still gets every unfinished rank. Rank 0
        polls once (the missed poll lets rank 1 park) and then spins
        outside the simulator, so no later missed poll can see the abort
        and unwind it before the handler runs."""
        release = threading.Event()

        def prog(comm):
            if comm.rank == 0:
                assert not comm.irecv(1).test()
                while not release.is_set():
                    pass
            else:
                comm.recv(0)
            return comm.rank

        pool = SpmdPool() if substrate == "pool" else None
        replaced: list[int] = []
        if pool is not None:
            replace = pool._replace_workers
            pool._replace_workers = lambda workers, ranks: (
                replaced.extend(ranks), replace(workers, ranks)
            )
        run = pool.run if pool is not None else run_spmd
        try:
            with pytest.raises(DeadlockError) as exc:
                run(2, prog, timeout=0.2)
            assert str(exc.value) == (
                "no baton hand-off for 1.4s (2*timeout+1): rank thread(s) [0] "
                "are wedged outside a receive — likely an infinite loop in the "
                "SPMD program; parked meanwhile: rank 1 waits for a message "
                "from rank 0 (tag=0)"
            )
            if pool is not None:
                assert 0 in replaced
        finally:
            release.set()
            if pool is not None:
                pool.shutdown()

    @pytest.mark.parametrize("substrate", ["run_spmd", "pool"])
    def test_missed_poll_sees_the_abort(self, substrate):
        """The polling program above without a release event: after the
        watchdog aborts the world, the poller's next missed poll runs
        the abort check a blocking receive runs and raises, so its
        thread stops spinning."""
        ended = threading.Event()
        failures: list = []

        def prog(comm):
            if comm.rank == 0:
                try:
                    req = comm.irecv(1)
                    while not req.test():
                        pass
                except BaseException as exc:
                    failures.append(exc)
                    raise
                finally:
                    ended.set()
            else:
                comm.recv(0)
            return comm.rank

        pool = SpmdPool() if substrate == "pool" else None
        run = pool.run if pool is not None else run_spmd
        try:
            with pytest.raises(DeadlockError, match=r"rank thread\(s\) \[0\] are wedged"):
                run(2, prog, timeout=0.2)
            assert ended.wait(5.0)
            assert [type(e) for e in failures] == [DeadlockError]
            assert str(failures[0]) == (
                "rank 0: receive abandoned because a peer rank failed"
            )
        finally:
            if pool is not None:
                pool.shutdown()

    def test_pool_runs_the_next_program_after_a_wedge(self):
        """The wedged worker is replaced: the same pool runs the next
        program on every rank while the old worker is still spinning."""
        release = threading.Event()
        pool = SpmdPool()
        try:
            with pytest.raises(DeadlockError, match=r"\[1\]"):
                pool.run(3, _wedged_on_rank_1(release), timeout=0.2)
            assert pool.workers == 3
            out = pool.run(
                3, lambda comm: comm.allreduce(comm.rank + 1), timeout=2.0
            )
            assert out.results == (6, 6, 6)
        finally:
            release.set()
        # Not in a finally: a pool left with workers parked in an
        # abandoned world would never finish joining them.
        pool.shutdown()


class TestFinalizeCascade:
    def test_secondary_abort_noise_is_suppressed(self):
        """One real failure plus two ranks unblocked by the abort: only
        the primary exception is reported, the DeadlockError cascade on
        the survivors is dropped entirely."""

        def prog(comm):
            if comm.rank == 1:
                raise ValueError("primary")
            comm.recv(1)  # ranks 0 and 2 block, then get aborted

        with pytest.raises(RankFailedError) as exc:
            run_spmd(3, prog, timeout=30.0)
        assert set(exc.value.failures) == {1}
        assert isinstance(exc.value.failures[1], ValueError)

    def test_multiple_primaries_all_reported(self):
        def prog(comm):
            if comm.rank in (0, 2):
                raise RuntimeError(f"boom-{comm.rank}")
            comm.recv(0)

        with pytest.raises(RankFailedError) as exc:
            run_spmd(3, prog, timeout=30.0)
        assert set(exc.value.failures) == {0, 2}
        assert all(
            isinstance(e, RuntimeError) for e in exc.value.failures.values()
        )


def _allowed_cpus() -> set[int]:
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()


def _affinity(comm):
    return frozenset(os.sched_getaffinity(0))


def _ring_and_reduce(comm):
    comm.add_flops(1000 * (comm.rank + 1))
    x = comm.shift(np.full(8 + comm.rank, float(comm.rank)), 1)
    total = comm.allreduce(float(x.sum()))
    return total, frozenset(os.sched_getaffinity(0))


def _home_in_forked_child(cpu: int, conn) -> None:
    """Forked child: move this thread onto ``cpu`` and release it again,
    then report the affinity of each rank of a shared-pool run."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, (cpu,))
    os.sched_setaffinity(0, allowed)
    conn.send(shared_pool().run(3, _affinity).results)


@pytest.mark.skipif(len(_allowed_cpus()) < 2, reason="fewer than 2 CPUs allowed")
class TestOneCpuPerWorld:
    """Only one rank of a world runs at a time, so all of its rank
    threads are pinned to one home CPU; the caller never is."""

    @pytest.mark.parametrize("substrate", ["run_spmd", "pool"])
    def test_every_rank_runs_on_one_cpu_and_the_caller_on_any(self, substrate):
        allowed = _allowed_cpus()
        with SpmdPool() as pool:
            run = pool.run if substrate == "pool" else run_spmd
            runs = [run(6, _affinity).results for _ in range(2)]
        for masks in runs:
            (mask,) = set(masks)
            assert len(mask) == 1 and mask <= allowed
        if substrate == "pool":
            assert runs[0] == runs[1]  # chosen once per pool
        assert os.sched_getaffinity(0) == allowed

    @pytest.mark.parametrize("substrate", ["run_spmd", "pool"])
    def test_every_run_is_homed_on_its_pools_cpu(self, substrate, monkeypatch):
        """Both entry points home a run on the CPU its pool (for
        ``run_spmd`` the shared one) chose when it was built, wherever
        the caller runs later, so the workers never move."""
        built, later = sorted(_allowed_cpus())[:2]
        monkeypatch.setattr(pool_module, "_home_cpu", lambda: built)
        shared_pool().shutdown()  # the next one is built on ``built``
        with SpmdPool() as pool:
            run = pool.run if substrate == "pool" else run_spmd
            try:
                assert set(run(4, _affinity).results) == {frozenset({built})}
                monkeypatch.setattr(pool_module, "_home_cpu", lambda: later)
                assert set(run(4, _affinity).results) == {frozenset({built})}
            finally:
                shared_pool().shutdown()  # the next one is built unpatched

    @pytest.mark.parametrize("substrate", ["run_spmd", "pool"])
    def test_unpinned_run_is_bit_identical(self, substrate, monkeypatch):
        """Without ``os.sched_setaffinity`` nothing is pinned, and the
        counts and virtual clocks equal a pinned run's."""

        def run_once():
            with SpmdPool() as pool:
                run = pool.run if substrate == "pool" else run_spmd
                return run(5, _ring_and_reduce, machine=default_machine())

        pinned = run_once()
        monkeypatch.delattr(os, "sched_setaffinity")
        unpinned = run_once()
        assert {len(r[1]) for r in pinned.results} == {1}
        assert {r[1] for r in unpinned.results} == {frozenset(_allowed_cpus())}
        assert [r[0] for r in unpinned.results] == [r[0] for r in pinned.results]
        assert (
            unpinned.report.counts_signature() == pinned.report.counts_signature()
        )
        assert [r.vtime for r in unpinned.report.ranks] == [
            r.vtime for r in pinned.report.ranks
        ]

    def test_forked_child_picks_its_own_home_cpu(self):
        """A forked child's shared pool pins its ranks to the CPU the
        child runs on, not to the parent's home CPU."""
        (parent_mask,) = set(shared_pool().run(2, _affinity).results)
        other = min((_allowed_cpus() - parent_mask) or _allowed_cpus())
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_home_in_forked_child, args=(other, writer))
        child.start()
        writer.close()
        try:
            assert reader.poll(30.0), "forked child reported nothing"
            assert reader.recv() == (frozenset({other}),) * 3
        finally:
            child.join(timeout=30.0)
            if child.is_alive():
                child.kill()
        assert child.exitcode == 0
