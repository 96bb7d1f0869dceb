"""The single-runner contract: one rank of a world executes at a time,
the baton passes in FIFO order, missed polls yield, a fault-free traced
run is one fixed interleaving, and a deadlock is reported at once."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.exceptions import DeadlockError, RankFailedError
from repro.scenarios import build_scenario
from repro.simmpi import SpmdPool, run_spmd

MODES = {
    "fastpath": {},
    "message-path": {"fastpath": False},
    "traced": {"trace": True},
}


@pytest.fixture(scope="module")
def pool():
    with SpmdPool() as shared:
        yield shared


@pytest.fixture(params=["run_spmd", "pool"])
def runner(request, pool):
    """Run a program on either substrate with run_spmd's signature."""
    if request.param == "run_spmd":
        return run_spmd
    return pool.run


@pytest.mark.parametrize("mode", sorted(MODES))
def test_one_rank_runs_at_a_time(runner, mode):
    """numpy calls drop and retake the GIL; with every rank thread
    runnable they would interleave, so the shared peak would exceed 1."""
    lock = threading.Lock()
    live = [0]
    peak = [0]

    def prog(comm):
        with lock:
            live[0] += 1
            peak[0] = max(peak[0], live[0])
        for i in range(200):
            np.arange(float(i % 7 + 3))
        with lock:
            live[0] -= 1
        comm.barrier()
        return comm.shift(comm.rank, 1)

    p = 16
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # many more preemption points
    try:
        out = runner(p, prog, timeout=30.0, **MODES[mode])
    finally:
        sys.setswitchinterval(switch)
    assert out.results == tuple((r - 1) % p for r in range(p))
    assert peak[0] == 1
    assert live[0] == 0


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("p", [2, 16])
def test_missed_polls_yield(runner, mode, p):
    """A sleep-free ``while not req.test()`` loop must let the sender run:
    rank 0 starts the ring and polls for it to come back around."""

    def prog(comm):
        left = (comm.rank - 1) % comm.size
        right = (comm.rank + 1) % comm.size
        if comm.rank == 0:
            comm.send(0, right)
        req = comm.irecv(left)
        while not req.test():
            pass
        if comm.rank != 0:
            comm.send(req.result() + 1, right)
        return req.result()

    out = runner(p, prog, timeout=5.0, **MODES[mode])
    assert out.results[0] == p - 1
    assert out.results[1:] == tuple(range(p - 1))


@pytest.mark.parametrize("mode", sorted(MODES))
def test_ranks_start_in_rank_order(runner, mode):
    order = []

    def prog(comm):
        order.append(comm.rank)  # just before this rank's first metered op
        comm.add_flops(1)
        comm.barrier()

    runner(12, prog, timeout=30.0, **MODES[mode])
    assert order == list(range(12))


@pytest.mark.parametrize(
    "workload, p, n, c",
    [("cannon", 16, 16, None), ("matmul25d", 32, 16, 2)],
)
def test_traced_mailbox_depth_is_reproducible(workload, p, n, c):
    program, args, _label = build_scenario(workload, p, n, c=c)

    def depths():
        out = run_spmd(p, program, *args, trace=True)
        return [(tuple(h.counts), h.sum, h.count) for h in out.mailbox_depths]

    first = depths()
    assert sum(count for _counts, _sum, count in first) > 0
    assert depths() == first
    assert depths() == first


class TestDeadlockDetection:
    def test_mutual_recv_fails_at_once_naming_both_ranks(self, runner):
        def prog(comm):
            comm.recv(1 - comm.rank, tag=7)

        t0 = time.monotonic()
        with pytest.raises(RankFailedError) as info:
            runner(2, prog, timeout=60.0)
        assert time.monotonic() - t0 < 2.0
        failures = info.value.failures
        assert set(failures) == {0, 1}
        for exc in failures.values():
            assert isinstance(exc, DeadlockError)
            text = str(exc)
            assert "deadlock" in text
            assert "rank 0 waits for a message from rank 1 (tag=7)" in text
            assert "rank 1 waits for a message from rank 0 (tag=7)" in text

    def test_collective_waiter_is_named(self, runner):
        def prog(comm):
            if comm.rank == 0:
                comm.recv(1)
            else:
                comm.barrier()

        t0 = time.monotonic()
        with pytest.raises(RankFailedError) as info:
            runner(3, prog, timeout=60.0)
        assert time.monotonic() - t0 < 2.0
        text = str(info.value.failures[0])
        assert "rank 0 waits for a message from rank 1" in text
        assert "rank 1 waits in collective 'barrier'" in text
        assert "rank 2 waits in collective 'barrier'" in text

    def test_peer_returning_early_leaves_a_deadlock(self, runner):
        """The last runnable rank returning while another still waits
        on it is a deadlock too: nothing can ever send that message."""

        def prog(comm):
            if comm.rank == 0:
                return comm.recv(1)
            return None

        with pytest.raises(RankFailedError) as info:
            runner(2, prog, timeout=60.0)
        assert set(info.value.failures) == {0}
        assert "rank 0 waits for a message from rank 1" in str(
            info.value.failures[0]
        )
