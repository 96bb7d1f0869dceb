"""Tests for the event-tracing substrate: EventLog rings, hook coverage,
and the zero-overhead-when-disabled contract."""

import numpy as np
import pytest

from repro.analysis.validation import default_machine
from repro.scenarios import SCENARIOS, build_scenario
from repro.simmpi import DEFAULT_TRACE_CAPACITY, EventLog, run_spmd
from repro.simmpi.pool import SpmdPool


class TestEventLog:
    def test_append_returns_monotonic_seqs(self):
        log = EventLog(0, capacity=8)
        assert [log.append("flops", 0.0, 0.0) for _ in range(3)] == [0, 1, 2]
        assert log.recorded == 3
        assert log.dropped == 0
        assert len(log) == 3

    def test_ring_overwrites_oldest(self):
        log = EventLog(0, capacity=4)
        for i in range(10):
            log.append("flops", float(i), float(i))
        assert log.recorded == 10
        assert log.dropped == 6
        assert len(log) == 4
        evs = log.events()
        assert [e.seq for e in evs] == [6, 7, 8, 9]
        assert evs[0].t0 == 6.0  # chronological after wrap

    def test_find(self):
        log = EventLog(0, capacity=4)
        for i in range(6):
            log.append("send", 0.0, 0.0, peer=i)
        assert log.find(5).peer == 5
        assert log.find(2).peer == 2
        assert log.find(1) is None  # dropped
        assert log.find(99) is None  # never recorded
        assert log.find(-1) is None

    def test_append_fills_each_field_by_name(self):
        # append builds the Event positionally: every keyword must land
        # in the field of the same name
        log = EventLog(3, capacity=4)
        log.span_depth = 2
        fields = dict(
            cost=1.5, words=7, messages=2, flops=9.0, peer=5, tag="t",
            detail="ring", ref=(1, 4), size=6,
        )
        ev = log.find(log.append("send", 0.25, 0.75, **fields))
        assert (ev.seq, ev.rank, ev.kind, ev.t0, ev.t1, ev.depth) == (
            0, 3, "send", 0.25, 0.75, 2,
        )
        assert {key: getattr(ev, key) for key in fields} == fields

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            EventLog(0, capacity=0)

    def test_default_capacity(self):
        assert EventLog(0).capacity == DEFAULT_TRACE_CAPACITY


class TestHookCoverage:
    def test_untraced_run_has_no_logs(self):
        out = run_spmd(2, lambda comm: comm.add_flops(5))
        assert out.event_logs is None
        assert all(r.events_recorded == 0 for r in out.report.ranks)

    def test_p2p_and_flops_events(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(4.0), 1, tag="blk")
            else:
                comm.recv(0, tag="blk")
            comm.add_flops(8.0, label="axpy")

        out = run_spmd(2, prog, trace=True)
        kinds0 = [e.kind for e in out.event_logs[0].events()]
        kinds1 = [e.kind for e in out.event_logs[1].events()]
        assert kinds0 == ["send", "flops"]
        assert kinds1 == ["recv", "flops"]
        send = out.event_logs[0].events()[0]
        recv = out.event_logs[1].events()[0]
        assert send.words == 4 and send.messages == 1 and send.peer == 1
        assert send.tag == "blk"
        assert recv.words == 4 and recv.peer == 0
        assert recv.ref == (0, send.seq)
        flop = out.event_logs[0].events()[1]
        assert flop.flops == 8.0 and flop.tag == "axpy"

    def test_alloc_release_events(self):
        def prog(comm):
            comm.allocate(100)
            comm.release()

        out = run_spmd(1, prog, trace=True)
        evs = out.event_logs[0].events()
        assert [e.kind for e in evs] == ["alloc", "release"]
        assert evs[0].words == 100 and evs[1].words == 100

    def test_collective_span_records_deltas(self):
        def prog(comm):
            comm.allreduce(np.ones(4))

        out = run_spmd(4, prog, trace=True)
        for rank in range(4):
            spans = [
                e for e in out.event_logs[rank].events() if e.kind == "coll"
            ]
            top = [e for e in spans if e.depth == 0]
            assert len(top) == 1 and top[0].tag == "allreduce"
            # allreduce = reduce + bcast: nested spans at depth >= 1
            assert {e.tag for e in spans if e.depth >= 1} <= {"reduce", "bcast"}
            assert any(e.depth >= 1 for e in spans)
        # the root's top-level span carries the traffic the collective sent
        root_span = [
            e
            for e in out.event_logs[0].events()
            if e.kind == "coll" and e.depth == 0
        ][0]
        assert root_span.words > 0 and root_span.messages > 0

    def test_span_words_match_counters(self):
        def prog(comm):
            comm.bcast(np.arange(8.0), root=0)

        out = run_spmd(4, prog, trace=True)
        for rank in range(4):
            top = [
                e
                for e in out.event_logs[rank].events()
                if e.kind == "coll" and e.depth == 0
            ]
            assert len(top) == 1
            assert top[0].words == out.report.ranks[rank].words_sent
            assert top[0].messages == out.report.ranks[rank].messages_sent

    def test_event_tallies_in_snapshot(self):
        out = run_spmd(
            2, lambda comm: comm.add_flops(1), trace=True, trace_capacity=4
        )
        assert all(r.events_recorded == 1 for r in out.report.ranks)
        assert all(r.events_dropped == 0 for r in out.report.ranks)

    def test_ring_overflow_through_engine(self):
        def prog(comm):
            for _ in range(10):
                comm.add_flops(1)

        out = run_spmd(1, prog, trace=True, trace_capacity=4)
        assert out.report.ranks[0].events_recorded == 10
        assert out.report.ranks[0].events_dropped == 6

    def test_label_rendering(self):
        def prog(comm):
            comm.shift(np.ones(2), 1)
            comm.add_flops(1.0, label="gemm")
            comm.bcast(np.ones(2), root=0)

        out = run_spmd(2, prog, trace=True)
        labels = {e.label() for e in out.event_logs[0].events()}
        assert "send->1" in labels
        assert "recv<-1" in labels
        assert "gemm" in labels
        assert "bcast[binomial]" in labels


class TestCountsUnaffected:
    def test_traced_counts_bitidentical(self, machine):
        def prog(comm):
            comm.allocate(16)
            block = comm.shift(np.arange(16.0), 1)
            comm.add_flops(32.0)
            total = comm.allreduce(float(block[0]))
            comm.release()
            return total

        plain = run_spmd(4, prog, machine=machine)
        traced = run_spmd(4, prog, machine=machine, trace=True)
        assert traced.report.counts_signature() == plain.report.counts_signature()
        assert traced.results == plain.results
        assert [r.vtime for r in traced.report.ranks] == [
            r.vtime for r in plain.report.ranks
        ]

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_scenario_traced_equals_untraced(self, name):
        # Tracing observes and never meters: counts and per-rank clocks
        # are bit-identical with the event logs on and off.
        scenario = SCENARIOS[name]
        program, args, _ = build_scenario(name, scenario.p, scenario.n)
        runs = [
            run_spmd(scenario.p, program, *args, machine=default_machine(), trace=trace)
            for trace in (False, True)
        ]
        plain, traced = (out.report for out in runs)
        assert traced.counts_signature() == plain.counts_signature()
        assert [r.vtime for r in traced.ranks] == [r.vtime for r in plain.ranks]
        assert plain.simulated_time > 0.0
        assert runs[1].event_logs is not None and runs[0].event_logs is None

    def test_pool_traced_counts_bitidentical(self):
        def prog(comm):
            return comm.allgather(comm.rank)

        with SpmdPool() as pool:
            plain = pool.run(4, prog)
            traced = pool.run(4, prog, trace=True)
        assert traced.report.counts_signature() == plain.report.counts_signature()
        assert traced.event_logs is not None
        assert plain.event_logs is None
