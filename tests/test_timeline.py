"""Tests for Timeline/CriticalPath: critical-path exactness, breakdowns,
the Gantt renderer and the Chrome/Perfetto exporter."""

import json
import os

import numpy as np
import pytest

from repro.algorithms.matmul25d import matmul_25d
from repro.analysis import timeline
from repro.analysis.powertrace import PowerTrace
from repro.analysis.timeline import CriticalPath
from repro.analysis.validation import default_machine
from repro.exceptions import ParameterError
from repro.scenarios import SCENARIOS, build_scenario
from repro.simmpi import run_spmd


def two_rank_stall(comm):
    """Rank 0 computes then sends; rank 1 stalls on the recv, then
    computes. The critical path must cross from rank 1 back to rank 0."""
    if comm.rank == 0:
        comm.add_flops(1000.0, label="head")
        comm.send(np.arange(8.0), 1)
    else:
        comm.recv(0)
        comm.add_flops(500.0, label="tail")


def matmul_prog(comm, n, c):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    return matmul_25d(comm, a, b, c=c)


@pytest.fixture
def traced_matmul(machine):
    return run_spmd(8, matmul_prog, 16, 2, machine=machine, trace=True)


class TestTimeline:
    def test_requires_traced_run(self):
        out = run_spmd(2, lambda comm: comm.add_flops(1))
        with pytest.raises(ParameterError):
            out.timeline()

    def test_from_result(self, traced_matmul):
        tl = traced_matmul.timeline()
        assert tl.size == 8
        assert tl.dropped == 0
        assert all(tl.events(r) for r in range(8))

    def test_find_resolves_refs(self, traced_matmul):
        tl = traced_matmul.timeline()
        resolved = 0
        for rank in range(8):
            for ev in tl.events(rank):
                if ev.kind == "recv" and ev.ref is not None:
                    sent = tl.find(*ev.ref)
                    assert sent is not None
                    assert sent.kind == "send"
                    assert sent.peer == rank  # send targeted this rank
                    assert sent.words == ev.words
                    resolved += 1
        assert resolved > 0

    def test_breakdown_depth0_only(self, traced_matmul):
        tl = traced_matmul.timeline()
        b = tl.breakdown()
        assert "bcast" in b and "reduce" in b and "compute" in b
        # top-level spans only: the sends inside bcast/reduce must not
        # appear again as p2p categories beyond Cannon's own shifts
        assert b["compute"]["flops"] == pytest.approx(
            traced_matmul.report.total_flops
        )
        assert b["bcast"]["words"] > 0

    def test_render_breakdown(self, traced_matmul):
        text = traced_matmul.timeline().render_breakdown()
        assert "category" in text and "bcast" in text

    def test_gantt(self, traced_matmul):
        chart = traced_matmul.timeline().gantt(width=40)
        lines = chart.splitlines()
        assert any("rank 0" in ln for ln in lines)
        assert any("rank 7" in ln for ln in lines)
        assert "virtual time" in chart
        assert "=" in chart and "#" in chart

    def test_gantt_requires_machine(self):
        out = run_spmd(2, lambda comm: comm.add_flops(1), trace=True)
        with pytest.raises(ParameterError):
            out.timeline().gantt()


class TestCriticalPath:
    def test_bit_exact_on_25d_matmul(self, traced_matmul):
        cp = traced_matmul.timeline().critical_path()
        # exact equality, not approx: the chain replays the very float
        # additions that produced the finishing rank's clock
        assert cp.total == traced_matmul.report.simulated_time
        assert len(cp) > 0

    def test_bit_exact_across_workloads(self, machine):
        def ring(comm):
            block = np.arange(32.0)
            for step in range(3):
                block = comm.shift(block, 1, tag=step)
                comm.add_flops(64.0)

        for prog in (ring, two_rank_stall):
            out = run_spmd(4 if prog is ring else 2, prog,
                           machine=machine, trace=True)
            cp = out.timeline().critical_path()
            assert cp.total == out.report.simulated_time

    def test_chain_is_chronological_tiling(self, traced_matmul):
        cp = traced_matmul.timeline().critical_path()
        t = 0.0
        for step in cp.steps:
            assert step.event.t0 <= t + 1e-18 or step.seconds == 0.0
            t = max(t, step.event.t1)
        assert t == traced_matmul.report.simulated_time

    def test_stall_jumps_to_sender(self, machine):
        out = run_spmd(2, two_rank_stall, machine=machine, trace=True)
        cp = out.timeline().critical_path()
        chain_ranks = [s.rank for s in cp.steps]
        # path starts on rank 0 (the head compute + send), ends on rank 1
        assert chain_ranks[0] == 0
        assert chain_ranks[-1] == 1
        attr = cp.attribution()
        assert attr["head"] == pytest.approx(machine.gamma_t * 1000.0)
        assert attr["tail"] == pytest.approx(machine.gamma_t * 500.0)
        assert attr["recv"] == 0.0  # stalls carry no cost of their own

    def test_attribution_sums_to_total(self, traced_matmul):
        cp = traced_matmul.timeline().critical_path()
        assert sum(cp.attribution().values()) == pytest.approx(cp.total, rel=1e-12)

    def test_render(self, traced_matmul):
        text = traced_matmul.timeline().critical_path().render()
        assert "critical path" in text
        assert "chain:" in text

    def test_requires_machine(self):
        out = run_spmd(2, lambda comm: comm.add_flops(1), trace=True)
        with pytest.raises(ParameterError):
            out.timeline().critical_path()

    def test_rejects_dropped_history(self, machine):
        def chatty(comm):
            for _ in range(16):
                comm.add_flops(4.0)

        out = run_spmd(1, chatty, machine=machine, trace=True, trace_capacity=4)
        with pytest.raises(ParameterError, match="trace_capacity"):
            out.timeline().critical_path()

    def test_from_timeline_classmethod(self, traced_matmul):
        tl = traced_matmul.timeline()
        assert CriticalPath.from_timeline(tl).total == tl.report.simulated_time


class TestUtilization:
    def test_two_rank_stall_known_fractions(self, machine):
        out = run_spmd(2, two_rank_stall, machine=machine, trace=True)
        util = out.timeline().utilization()
        horizon = out.report.simulated_time
        # rank 0 never waits: head compute + the send, then idle until
        # rank 1 (the finishing rank, which is never idle) catches up
        send_cost = machine.beta_t * 8.0 + machine.alpha_t
        assert util[0]["stall"] == 0.0
        assert util[0]["busy"] * horizon == pytest.approx(
            machine.gamma_t * 1000.0 + send_cost, rel=1e-12
        )
        assert util[1]["busy"] * horizon == pytest.approx(
            machine.gamma_t * 500.0, rel=1e-12
        )
        assert util[1]["stall"] > 0.0
        assert util[1]["idle"] == pytest.approx(0.0, abs=1e-12)

    def test_fractions_sum_to_one(self, traced_matmul):
        util = traced_matmul.timeline().utilization()
        assert set(util) == set(range(8))
        for frac in util.values():
            assert frac["busy"] + frac["stall"] + frac["idle"] == (
                pytest.approx(1.0, rel=1e-9)
            )
            assert all(v >= 0.0 for v in frac.values())

    def test_requires_machine(self):
        out = run_spmd(2, lambda comm: comm.add_flops(1), trace=True)
        with pytest.raises(ParameterError, match="machine"):
            out.timeline().utilization()


class TestChromeTrace:
    def test_structure(self, traced_matmul):
        tl = traced_matmul.timeline()
        doc = tl.to_chrome_trace()
        events = doc["traceEvents"]
        # one named track per rank
        meta = [e for e in events if e["ph"] == "M"]
        assert sorted(e["tid"] for e in meta) == list(range(8))
        assert all(e["name"] == "thread_name" for e in meta)
        complete = [e for e in events if e["ph"] == "X"]
        assert complete
        for e in complete:
            assert e["pid"] == 0
            assert 0 <= e["tid"] < 8
            assert e["ts"] >= 0.0 and e["dur"] >= 0.0
            assert e["name"]

    def test_microsecond_scale(self, traced_matmul):
        tl = traced_matmul.timeline()
        doc = tl.to_chrome_trace()
        max_end = max(
            e["ts"] + e["dur"]
            for e in doc["traceEvents"]
            if e["ph"] == "X"
        )
        assert max_end == pytest.approx(
            traced_matmul.report.simulated_time * 1e6
        )

    def test_flow_events_pair_up(self, traced_matmul):
        events = traced_matmul.timeline().to_chrome_trace()["traceEvents"]
        starts = {e["id"] for e in events if e["ph"] == "s"}
        ends = {e["id"] for e in events if e["ph"] == "f"}
        assert starts and starts == ends
        assert all(
            e["ph"] != "f" or e.get("bp") == "e" for e in events
        )

    def test_flows_can_be_disabled(self, traced_matmul):
        events = traced_matmul.timeline().to_chrome_trace(flows=False)[
            "traceEvents"
        ]
        assert not [e for e in events if e["ph"] in ("s", "f")]

    def test_power_counters_merge_without_touching_tracks(
        self, traced_matmul, machine
    ):
        tl = traced_matmul.timeline()
        pt = PowerTrace.from_result(traced_matmul, machine)
        doc = tl.to_chrome_trace(power=pt)
        events = doc["traceEvents"]
        counters = [e for e in events if e["ph"] == "C"]
        assert counters
        assert {e["name"] for e in counters} >= {
            "machine power [W]",
            "rank 0 power [W]",
        }
        # the counter tracks ride along without disturbing the spans:
        # same thread metadata, same X events, nothing else new
        meta = [e for e in events if e["ph"] == "M"]
        assert sorted(e["tid"] for e in meta) == list(range(8))
        plain = tl.to_chrome_trace()["traceEvents"]
        assert len(events) == len(plain) + len(counters)
        assert not [e for e in plain if e["ph"] == "C"]

    def test_json_round_trip_and_save(self, traced_matmul, tmp_path):
        tl = traced_matmul.timeline()
        path = tmp_path / "trace.json"
        tl.save_chrome_trace(path)
        data = json.loads(path.read_text())
        assert data == tl.to_chrome_trace()
        assert data["traceEvents"] == list(witness_events(tl))


def witness_events(tl, flows=True, power=None):
    """The Perfetto events as dicts, built independently of the
    exporter's text templates and of ``PowerTrace.counter_rows``."""
    for rank in range(tl.size):
        yield {
            "ph": "M",
            "pid": 0,
            "tid": rank,
            "name": "thread_name",
            "args": {"name": f"rank {rank}"},
        }
    for log in tl.logs:
        for ev in log.events():
            args = {
                "seq": ev.seq,
                "kind": ev.kind,
                "cost_s": ev.cost,
                "words": ev.words,
                "messages": ev.messages,
                "flops": ev.flops,
                "depth": ev.depth,
            }
            if ev.peer >= 0:
                args["peer"] = ev.peer
            if ev.detail:
                args["algorithm"] = ev.detail
            if ev.kind in ("alloc", "release"):
                yield {
                    "ph": "i",
                    "s": "t",
                    "pid": 0,
                    "tid": ev.rank,
                    "ts": ev.t0 * 1e6,
                    "name": f"{ev.kind} {ev.words}w",
                    "cat": ev.kind,
                    "args": args,
                }
                continue
            yield {
                "ph": "X",
                "pid": 0,
                "tid": ev.rank,
                "ts": ev.t0 * 1e6,
                "dur": ev.duration * 1e6,
                "name": ev.label(),
                "cat": ev.kind,
                "args": args,
            }
            if flows and ev.kind == "recv" and ev.ref is not None:
                sent = tl.find(*ev.ref)
                if sent is None:
                    continue
                flow_id = f"{ev.ref[0]}.{ev.ref[1]}"
                yield {
                    "ph": "s",
                    "pid": 0,
                    "tid": sent.rank,
                    "ts": sent.t1 * 1e6,
                    "id": flow_id,
                    "name": "msg",
                    "cat": "msg",
                }
                yield {
                    "ph": "f",
                    "bp": "e",
                    "pid": 0,
                    "tid": ev.rank,
                    "ts": ev.t1 * 1e6,
                    "id": flow_id,
                    "name": "msg",
                    "cat": "msg",
                }
    if power is None:
        return
    tracks = [("machine power [W]", power.envelope)]
    tracks += [(f"rank {rt.rank} power [W]", rt.segments) for rt in power.ranks]
    for name, segments in tracks:
        last = None
        for seg in segments:
            if seg.watts != last:
                yield {
                    "ph": "C",
                    "pid": 0,
                    "ts": seg.t0 * 1e6,
                    "name": name,
                    "args": {"watts": seg.watts},
                }
                last = seg.watts
        yield {
            "ph": "C",
            "pid": 0,
            "ts": power.horizon * 1e6,
            "name": name,
            "args": {"watts": 0.0},
        }


def witness_text(tl, flows=True, power=None) -> str:
    """``json.dumps`` of the witness document: the export's bytes."""
    return json.dumps(
        {
            "traceEvents": list(witness_events(tl, flows, power)),
            "displayTimeUnit": "ms",
        }
    )


def assert_export_is_witness(tl, tmp_path, flows=True, power=None) -> str:
    """Export to a file, require its text to equal :func:`witness_text`
    and return it. A mismatch reports the first differing offset, not
    a diff of megabytes."""
    path = tmp_path / "trace.json"
    tl.save_chrome_trace(path, flows=flows, power=power)
    text = path.read_text(encoding="utf-8")
    want = witness_text(tl, flows, power)
    if text != want:
        at = len(os.path.commonprefix([text, want]))
        pytest.fail(
            f"export (flows={flows}, power={power is not None}) differs from "
            f"the witness at offset {at}: {text[at - 60:at + 60]!r} != "
            f"{want[at - 60:at + 60]!r}"
        )
    return text


# sha256 of the CLI's Perfetto exports (58,366 B and 68,275 B). They pin
# the exact bytes users get, so a separator, float-format or ordering
# drift in the writer fails here even when the parsed events agree.
TRACE_MATMUL25D_P8_SHA256 = (
    "c133ad1658e481e720665635201c85d12f1e7dc3f19aef0ebf55757114c1f26c"
)
POWER_MATMUL25D_SHA256 = (
    "69136b29423d11eac8fbe56342cc493440f6b5c7cadd3769ae715dd8a903d402"
)


class TestChromeTraceBytes:
    """``save_chrome_trace`` writes exactly ``json.dumps`` of the
    witness's event dicts, and ``to_chrome_trace`` is that document."""

    @staticmethod
    def _sha256(path) -> str:
        import hashlib

        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_cli_trace_bytes_pinned(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "trace.json"
        assert main(["trace", "matmul25d", "--p", "8", "--out", str(path)]) == 0
        assert path.stat().st_size == 58366
        assert self._sha256(path) == TRACE_MATMUL25D_P8_SHA256

    def test_cli_power_perfetto_bytes_pinned(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "power_trace.json"
        assert main(["power", "matmul25d", "--perfetto-out", str(path)]) == 0
        assert path.stat().st_size == 68275
        assert self._sha256(path) == POWER_MATMUL25D_SHA256

    @pytest.fixture(scope="class")
    def nbody_p32(self):
        machine = default_machine()
        program, args, _ = build_scenario("nbody", 32, 256)
        out = run_spmd(32, program, *args, machine=machine, trace=True)
        return out.timeline(), PowerTrace.from_result(out, machine)

    @pytest.mark.parametrize("flows", [True, False])
    def test_multi_batch_equals_dumps(self, nbody_p32, flows, tmp_path):
        tl, pt = nbody_p32
        events = list(witness_events(tl, flows, pt))
        # several full batches plus a partial one
        assert len(events) > 3 * timeline._EXPORT_BATCH
        assert_export_is_witness(tl, tmp_path, flows, pt)
        assert tl.to_chrome_trace(flows=flows, power=pt)["traceEvents"] == events

    @pytest.mark.parametrize("batch", [1, 7])
    def test_batch_boundaries_equal_dumps(
        self, traced_matmul, machine, batch, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(timeline, "_EXPORT_BATCH", batch)
        tl = traced_matmul.timeline()
        pt = PowerTrace.from_result(traced_matmul, machine)
        assert_export_is_witness(tl, tmp_path, power=pt)

    def test_metadata_only_equals_dumps(self, tmp_path):
        tl = run_spmd(1, lambda comm: None, trace=True).timeline()
        doc = tl.to_chrome_trace()
        assert [e["ph"] for e in doc["traceEvents"]] == ["M"]
        assert_export_is_witness(tl, tmp_path)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_scenario_equals_witness(self, name, tmp_path):
        machine = default_machine()
        scenario = SCENARIOS[name]
        program, args, _ = build_scenario(name, scenario.p, scenario.n)
        out = run_spmd(scenario.p, program, *args, machine=machine, trace=True)
        tl = out.timeline()
        pt = PowerTrace.from_result(out, machine)
        for flows in (True, False):
            for power in (pt, None):
                assert_export_is_witness(tl, tmp_path, flows, power)


def hostile(comm):
    """Strings that need escaping, and flop counts of three types."""
    comm.add_flops(np.float64(1.5e3), label='q"uo\\te \u00e9\u2211')
    comm.add_flops(7, label="int count")
    comm.allocate(3)
    comm.release()
    comm.bcast(np.arange(4.0) if comm.rank == 0 else None, root=0)
    comm.shift(np.arange(2.0), 1)


class TestNumberFormatting:
    """Every number is written as ``json.dumps`` writes it."""

    def test_hostile_program_equals_witness(self, machine, tmp_path):
        out = run_spmd(4, hostile, machine=machine, trace=True)
        tl = out.timeline()
        events = list(witness_events(tl))
        assert any(type(e.get("args", {}).get("flops")) is np.float64 for e in events)
        assert any(type(e.get("args", {}).get("flops")) is int for e in events)
        assert any(e.get("args", {}).get("algorithm") for e in events)
        assert any("\u00e9" in e["name"] for e in events if e["ph"] == "X")
        pt = PowerTrace.from_result(out, machine)
        for flows in (True, False):
            for power in (pt, None):
                assert_export_is_witness(tl, tmp_path, flows, power)
        text = assert_export_is_witness(tl, tmp_path)
        assert "np.float64" not in text
        assert text.isascii()

    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), -float("inf"), np.float64(-0.0), 10**400],
    )
    def test_edge_numbers_equal_witness(self, value, tmp_path):
        tl = run_spmd(1, lambda comm: comm.add_flops(2), trace=True).timeline()
        # appended after the run: the simulator itself refuses some of these
        tl.logs[0].append("flops", 0.0, 0.0, cost=value, flops=value)
        text = assert_export_is_witness(tl, tmp_path)
        assert "nan" not in text and "inf" not in text
        assert len(tl.to_chrome_trace()["traceEvents"]) == 3

    @pytest.mark.parametrize(
        "first, second", [(0.0, -0.0), (-0.0, 0.0), (1, 1.0), (1.0, 1)]
    )
    def test_equal_numbers_keep_their_own_texts(self, first, second, tmp_path):
        """One export formats each plain float once, yet ``0.0 == -0.0``
        and ``1 == 1.0``: every value is still written as its own."""
        tl = run_spmd(1, lambda comm: None, trace=True).timeline()
        log = tl.logs[0]
        for value in (first, second):
            log.append("flops", 0.0, 0.0, cost=value, words=value, flops=value)
            log.append("send", value, value, messages=value, peer=0, tag=value)
        assert_export_is_witness(tl, tmp_path)
        assert len(tl.to_chrome_trace()["traceEvents"]) == 5

    def test_equal_tags_keep_their_own_names(self, tmp_path):
        """Event names are formatted once per (kind, peer, tag, detail),
        but a flops event's name is its tag's ``str``: tags ``1``,
        ``1.0`` and ``True`` are equal keys with three names."""
        tl = run_spmd(1, lambda comm: None, trace=True).timeline()
        for tag in (1, 1.0, True, "gemm", None, "gemm"):
            tl.logs[0].append("flops", 0.0, 1e-6, cost=1e-6, flops=1.0, tag=tag)
        text = assert_export_is_witness(tl, tmp_path)
        for name in ('"1"', '"1.0"', '"True"', '"gemm"', '"compute"'):
            assert f'"name": {name}' in text

    @pytest.mark.parametrize("value", [np.int64(5), True, "5"])
    def test_non_number_is_a_parameter_error(self, value, tmp_path):
        tl = run_spmd(1, lambda comm: None, trace=True).timeline()
        tl.logs[0].append("flops", 0.0, 0.0, flops=value)
        with pytest.raises(ParameterError, match="JSON number"):
            tl.save_chrome_trace(tmp_path / "trace.json")
