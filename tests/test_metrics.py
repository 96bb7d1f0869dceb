"""Tests for the runtime metrics subsystem (:mod:`repro.metrics`)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    to_json_dict,
    to_prometheus,
)
from repro.scenarios import SCENARIOS, build_scenario
from repro.simmpi import CartComm, SpmdPool, run_spmd


def ring_prog(comm, words: int = 16, rounds: int = 3) -> float:
    block = np.full(words, float(comm.rank), dtype=np.float64)
    total = 0.0
    for _ in range(rounds):
        block = comm.shift(block, 1)
        comm.add_flops(2.0 * words)
        total += float(block[0])
    comm.allreduce(total)
    return total


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("requests_total")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increment(self):
        c = Counter("requests_total")
        with pytest.raises(ParameterError):
            c.inc(-1.0)

    def test_rejects_bad_name(self):
        with pytest.raises(ParameterError):
            MetricsRegistry().counter("bad name!")


class TestGauge:
    def test_set(self):
        g = Gauge("depth")
        g.set(4.5)
        assert g.value == 4.5
        g.set(1.0)
        assert g.value == 1.0


class TestHistogram:
    def test_bucket_edges_are_le_inclusive(self):
        h = Histogram("words", buckets=(1.0, 10.0, 100.0))
        h.observe(1.0)  # exactly on an edge -> le="1" bucket (le semantics)
        h.observe(10.0)
        h.observe(5.0)
        assert h.counts == [1, 2, 0, 0]

    def test_overflow_goes_to_inf_slot(self):
        h = Histogram("words", buckets=(1.0, 10.0))
        h.observe(10.5)
        h.observe(1e9)
        assert h.counts == [0, 0, 2]
        assert h.count == 2

    def test_negative_and_zero_observations(self):
        h = Histogram("words", buckets=(0.0, 10.0))
        h.observe(-5.0)  # below every bound -> first bucket
        h.observe(0.0)
        assert h.counts[0] == 2
        assert h.sum == -5.0

    def test_cumulative_monotone(self):
        h = Histogram("words", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        cum = h.cumulative()
        assert cum == [1, 2, 3, 4]
        assert all(a <= b for a, b in zip(cum, cum[1:]))

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ParameterError):
            Histogram("words", buckets=(2.0, 1.0))
        with pytest.raises(ParameterError):
            Histogram("words", buckets=(1.0, 1.0))

    def test_rejects_empty_or_nonfinite_bounds(self):
        with pytest.raises(ParameterError):
            Histogram("words", buckets=())
        with pytest.raises(ParameterError):
            Histogram("words", buckets=(1.0, float("inf")))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total")
        b = reg.counter("x_total")
        assert a is b

    def test_same_name_different_labels_are_distinct(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", labels={"rank": "0"})
        b = reg.counter("x_total", labels={"rank": "1"})
        assert a is not b
        a.inc()
        assert b.value == 0.0

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ParameterError):
            reg.gauge("x_total")

    def test_label_key_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labels={"rank": "0"})
        with pytest.raises(ParameterError):
            reg.counter("x_total", labels={"worker": "0"})

    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x_total").inc(2.0)
        b.counter("x_total").inc(3.0)
        ha = a.histogram("h", buckets=(1.0, 2.0))
        hb = b.histogram("h", buckets=(1.0, 2.0))
        ha.observe(0.5)
        hb.observe(1.5)
        merged = MetricsRegistry.merged([a, b])
        assert merged.get("x_total").value == 5.0
        assert merged.get("h").counts == [1, 1, 0]

    def test_merge_takes_max_for_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("depth").set(3.0)
        b.gauge("depth").set(7.0)
        merged = MetricsRegistry.merged([b, a])
        assert merged.get("depth").value == 7.0

    def test_merge_rejects_mismatched_histogram_bounds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1.0, 2.0))
        b.histogram("h", buckets=(1.0, 4.0))
        with pytest.raises(ParameterError):
            MetricsRegistry.merged([a, b])


class TestRunMetrics:
    def test_disabled_by_default(self):
        out = run_spmd(2, ring_prog)
        assert out.metrics is None

    def test_counts_bit_identical_on_off(self):
        on = run_spmd(4, ring_prog, trace=True)
        assert on.metrics is not None
        off = run_spmd(4, ring_prog)
        assert on.report.counts_signature() == off.report.counts_signature()

    def test_vtimes_bit_identical_on_off(self, machine):
        on = run_spmd(4, ring_prog, machine=machine, trace=True)
        assert on.metrics is not None
        off = run_spmd(4, ring_prog, machine=machine)
        assert tuple(r.vtime for r in on.report.ranks) == tuple(
            r.vtime for r in off.report.ranks
        )

    def test_derived_once_on_first_read(self):
        out = run_spmd(2, ring_prog, trace=True)
        assert "metrics" not in vars(out)
        assert out.metrics is out.metrics

    def test_send_totals_match_report(self):
        out = run_spmd(4, ring_prog, trace=True)
        reg = out.metrics
        assert reg.get("simmpi_sent_words_total").value == out.report.total_words
        assert (
            reg.get("simmpi_sent_messages_total").value
            == out.report.total_messages
        )

    def test_collectives_counted_at_depth_zero_only(self):
        # allreduce is implemented as reduce+bcast; only the outer span
        # must be recorded, once per rank.
        def prog(comm):
            comm.allreduce(float(comm.rank))
            return None

        out = run_spmd(4, prog, trace=True)
        counted = {
            (m.labels[0][1], m.value)
            for m in out.metrics.metrics()
            if m.name == "simmpi_collectives_total"
        }
        assert counted == {("allreduce", 4.0)}

    def test_fanout_on_subcommunicators(self):
        # Two bcasts on each 2-rank row of a 2x2 grid, then one world
        # allreduce (whose nested bcast is depth 1). Fan-out is the
        # communicator's size, not the world's.
        def prog(comm):
            row = CartComm(comm, (2, 2)).axis(1).comm
            for _ in range(2):
                row.bcast(float(comm.rank), root=0)
            comm.allreduce(1.0)
            return row.size

        out = run_spmd(4, prog, trace=True)
        assert out.results == (2, 2, 2, 2)
        reg = out.metrics
        fanout = reg.get("simmpi_collective_fanout")
        le = dict(zip(fanout.bounds, fanout.counts))
        assert le[2.0] == 8  # 4 ranks x 2 row bcasts, 2 each
        assert le[4.0] == 4  # 4 ranks x 1 world allreduce
        assert (fanout.count, fanout.sum) == (12, 8 * 2 + 4 * 4)
        assert reg.get("simmpi_collectives_total", {"collective": "bcast"}).value == 8
        assert (
            reg.get("simmpi_collectives_total", {"collective": "allreduce"}).value
            == 4
        )
        assert reg.get("simmpi_collectives_total", {"collective": "reduce"}) is None

    def test_mailbox_depth_observed(self):
        out = run_spmd(4, ring_prog, trace=True)
        h = out.metrics.get("simmpi_mailbox_depth")
        assert h.count > 0

    def test_dropped_events_surfaced(self):
        out = run_spmd(2, ring_prog, trace=True, trace_capacity=4)
        reg = out.metrics
        dropped = reg.get("simmpi_trace_events_dropped_total").value
        assert dropped == sum(log.dropped for log in out.event_logs)
        assert dropped > 0
        # The send and collective families fold only the retained events.
        retained_sends = sum(
            ev.kind == "send" for log in out.event_logs for ev in log.events()
        )
        assert reg.get("simmpi_sends_total").value == retained_sends
        assert reg.get("simmpi_sent_words_total").value < out.report.total_words
        assert reg.get("simmpi_trace_ring_occupancy_ratio").value == 1.0


class TestScenarioMetrics:
    @pytest.mark.parametrize("workload", sorted(SCENARIOS))
    def test_totals_and_mailbox_depth(self, workload):
        p, n = SCENARIOS[workload].p, SCENARIOS[workload].n
        program, args, _ = build_scenario(workload, p, n)
        out = run_spmd(p, program, *args, trace=True)
        reg = out.metrics
        assert reg.get("simmpi_sent_words_total").value == out.report.total_words
        assert (
            reg.get("simmpi_sent_messages_total").value
            == out.report.total_messages
        )
        # Every send is a deposit; communicator set-up adds unmetered ones.
        sends = reg.get("simmpi_sends_total").value
        assert reg.get("simmpi_mailbox_depth").count >= sends


class TestPoolReuse:
    def test_fresh_registry_per_run(self):
        """Worker reuse must not leak per-run metric state across runs."""
        with SpmdPool() as pool:
            first = pool.run(4, ring_prog, trace=True)
            second = pool.run(4, ring_prog, trace=True)
        a = first.metrics.get("simmpi_sent_words_total").value
        b = second.metrics.get("simmpi_sent_words_total").value
        assert a == b  # identical workload -> identical (not doubled) totals

    def test_metrics_off_run_between_metered_runs(self):
        with SpmdPool() as pool:
            on = pool.run(4, ring_prog, trace=True)
            off = pool.run(4, ring_prog)
            again = pool.run(4, ring_prog, trace=True)
        assert off.metrics is None
        assert (
            on.metrics.get("simmpi_sent_words_total").value
            == again.metrics.get("simmpi_sent_words_total").value
        )


class TestExport:
    @pytest.fixture
    def registry(self):
        reg = MetricsRegistry()
        reg.counter(
            "x_total", labels={"kind": "a"}, help="Things."
        ).inc(2.0)
        reg.gauge("depth", help="Depth.").set(1.5)
        h = reg.histogram("words", buckets=(1.0, 4.0), help="Words.")
        h.observe(0.5)
        h.observe(9.0)
        return reg

    def test_prometheus_format(self, registry):
        text = to_prometheus(registry)
        assert "# HELP x_total Things." in text
        assert "# TYPE x_total counter" in text
        assert 'x_total{kind="a"} 2' in text
        assert "# TYPE depth gauge" in text
        assert "depth 1.5" in text
        assert 'words_bucket{le="1"} 1' in text
        assert 'words_bucket{le="4"} 1' in text
        assert 'words_bucket{le="+Inf"} 2' in text
        assert "words_sum 9.5" in text
        assert "words_count 2" in text

    def test_prometheus_buckets_cumulative(self, registry):
        text = to_prometheus(registry)
        values = [
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("words_bucket")
        ]
        assert values == sorted(values)

    def test_prometheus_escapes_label_values(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labels={"k": 'a"b\\c\nd'}).inc()
        text = to_prometheus(reg)
        assert '{k="a\\"b\\\\c\\nd"}' in text

    def test_json_round_trips(self, registry):
        payload = to_json_dict(registry)
        again = json.loads(json.dumps(payload))
        assert again["schema"] == "repro_metrics/v1"
        by_name = {m["name"]: m for m in again["metrics"]}
        assert by_name["x_total"]["value"] == 2.0
        assert by_name["words"]["counts"] == [1, 0, 1]

    def test_run_registry_exports(self):
        out = run_spmd(2, ring_prog, trace=True)
        text = to_prometheus(out.metrics)
        assert "simmpi_sent_words_total" in text
        json.dumps(to_json_dict(out.metrics))

    def test_prometheus_escapes_help_text(self):
        # HELP text escapes only backslash and newline (the text-format
        # spec) — double quotes stay literal, unlike label values.
        reg = MetricsRegistry()
        reg.counter("x_total", help='multi\nline "quoted" \\ tail').inc()
        text = to_prometheus(reg)
        assert '# HELP x_total multi\\nline "quoted" \\\\ tail' in text
        assert "\nline" not in text.split("# HELP", 1)[1].splitlines()[0]

    def test_prometheus_nan_renders_as_NaN(self):
        reg = MetricsRegistry()
        reg.gauge("ratio").set(float("nan"))
        text = to_prometheus(reg)
        assert "ratio NaN" in text

    def test_prometheus_help_type_precede_samples(self, registry):
        lines = to_prometheus(registry).splitlines()
        for name in ("x_total", "depth", "words"):
            help_i = lines.index(
                next(x for x in lines if x.startswith(f"# HELP {name}"))
            )
            type_i = lines.index(
                next(x for x in lines if x.startswith(f"# TYPE {name}"))
            )
            sample_i = min(
                i
                for i, x in enumerate(lines)
                if x.startswith(name) and not x.startswith("#")
            )
            assert help_i < type_i < sample_i

    def test_record_snapshot_shape(self, registry):
        from repro.metrics.export import to_record_snapshot

        snap = to_record_snapshot(registry)
        assert snap['x_total{kind="a"}'] == 2.0
        assert snap["depth"] == 1.5
        assert snap["words"] == {"sum": 9.5, "count": 2}
        json.dumps(snap)  # must be JSON-serializable as-is

    def test_record_snapshot_sorts_labels(self):
        from repro.metrics.export import to_record_snapshot

        reg = MetricsRegistry()
        reg.counter("x_total", labels={"b": "2", "a": "1"}).inc(3.0)
        snap = to_record_snapshot(reg)
        assert list(snap) == ['x_total{a="1",b="2"}']
