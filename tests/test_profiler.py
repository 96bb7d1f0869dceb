"""Tests for the model-term attribution profiler."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.profiler import (
    ENERGY_TERM_KEYS,
    TIME_TERM_KEYS,
    ModelProfile,
    profile_strong_scaling_matmul,
    render_term_sweep,
)
from repro.exceptions import ParameterError
from repro.scenarios import SCENARIOS, build_scenario
from repro.simmpi import run_spmd


def ring_prog(comm, words: int = 8, rounds: int = 2) -> float:
    block = np.full(words, float(comm.rank), dtype=np.float64)
    total = 0.0
    for _ in range(rounds):
        block = comm.shift(block, 1)
        comm.add_flops(2.0 * words, label="fold")
        total += float(block[0])
    comm.allreduce(total)
    return total


class TestBitExactness:
    """The tentpole contract: term sums replay the model evaluation."""

    @pytest.mark.parametrize("workload", sorted(SCENARIOS))
    def test_terms_reproduce_model_totals(self, workload, machine):
        p, n = SCENARIOS[workload].p, SCENARIOS[workload].n
        program, prog_args, label = build_scenario(workload, p, n)
        out = run_spmd(p, program, *prog_args, trace=True)
        prof = ModelProfile.from_result(out, machine, label=label)
        # Exact equality, not approx: the profiler must be a view of
        # the breakdowns, never a re-derivation that could drift.
        assert (
            sum(prof.time_terms.values())
            == out.report.estimate_time(machine).total
        )
        assert (
            sum(prof.energy_terms.values())
            == out.report.estimate_energy(machine).total
        )

    def test_term_key_order_matches_breakdown_sum_order(self, machine):
        out = run_spmd(4, ring_prog)
        prof = ModelProfile.from_result(out, machine)
        assert tuple(prof.time_terms) == TIME_TERM_KEYS
        assert tuple(prof.energy_terms) == ENERGY_TERM_KEYS

    def test_critical_rank_bounded_by_run_total(self, machine):
        out = run_spmd(4, ring_prog)
        prof = ModelProfile.from_result(out, machine)
        # The run breakdown takes per-term maxima, which can come from
        # different ranks — the critical rank never exceeds it.
        crit = sum(prof.rank_terms(prof.critical_rank).values())
        assert crit <= prof.time.total * (1 + 1e-12)
        assert 0 <= prof.critical_rank < prof.size


def _three_pass(report, machine, memory_words=None):
    """The profile's pricing as three separate Eq. (1) evaluations:
    estimate_time, estimate_energy's default T, and the critical rank."""
    if memory_words is None:
        measured = report.max_mem_peak
        memory_words = measured if measured > 0 else machine.memory_words
    return (
        report.estimate_time(machine),
        report.estimate_energy(machine, memory_words=memory_words),
        max(range(report.size), key=lambda r: report.rank_time(machine, r).total),
    )


class TestSinglePassPricing:
    """from_report prices every rank once; the result must equal the
    three-pass evaluation bit for bit, ties included."""

    @pytest.mark.parametrize("workload", sorted(SCENARIOS))
    @pytest.mark.parametrize("memory_words", [None, 12345.0])
    def test_equals_three_pass_on_every_scenario(
        self, workload, memory_words, machine
    ):
        p, n = SCENARIOS[workload].p, SCENARIOS[workload].n
        program, prog_args, _label = build_scenario(workload, p, n)
        report = run_spmd(p, program, *prog_args).report
        prof = ModelProfile.from_report(report, machine, memory_words=memory_words)
        time, energy, critical = _three_pass(report, machine, memory_words)
        assert prof.time == time
        assert prof.energy == energy
        assert prof.critical_rank == critical

    def test_ties_pick_the_first_slowest_rank(self, machine):
        def prog(comm):
            if comm.rank in (1, 3):
                comm.add_flops(1000.0)

        report = run_spmd(4, prog).report
        prof = ModelProfile.from_report(report, machine)
        assert prof.critical_rank == 1
        assert (prof.time, prof.energy, prof.critical_rank) == _three_pass(
            report, machine
        )


class TestPhases:
    def test_phase_rows_present_and_priced(self, machine):
        out = run_spmd(4, ring_prog, trace=True)
        prof = ModelProfile.from_result(out, machine)
        assert prof.phases is not None
        rows = {ph.name: ph for ph in prof.phases}
        assert {"p2p-send", "allreduce", "fold"} <= set(rows)
        send = rows["p2p-send"]
        assert send.words > 0 and send.messages > 0
        assert send.time_terms["betaW"] == machine.beta_t * send.words
        fold = rows["fold"]
        assert fold.flops > 0
        assert fold.time_terms["gammaF"] == machine.gamma_t * fold.flops

    def test_p2p_wait_not_double_counted(self, machine):
        out = run_spmd(4, ring_prog, trace=True)
        prof = ModelProfile.from_result(out, machine)
        rows = {ph.name: ph for ph in prof.phases}
        if "p2p-wait" in rows:  # present unless no recv stalled at depth 0
            wait = rows["p2p-wait"]
            # Received words are already priced on the send row.
            assert wait.words == 0.0 and wait.messages == 0.0
            assert wait.time_terms["betaW"] == 0.0
            assert wait.time_terms["alphaS"] == 0.0

    def test_untraced_run_has_no_phases(self, machine):
        out = run_spmd(2, ring_prog)
        prof = ModelProfile.from_result(out, machine)
        assert prof.phases is None
        with pytest.raises(ParameterError):
            prof.render_phases()

    def test_dropped_events_flagged(self, machine):
        out = run_spmd(2, ring_prog, trace=True, trace_capacity=4)
        with pytest.warns(RuntimeWarning, match="dropped"):
            prof = ModelProfile.from_result(out, machine)
        assert prof.dropped_events > 0
        assert "warning" in prof.render_phases()

    def test_timeline_warns_and_reports_drops_per_rank(self):
        out = run_spmd(2, ring_prog, trace=True, trace_capacity=4)
        with pytest.warns(RuntimeWarning, match="dropped"):
            tl = out.timeline()
        by_rank = tl.dropped_by_rank()
        assert by_rank and all(v > 0 for v in by_rank.values())
        assert sum(by_rank.values()) == tl.dropped


class TestExportAndRender:
    def test_to_json_schema_and_round_trip(self, machine):
        out = run_spmd(4, ring_prog, trace=True)
        prof = ModelProfile.from_result(out, machine, label="ring")
        payload = json.loads(json.dumps(prof.to_json()))
        assert payload["schema"] == "repro_profile/v1"
        assert payload["label"] == "ring"
        assert payload["p"] == 4
        assert len(payload["per_rank"]) == 4
        assert payload["time"]["total"] == sum(
            payload["time"]["terms"].values()
        )
        assert payload["energy"]["total"] == sum(
            payload["energy"]["terms"].values()
        )
        assert payload["phases"] is not None

    def test_untraced_json_has_null_phases(self, machine):
        out = run_spmd(2, ring_prog)
        payload = ModelProfile.from_result(out, machine).to_json()
        assert payload["phases"] is None

    def test_render_sections(self, machine):
        out = run_spmd(4, ring_prog, trace=True)
        prof = ModelProfile.from_result(out, machine, label="ring")
        text = prof.render(width=32)
        assert "model profile: ring on p=4" in text
        assert "Eq. (1) time per term" in text
        assert "Eq. (2) energy per term" in text
        assert f"critical rank: {prof.critical_rank}" in text
        assert f"*rank {prof.critical_rank}" in text
        assert "phase" in text  # the traced phase table rides along


class TestStrongScalingSweep:
    """Per-term face of the paper's headline theorem (fixed tiles)."""

    @pytest.fixture(scope="class")
    def sweep(self):
        return profile_strong_scaling_matmul(96, q=6, c_values=(1, 2, 3))

    def test_p_grows_with_c(self, sweep):
        assert [prof.size for prof in sweep] == [36, 72, 108]

    def test_time_compute_term_scales_exactly_1_over_c(self, sweep):
        tt = [prof.time_terms["gammaF"] for prof in sweep]
        # Work divides exactly across the c replicas, so the critical
        # rank's flop count — and gamma_t times it — is exactly 1/c.
        assert tt[0] == 2 * tt[1]
        assert tt[0] == 3 * tt[2]

    def test_time_bandwidth_term_falls(self, sweep):
        bw = [prof.time_terms["betaW"] for prof in sweep]
        # Measured: 0.711x at c=2, 0.619x at c=3 (the 2.5D bcast/reduce
        # constants keep it above the ideal 1/c).
        assert bw[1] < 0.78 * bw[0]
        assert bw[2] < 0.68 * bw[0]

    def test_time_latency_term_subdominant(self, sweep):
        for prof in sweep:
            assert prof.time_terms["alphaS"] < 0.1 * prof.time.total

    def test_time_total_strong_scales(self, sweep):
        t = [prof.time.total for prof in sweep]
        assert t[1] < 0.70 * t[0]
        assert t[2] < 0.55 * t[0]

    def test_energy_compute_term_exactly_flat(self, sweep):
        et = [prof.energy_terms["gammaF"] for prof in sweep]
        assert et[0] == et[1] == et[2]  # total flops independent of c

    def test_energy_terms_bounded(self, sweep):
        eb = [prof.energy_terms["betaW"] for prof in sweep]
        em = [prof.energy_terms["deltaMT"] for prof in sweep]
        # Measured: betaW 1.36x/1.64x, deltaMT 1.18x/1.38x — bounded
        # growth from the replication collectives, not runaway cost.
        assert eb[1] < 1.5 * eb[0] and eb[2] < 1.8 * eb[0]
        assert em[1] < 1.35 * em[0] and em[2] < 1.55 * em[0]

    def test_energy_total_roughly_flat(self, sweep):
        e = [prof.energy.total for prof in sweep]
        for val in e[1:]:
            assert abs(val - e[0]) <= 0.35 * e[0]

    def test_memory_words_fixed_tiles(self, sweep):
        assert len({prof.memory_words for prof in sweep}) == 1
        assert sweep[0].memory_words == 3 * (96 // 6) ** 2

    def test_render_term_sweep_table(self, sweep):
        text = render_term_sweep(sweep)
        assert "T:gammaF" in text and "E:deltaMT" in text
        assert "    36" in text and "   108" in text

    def test_render_term_sweep_rejects_empty(self):
        with pytest.raises(ParameterError):
            render_term_sweep([])

    def test_rejects_c_not_dividing_q(self):
        with pytest.raises(ParameterError):
            profile_strong_scaling_matmul(24, q=6, c_values=(4,))
