"""Tests for the scaling observatory: ledger round-trip, quarantine,
model-fit inversion, drift classification and the dashboard."""

import json
import time

import numpy as np
import pytest

from repro.analysis.validation import default_machine
from repro.exceptions import ParameterError
from repro.observatory import (
    DRIFT_TOLERANCES,
    Ledger,
    RunRecord,
    check_sweep,
    diff_against_baseline,
    fit_records,
    inflate_term,
)
from repro.simmpi import run_spmd


def _record(ledger, workload, params, p, program, *args, machine, memory_words=None):
    """Run ``program`` and append its record to ``ledger``."""
    start = time.perf_counter()
    out = run_spmd(p, program, *args, machine=machine)
    return ledger.append(
        RunRecord.from_result(
            out,
            workload=workload,
            params=params,
            machine=machine,
            memory_words=memory_words,
            wall_seconds=time.perf_counter() - start,
        )
    )


def _record_sweep(ledger, n=48, q=6, c_values=(1, 2, 3), machine=None):
    """Record the canonical fixed-tile 2.5D matmul p-sweep (the walk the
    drift tolerance table is calibrated on)."""
    from repro.algorithms.matmul25d import matmul_25d

    machine = machine or default_machine()
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    tile_words = 3 * (n // q) ** 2
    return [
        _record(
            ledger, "matmul25d", {"n": n, "q": q, "c": c}, q * q * c,
            matmul_25d, a, b, c, machine=machine, memory_words=tile_words,
        )
        for c in c_values
    ]


def _diverse_records(ledger):
    """Seven runs across three workloads — enough independent design
    rows to make the 5-constant energy fit well-posed."""
    from repro.algorithms.fft import fft_parallel
    from repro.algorithms.lu import lu_2d

    records = _record_sweep(ledger)
    machine = default_machine()
    rng = np.random.default_rng(1)
    for n, p in ((48, 4), (64, 16)):
        a = rng.standard_normal((n, n))
        records.append(_record(ledger, "lu2d", {"n": n}, p, lu_2d, a, machine=machine))
    for n, p in ((1024, 4), (4096, 8)):
        x = rng.standard_normal(n)
        records.append(
            _record(ledger, "fft", {"n": n}, p, fft_parallel, x, machine=machine)
        )
    return records


class TestLedgerRoundTrip:
    def test_append_query_revives_exact_counts(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        emitted = _record_sweep(ledger, c_values=(1, 2))
        revived = ledger.query(workload="matmul25d")
        assert len(revived) == 2
        for sent, got in zip(emitted, revived):
            assert got.counts_signature() == sent.counts_signature()
            assert got.vtimes == sent.vtimes
            assert got.time_total == sent.time_total
            assert got.energy_total == sent.energy_total
            assert got.machine == sent.machine
            assert got.params == sent.params

    def test_record_carries_provenance(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        (rec,) = _record_sweep(ledger, c_values=(1,))
        assert rec.wall_seconds is not None and rec.wall_seconds > 0
        assert rec.git_sha is None or len(rec.git_sha) == 40
        assert rec.created_at.endswith("Z")
        assert rec.critical_rank is not None

    def test_fit_recovers_constants_to_1e9(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        _diverse_records(ledger)
        fit = fit_records(ledger)
        errors = fit.reference_errors()
        assert errors, "fit found no reference machine"
        for name, err in errors.items():
            assert err <= 1e-9, f"{name}: rel err {err:.3e} > 1e-9"

    def test_fit_json_schema(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        _diverse_records(ledger)
        payload = fit_records(ledger).to_json()
        assert payload["schema"] == "repro_fit/v1"
        assert set(payload["time_constants"]) == {
            "gamma_t", "beta_t", "alpha_t",
        }
        assert len(payload["energy_constants"]) == 5

    def test_bench_records_coexist(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        _record_sweep(ledger, c_values=(1,))
        ledger.append(
            RunRecord.bench("bench_x", extra={"speedup": {"8": 2.0}})
        )
        assert len(ledger.query(kind="run")) == 1
        assert len(ledger.query(kind="bench")) == 1
        # bench records carry no counts and never enter the fit
        fit = fit_records(ledger.query(kind="run"))
        assert fit.n_records == 1


class TestQuarantine:
    def test_corrupt_lines_are_quarantined_not_fatal(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        _record_sweep(ledger, c_values=(1,))
        with ledger.path.open("a", encoding="utf-8") as fh:
            fh.write("this is not json\n")
            fh.write('{"schema": "wrong/v9", "workload": "x", "p": 1}\n')
            fh.write(
                json.dumps(
                    {"schema": "repro_run/v1", "workload": "", "p": 1}
                )
                + "\n"
            )
        _record_sweep(ledger, c_values=(2,))
        records = ledger.records()
        assert len(records) == 2  # both good lines survive
        quarantined = ledger.quarantined()
        assert len(quarantined) >= 3
        reasons = " ".join(q["reason"] for q in quarantined)
        assert "invalid JSON" in reasons
        assert "schema" in reasons
        assert all("line" in q and "content" in q for q in quarantined)

    def test_quarantine_sidecar_location(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        ledger.path.parent.mkdir(parents=True, exist_ok=True)
        ledger.path.write_text("garbage\n")
        assert ledger.records() == []
        assert ledger.quarantine_path.name == "ledger.jsonl.quarantine"
        assert ledger.quarantine_path.is_file()

    def test_malformed_counts_row_rejected(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        ledger.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": "repro_run/v1",
            "workload": "x",
            "p": 1,
            "counts": [[1.0, 2]],  # row must have 5 entries
        }
        ledger.path.write_text(json.dumps(payload) + "\n")
        assert ledger.records() == []
        assert "counts row" in ledger.quarantined()[0]["reason"]


class TestDriftClassifier:
    def test_canonical_sweep_is_perfect(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        records = _record_sweep(ledger)
        verdict = check_sweep(records)
        assert verdict.classification == "perfect"
        assert verdict.ok
        assert all(verdict.in_band)

    def test_alpha_inflated_2x_degrades(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        records = _record_sweep(ledger)
        perturbed = inflate_term(records, "T:alphaS", 2.0)
        verdict = check_sweep(perturbed)
        assert verdict.classification == "degraded"
        worst = {tv.term: tv.classification for tv in verdict.terms}
        assert worst["T:alphaS"] == "degraded"
        # the other terms stay clean: the perturbation is localized
        assert worst["T:gammaF"] == "perfect"

    def test_alpha_inflated_4x_breaks(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        records = _record_sweep(ledger)
        verdict = check_sweep(inflate_term(records, "T:alphaS", 4.0))
        assert verdict.classification == "broken"

    def test_every_term_has_tolerances(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        verdict = check_sweep(_record_sweep(ledger))
        for tv in verdict.terms:
            assert tv.term in DRIFT_TOLERANCES
            tol = DRIFT_TOLERANCES[tv.term]
            assert 0 < tol["perfect"] < tol["degraded"] < 1

    def test_needs_two_distinct_p(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        records = _record_sweep(ledger, c_values=(1,))
        with pytest.raises(ParameterError):
            check_sweep(records)

    def test_uniform_inflation_caught_by_baseline_diff(self, tmp_path):
        """A uniform (all-point) slowdown is invisible to flatness by
        design — the baseline diff is the detector for that mode."""
        import dataclasses

        ledger = Ledger(tmp_path / "ledger.jsonl")
        records = _record_sweep(ledger)
        slowed = [
            dataclasses.replace(
                r,
                time_terms={k: 2 * v for k, v in r.time_terms.items()},
                time_total=2 * r.time_total,
                created_at="2099-01-01T00:00:00.000000Z",
            )
            for r in records
        ]
        assert check_sweep(slowed).classification == "perfect"
        diff = diff_against_baseline(slowed[0], records)
        assert diff is not None and diff.regression
        assert diff.time_ratio == pytest.approx(2.0)

    def test_verdict_json(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        payload = check_sweep(_record_sweep(ledger)).to_json()
        assert payload["schema"] == "repro_drift/v1"
        assert payload["classification"] == "perfect"
        assert len(payload["terms"]) == 8


class TestLedgerPowerFields:
    def test_run_records_carry_average_power(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        (rec,) = _record_sweep(ledger, c_values=(1,))
        assert rec.avg_watts == rec.energy_total / rec.time_total
        # recorded runs are untraced: no event logs, so no P(t) peak
        assert rec.peak_watts is None

    def test_traced_run_carries_peak(self):
        from repro.algorithms.cannon import cannon_matmul
        from repro.analysis.powertrace import PowerTrace

        machine = default_machine()
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8))
        out = run_spmd(4, cannon_matmul, a, a, machine=machine, trace=True)
        rec = RunRecord.from_result(out, "cannon", machine=machine)
        pt = PowerTrace.from_result(out, machine)
        assert rec.peak_watts == pt.peak_watts
        assert rec.avg_watts == pt.average_watts

    def test_round_trip_preserves_power_fields(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        _record_sweep(ledger, c_values=(1, 2))
        for sent, got in zip(ledger.query(workload="matmul25d"),
                             ledger.query(workload="matmul25d")):
            assert got.avg_watts == sent.avg_watts
            assert got.peak_watts == sent.peak_watts

    def test_pre_power_payloads_still_revive(self, tmp_path):
        """Forward compat: ledgers written before the power fields
        existed must keep loading, with both fields None."""
        ledger = Ledger(tmp_path / "ledger.jsonl")
        (rec,) = _record_sweep(ledger, c_values=(1,))
        payload = rec.to_json()
        del payload["avg_watts"]
        del payload["peak_watts"]
        old = RunRecord.from_json(payload)
        assert old.avg_watts is None and old.peak_watts is None
        assert old.counts_signature() == rec.counts_signature()


class TestPowerFlatness:
    def test_canonical_sweep_is_flat(self, tmp_path):
        from repro.observatory import check_power_flatness

        ledger = Ledger(tmp_path / "ledger.jsonl")
        records = _record_sweep(ledger)
        verdict = check_power_flatness(records)
        assert verdict.classification == "perfect"
        (term,) = verdict.terms
        assert term.term == "P:perProc"
        assert len(term.values) == 3
        assert term.spread < DRIFT_TOLERANCES["P:perProc"]["perfect"]

    def test_leakage_regression_bends_the_sweep(self, tmp_path):
        """Inflating the always-on term on the post-baseline points is
        the paper's forbidden failure — additional power per processor
        — and must cross the degraded then broken thresholds."""
        from repro.observatory import check_power_flatness

        ledger = Ledger(tmp_path / "ledger.jsonl")
        machine = default_machine().replace(epsilon_e=1.0)
        records = _record_sweep(ledger, machine=machine)
        assert check_power_flatness(records).classification == "perfect"
        degraded = check_power_flatness(inflate_term(records, "E:epsT", 2.0))
        assert degraded.classification == "degraded"
        broken = check_power_flatness(inflate_term(records, "E:epsT", 4.0))
        assert broken.classification == "broken"

    def test_derived_ratio_cannot_be_inflated(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        records = _record_sweep(ledger, c_values=(1, 2))
        with pytest.raises(ParameterError, match="derived"):
            inflate_term(records, "P:perProc", 2.0)

    def test_needs_two_distinct_p(self, tmp_path):
        from repro.observatory import check_power_flatness

        ledger = Ledger(tmp_path / "ledger.jsonl")
        records = _record_sweep(ledger, c_values=(1,))
        with pytest.raises(ParameterError):
            check_power_flatness(records)


class TestDashboard:
    def test_ascii_report(self, tmp_path):
        from repro.observatory.dashboard import render_report

        ledger = Ledger(tmp_path / "ledger.jsonl")
        _record_sweep(ledger)
        ledger.append(
            RunRecord.bench(
                "bench_simmpi_perf", extra={"speedup": {"8": 2.5}}
            )
        )
        text = render_report(ledger)
        assert "scaling observatory" in text
        assert "matmul25d" in text
        assert "PERFECT" in text

    def test_html_is_self_contained(self, tmp_path):
        from repro.observatory.dashboard import render_html

        ledger = Ledger(tmp_path / "ledger.jsonl")
        _record_sweep(ledger)
        html = render_html(ledger)
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html and "<style>" in html
        assert "http://" not in html and "https://" not in html
        assert "matmul25d" in html

    def test_empty_ledger_report(self, tmp_path):
        from repro.observatory.dashboard import render_html, render_report

        ledger = Ledger(tmp_path / "empty.jsonl")
        assert "0 ledger record" in render_report(ledger)
        assert render_html(ledger).startswith("<!DOCTYPE html>")
