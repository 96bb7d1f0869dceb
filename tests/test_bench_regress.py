"""Tests for the benchmark regression gate's table (no benchmark runs).

``benchmarks/bench_regress.py`` is a script, not a package module, so it
is loaded by path. Structural checks run against synthetic baselines in
a temporary directory; fresh checks run against a stubbed ``run_bench``.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_regress.py"

#: every check of a clean --smoke run, in report order
EXPECTED_CHECKS = [
    "BENCH_simmpi.json:schema",
    "BENCH_simmpi.json:counts_identical",
    "BENCH_trace_overhead.json:schema",
    "BENCH_trace_overhead.json:counts_identical",
    "BENCH_power_overhead.json:schema",
    "BENCH_power_overhead.json:counts_identical",
    "BENCH_power_overhead.json:vtimes_identical",
    "simmpi:counts_identical(fresh)",
    "simmpi:speedup",
    "trace:counts_identical(fresh)",
    "trace:overhead_ratio",
    "power:counts_identical(fresh)",
    "power:vtimes_identical(fresh)",
    "power:analysis_ratio",
]


@pytest.fixture
def gate(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_regress", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_regress", module)
    spec.loader.exec_module(module)
    return module


def _baselines(root: Path, **overrides) -> None:
    """Write the three baselines, good unless ``overrides`` says not."""
    good = {
        "BENCH_simmpi.json": {
            "schema": "bench_simmpi_perf/v2",
            "speedup": {"16": 6.0, "64": 9.0},
            "counts_identical": True,
        },
        "BENCH_trace_overhead.json": {
            "schema": "bench_trace_overhead/v1",
            "overhead_ratio": {"8": 1.6, "32": 1.7},
            "counts_identical": True,
        },
        "BENCH_power_overhead.json": {
            "schema": "bench_power_overhead/v1",
            "analysis_ratio": {"8": 1.1, "32": 1.2},
            "counts_identical": True,
            "vtimes_identical": True,
        },
    }
    for name, data in good.items():
        data = overrides.get(name, data)
        if data is not None:
            (root / name).write_text(json.dumps(data))


def _fresh(**overrides):
    """A stub runner returning passing fresh outputs per bench module."""
    good = {
        "bench_simmpi_perf": {"speedup": {"8": 2.6}, "counts_identical": True},
        "bench_trace_overhead": {
            "overhead_ratio": {"8": 1.6},
            "counts_identical": True,
        },
        "bench_power_overhead": {
            "analysis_ratio": {"8": 1.06},
            "counts_identical": True,
            "vtimes_identical": True,
        },
    }
    good.update(overrides)
    return lambda row, smoke: good[row.module]


def _failed(checks) -> list[str]:
    return [c["name"] for c in checks if not c["ok"]]


class TestStructural:
    def test_committed_baselines_pass(self, gate):
        checks = []
        gate.run_gates(SCRIPT.parent.parent, True, True, checks)
        assert [c["name"] for c in checks] == EXPECTED_CHECKS[:7]
        assert not _failed(checks)

    def test_missing_baseline_fails_and_skips_its_run(self, gate, tmp_path, monkeypatch):
        _baselines(tmp_path, **{"BENCH_trace_overhead.json": None})
        monkeypatch.setattr(gate, "run_bench", _fresh())
        checks = []
        fresh = gate.run_gates(tmp_path, True, False, checks)
        assert _failed(checks) == ["BENCH_trace_overhead.json:exists"]
        assert "BENCH_trace_overhead.json" not in fresh
        assert not any(c["name"].startswith("trace:") for c in checks)

    def test_unparseable_baseline_fails(self, gate, tmp_path):
        _baselines(tmp_path)
        (tmp_path / "BENCH_simmpi.json").write_text("{ not json")
        checks = []
        gate.run_gates(tmp_path, True, True, checks)
        assert _failed(checks) == ["BENCH_simmpi.json:parses"]

    def test_wrong_schema_fails(self, gate, tmp_path):
        _baselines(
            tmp_path,
            **{"BENCH_simmpi.json": {"schema": "v0", "counts_identical": True}},
        )
        checks = []
        gate.run_gates(tmp_path, True, True, checks)
        assert _failed(checks) == ["BENCH_simmpi.json:schema"]

    def test_false_baseline_flag_fails(self, gate, tmp_path):
        _baselines(
            tmp_path,
            **{
                "BENCH_power_overhead.json": {
                    "schema": "bench_power_overhead/v1",
                    "analysis_ratio": {"8": 1.1},
                    "counts_identical": True,
                    "vtimes_identical": False,
                }
            },
        )
        checks = []
        gate.run_gates(tmp_path, True, True, checks)
        assert _failed(checks) == ["BENCH_power_overhead.json:vtimes_identical"]


class TestFresh:
    def test_clean_run_reports_every_check(self, gate, tmp_path, monkeypatch):
        _baselines(tmp_path)
        monkeypatch.setattr(gate, "run_bench", _fresh())
        checks = []
        fresh = gate.run_gates(tmp_path, True, False, checks)
        assert [c["name"] for c in checks] == EXPECTED_CHECKS
        assert not _failed(checks)
        assert set(fresh) == {g.file for g in gate.GATES}

    def test_bounds(self, gate):
        bounds = {
            g.label: (g.bound, g.abs, g.frac, g.fresh_reduce, g.baseline_reduce)
            for g in gate.GATES
        }
        assert bounds == {
            "simmpi": ("floor", 1.2, 0.12, gate.smallest, gate.at_smallest_p),
            "trace": ("ceil", 2.5, 2.5, gate.largest, gate.largest),
            "power": ("ceil", 2.0, 2.5, gate.largest, gate.largest),
        }

    def test_speedup_below_floor_fails(self, gate, tmp_path, monkeypatch):
        # floor = max(1.2, 0.12 * 6.0 at the smallest baseline p) = 1.2;
        # the fresh value is the smallest p's, so one slow size fails.
        _baselines(tmp_path)
        slow = {"speedup": {"8": 1.19, "16": 3.0}, "counts_identical": True}
        monkeypatch.setattr(gate, "run_bench", _fresh(bench_simmpi_perf=slow))
        checks = []
        gate.run_gates(tmp_path, True, False, checks)
        assert _failed(checks) == ["simmpi:speedup"]
        detail = next(c["detail"] for c in checks if c["name"] == "simmpi:speedup")
        assert detail == "fresh=1.19x floor=1.20x (baseline p=16: 6.00x)"

    def test_floor_scales_with_the_baseline(self, gate, tmp_path, monkeypatch):
        _baselines(
            tmp_path,
            **{
                "BENCH_simmpi.json": {
                    "schema": "bench_simmpi_perf/v2",
                    "speedup": {"4": 20.0, "16": 1.0},
                    "counts_identical": True,
                }
            },
        )
        fast = {"speedup": {"8": 2.39}, "counts_identical": True}
        monkeypatch.setattr(gate, "run_bench", _fresh(bench_simmpi_perf=fast))
        checks = []
        gate.run_gates(tmp_path, True, False, checks)
        assert _failed(checks) == ["simmpi:speedup"]  # floor 0.12 * 20 = 2.4

    def test_overhead_above_ceil_fails(self, gate, tmp_path, monkeypatch):
        # ceil = max(2.5, 2.5 * 1.7 at the baseline max) = 4.25
        _baselines(tmp_path)
        slow = {"overhead_ratio": {"8": 1.0, "32": 4.3}, "counts_identical": True}
        monkeypatch.setattr(gate, "run_bench", _fresh(bench_trace_overhead=slow))
        checks = []
        gate.run_gates(tmp_path, True, False, checks)
        assert _failed(checks) == ["trace:overhead_ratio"]
        detail = next(
            c["detail"] for c in checks if c["name"] == "trace:overhead_ratio"
        )
        assert detail == "fresh=4.30x ceil=4.25x (baseline max: 1.70x)"

    def test_false_fresh_flag_fails(self, gate, tmp_path, monkeypatch):
        _baselines(tmp_path)
        drifted = {
            "analysis_ratio": {"8": 1.0},
            "counts_identical": True,
            "vtimes_identical": False,
        }
        monkeypatch.setattr(
            gate, "run_bench", _fresh(bench_power_overhead=drifted)
        )
        checks = []
        gate.run_gates(tmp_path, True, False, checks)
        assert _failed(checks) == ["power:vtimes_identical(fresh)"]

    def test_smoke_selects_the_row_config(self, gate, tmp_path, monkeypatch):
        _baselines(tmp_path)
        seen = []
        stub = _fresh()

        def runner(row, smoke):
            seen.append((row.label, smoke))
            return stub(row, smoke)

        monkeypatch.setattr(gate, "run_bench", runner)
        gate.run_gates(tmp_path, False, False, [])
        assert seen == [("simmpi", False), ("trace", False), ("power", False)]


class TestMain:
    def test_structural_only_report(self, gate, tmp_path, monkeypatch):
        monkeypatch.setattr(gate, "RESULTS_DIR", tmp_path)
        monkeypatch.setattr(sys, "path", list(sys.path))
        out = tmp_path / "report.json"
        assert gate.main(["--structural-only", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "bench_regress/v1"
        assert report["ok"] and report["fresh"] == {}
        assert [c["name"] for c in report["checks"]] == EXPECTED_CHECKS[:7]
        assert (tmp_path / "ledger.jsonl").is_file()
