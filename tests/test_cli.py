"""Tests for the command-line interface."""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

DATA = Path(__file__).resolve().parent / "data"


def assert_matches_golden(text: str, golden: str) -> None:
    """``--metrics-out`` output equals the committed file byte for byte,
    mailbox-depth samples included: ranks hand off in a fixed FIFO
    order, so a fault-free run deposits in one reproducible order."""
    assert text == (DATA / golden).read_text(encoding="utf-8")


def argument_table(parser: argparse.ArgumentParser) -> dict:
    """Every argument of ``repro`` and of each subcommand: option strings,
    dest, default, choices, nargs, required and help, plus each parser's
    help line, description and epilog (the raw strings, not the rendered
    ``--help`` text, which argparse formats differently across Python
    versions). A subcommand table lists its choices by name."""

    def arguments(p):
        return [
            {
                "option_strings": a.option_strings,
                "dest": a.dest,
                "default": a.default,
                "choices": None if a.choices is None else list(a.choices),
                "nargs": a.nargs,
                "required": a.required,
                "help": a.help,
            }
            for a in p._actions
        ]

    def entry(p, help_line=None):
        return {
            "help": help_line,
            "description": p.description,
            "epilog": p.epilog,
            "arguments": arguments(p),
        }

    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    help_lines = {a.dest: a.help for a in sub._choices_actions}
    table = {"repro": entry(parser)}
    table.update(
        {name: entry(p, help_lines.get(name)) for name, p in sub.choices.items()}
    )
    return table


def argument_golden(table: dict) -> str:
    """``table`` as JSON with one argument per line, for readable diffs."""
    blocks = (
        f"  {json.dumps(name)}: {{\n"
        + "".join(
            f"    {json.dumps(key)}: {json.dumps(entry[key])},\n"
            for key in ("help", "description", "epilog")
        )
        + '    "arguments": [\n'
        + ",\n".join(f"      {json.dumps(arg)}" for arg in entry["arguments"])
        + "\n    ]\n  }"
        for name, entry in table.items()
    )
    return "{\n" + ",\n".join(blocks) + "\n}\n"


class TestParser:
    def test_argument_table_matches_golden(self):
        """Pins every subcommand's arguments so a CLI refactor keeps the
        interface. Regenerate after a deliberate change with
        ``PYTHONPATH=src python tests/test_cli.py``."""
        table = argument_golden(argument_table(build_parser()))
        assert table == (DATA / "cli_arguments.json").read_text()

    def test_all_subcommands_registered(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions if hasattr(a, "choices") and a.choices
        )
        assert set(sub.choices) == {
            "table1",
            "table2",
            "fig3",
            "fig4",
            "fig6",
            "fig7",
            "validate",
            "questions",
            "report",
            "trace",
            "profile",
            "faults",
            "power",
            "observe",
            "conformance",
            "sweep",
        }

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_trace_help_lists_workloads(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["trace", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("matmul25d", "cannon", "summa", "caps", "nbody", "fft"):
            assert name in out


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "core_freq_ghz" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Sandy Bridge" in out and "GFLOPS/W" in out

    def test_fig3(self, capsys):
        assert main(["fig3", "--n", "1000"]) == 0
        out = capsys.readouterr().out
        assert "knees" in out and "classical W*p" in out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "M0" in out and "admissible" in out

    def test_fig6(self, capsys):
        assert main(["fig6", "--generations", "3"]) == 0
        out = capsys.readouterr().out
        assert "gamma_e" in out

    def test_fig7(self, capsys):
        assert main(["fig7", "--generations", "6"]) == 0
        out = capsys.readouterr().out
        assert "75 GFLOPS/W crossed at generation 5.56" in out

    def test_questions(self, capsys):
        assert main(["questions"]) == 0
        out = capsys.readouterr().out
        assert "[1]" in out and "[5]" in out and "GFLOPS/W" in out

    def test_validate(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "matmul25d c=1" in out and "nbody c=1" in out


class TestMeasuredGoldens:
    """The measured experiments' stdout equals the committed files byte
    for byte: counts and virtual clocks are deterministic, so a change
    to how a measurement is planned or run must not move one digit."""

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (["validate"], "validate.txt"),
            (["report", "--quick"], "report_quick.md"),
            (["report"], "report.md"),
            (["profile", "matmul25d", "--sweep"], "profile_sweep_matmul25d.txt"),
            (
                ["profile", "matmul25d", "--sweep", "--json"],
                "profile_sweep_matmul25d.json",
            ),
        ],
    )
    def test_stdout_matches_golden(self, argv, golden, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == (DATA / golden).read_text(
            encoding="utf-8"
        )


class TestTraceCommand:
    def test_trace_matmul25d_writes_perfetto_json(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "trace.json"
        assert main(["trace", "matmul25d", "--p", "8", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out and "T_sim" in out
        data = json.loads(out_path.read_text())
        events = data["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert sorted(e["tid"] for e in meta) == list(range(8))
        complete = [e for e in events if e["ph"] == "X"]
        assert complete
        for e in complete:
            assert {"ts", "dur", "pid", "tid", "name"} <= e.keys()

    def test_trace_nbody_runs(self, capsys):
        assert main(["trace", "nbody", "--p", "2", "--n", "8"]) == 0
        assert "nbody" in capsys.readouterr().out

    def test_trace_rejects_bad_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "nosuch"])

    def test_trace_rejects_invalid_n(self):
        # fft needs a power-of-two signal length
        with pytest.raises(SystemExit) as exc:
            main(["trace", "fft", "--p", "2", "--n", "100"])
        assert "power-of-two" in str(exc.value)

    def test_trace_json_mode(self, capsys):
        import json

        assert main(["trace", "nbody", "--p", "2", "--n", "8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro_trace/v1"
        assert payload["workload"] == "nbody" and payload["p"] == 2
        assert payload["dropped_events"] == 0
        assert payload["critical_path"]["total"] > 0
        assert payload["breakdown"]


class TestProfileCommand:
    def test_profile_human_mode(self, capsys):
        assert main(["profile", "cannon", "--p", "4", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "model profile: cannon" in out
        assert "Eq. (1) time per term" in out
        assert "Eq. (2) energy per term" in out

    def test_profile_json_mode(self, capsys):
        import json

        assert main(["profile", "nbody", "--p", "2", "--n", "8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro_profile/v1"
        assert payload["p"] == 2
        assert payload["time"]["total"] == sum(
            payload["time"]["terms"].values()
        )
        assert payload["phases"]  # profile always traces

    def test_profile_metrics_out(self, capsys, tmp_path):
        prom = tmp_path / "metrics.prom"
        assert main(
            [
                "profile",
                "nbody",
                "--p",
                "2",
                "--n",
                "8",
                "--metrics-out",
                str(prom),
            ]
        ) == 0
        text = prom.read_text()
        assert "# TYPE simmpi_sent_words_total counter" in text
        assert "simmpi_message_words_bucket" in text
        assert_matches_golden(text, "profile_nbody_p2_n8.prom")

    def test_profile_metrics_out_matmul25d(self, capsys, tmp_path):
        prom = tmp_path / "metrics.prom"
        assert main(["profile", "matmul25d", "--metrics-out", str(prom)]) == 0
        assert_matches_golden(prom.read_text(), "profile_matmul25d.prom")

    def test_profile_sweep(self, capsys):
        assert main(["profile", "matmul25d", "--sweep", "--n", "16"]) == 0
        out = capsys.readouterr().out
        assert "per-term strong scaling" in out
        assert "T:gammaF" in out and "E:epsT" in out

    def test_profile_sweep_json(self, capsys):
        import json

        assert (
            main(["profile", "matmul25d", "--sweep", "--n", "16", "--json"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro_profile_sweep/v1"
        assert [pt["p"] for pt in payload["points"]] == [16, 32, 64]

    def test_sweep_rejects_other_workloads(self):
        with pytest.raises(SystemExit):
            main(["profile", "fft", "--sweep"])



class TestPowerCommand:
    def test_power_human_mode(self, capsys):
        assert main(["power", "matmul25d", "--p", "8"]) == 0
        out = capsys.readouterr().out
        assert "machine power over virtual time" in out
        assert "average" in out and "peak" in out
        assert "catalog caps" in out

    def test_power_json_mode(self, capsys):
        import json

        assert main(["power", "nbody", "--p", "2", "--n", "8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro_power/v1"
        assert payload["p"] == 2
        assert len(payload["per_rank"]) == 2
        assert payload["cap_violations"] == []
        assert payload["average_watts"] > 0

    def test_power_cap_violation_exits_3(self, capsys):
        # The default matmul25d run peaks above 1 W, so a 1 W machine
        # cap must produce violation intervals and a nonzero exit.
        with pytest.raises(SystemExit) as exc:
            main(["power", "matmul25d", "--p", "8", "--cap", "1.0"])
        assert exc.value.code == 3
        assert "CAP VIOLATION" in capsys.readouterr().out

    def test_power_perfetto_out_merges_counters(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "power_trace.json"
        assert main(
            [
                "power",
                "matmul25d",
                "--p",
                "8",
                "--perfetto-out",
                str(out_path),
            ]
        ) == 0
        events = json.loads(out_path.read_text())["traceEvents"]
        counters = [e for e in events if e["ph"] == "C"]
        assert counters
        names = {e["name"] for e in counters}
        assert "machine power [W]" in names
        assert any(n.startswith("rank ") for n in names)
        # thread-name metadata is untouched by the counter merge
        meta = [e for e in events if e["ph"] == "M"]
        assert sorted(e["tid"] for e in meta) == list(range(8))

    def test_power_rejects_unknown_scenario(self):
        # argparse choices= guard, same as trace/profile
        with pytest.raises(SystemExit):
            build_parser().parse_args(["power", "nosuch"])



class TestScenarioRegistry:
    """Unknown scenario names and invalid layouts exit nonzero with one
    line naming the registry's valid set or the layout rule."""

    @pytest.mark.parametrize("command", ["trace", "profile", "power"])
    def test_scenario_run_rejects_invalid_p(self, command):
        # p=5 is not q^2 c for any valid (q, c)
        with pytest.raises(SystemExit) as exc:
            main([command, "matmul25d", "--p", "5"])
        assert str(exc.value) == (
            f"repro {command}: p=5 does not factor as q^2 c with c | q "
            "(try p = 4, 8, 16, 32...)"
        )

    def test_faults_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit) as exc:
            main(["faults", "nosuch"])
        msg = str(exc.value)
        assert "matmul25d" in msg and "nosuch" in msg

    def test_faults_rejects_known_but_fault_incapable(self):
        with pytest.raises(SystemExit) as exc:
            main(["faults", "fft"])
        assert "no fault-recovery variant" in str(exc.value)

    def test_observe_rejects_unknown_scenario(self, tmp_path):
        ledger = str(tmp_path / "ledger.jsonl")
        with pytest.raises(SystemExit) as exc:
            main(["observe", "record", "nosuch", "--ledger", ledger])
        msg = str(exc.value)
        assert "valid scenarios" in msg
        for name in ("cannon", "fft", "matmul25d", "nbody"):
            assert name in msg


class TestObserveCommand:
    def test_record_then_fit_and_report(self, capsys, tmp_path):
        ledger = str(tmp_path / "ledger.jsonl")
        assert main(
            ["observe", "record", "cannon", "--ledger", ledger]
        ) == 0
        out = capsys.readouterr().out
        assert "recorded cannon" in out and ledger in out
        assert main(["observe", "fit", "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert "gamma_t" in out and "model fit over 1 records" in out
        assert main(["observe", "report", "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert "scaling observatory" in out and "cannon" in out

    def test_report_html(self, capsys, tmp_path):
        ledger = str(tmp_path / "ledger.jsonl")
        html_out = tmp_path / "dash.html"
        assert main(["observe", "record", "fft", "--ledger", ledger]) == 0
        capsys.readouterr()
        assert main(
            ["observe", "report", "--ledger", ledger, "--html", str(html_out)]
        ) == 0
        html = html_out.read_text()
        assert html.startswith("<!DOCTYPE html>") and "fft" in html

    def test_check_smoke_sweep_is_perfect(self, capsys, tmp_path):
        ledger = str(tmp_path / "ledger.jsonl")
        assert main(["observe", "check", "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert "PERFECT" in out
        assert "p=[36, 72, 108]" in out

    def test_check_inflated_sweep_degrades_and_exits_nonzero(
        self, capsys, tmp_path
    ):
        ledger = str(tmp_path / "ledger.jsonl")
        assert main(["observe", "check", "--ledger", ledger]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "observe",
                    "check",
                    "--ledger",
                    ledger,
                    "--inflate",
                    "T:alphaS=2",
                ]
            )
        assert exc.value.code == 2
        assert "DEGRADED" in capsys.readouterr().out

    def test_check_json_mode(self, capsys, tmp_path):
        import json

        ledger = str(tmp_path / "ledger.jsonl")
        assert main(["observe", "check", "--ledger", ledger, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro_drift/v1"
        assert payload["classification"] == "perfect"

    def test_inflate_rejects_malformed_spec(self, tmp_path):
        ledger = str(tmp_path / "ledger.jsonl")
        with pytest.raises(SystemExit) as exc:
            main(
                ["observe", "check", "--ledger", ledger, "--inflate", "bogus"]
            )
        assert "TERM=FACTOR" in str(exc.value)

    def test_check_reuses_sweep_cache_next_to_ledger(self, capsys, tmp_path):
        # The smoke sweep's cache lives beside the ledger: a second
        # --run-sweep must replay it (dashboard reports the hits).
        ledger = str(tmp_path / "ledger.jsonl")
        assert main(["observe", "check", "--ledger", ledger]) == 0
        capsys.readouterr()
        assert (tmp_path / "sweepcache").is_dir()
        assert main(
            ["observe", "check", "--ledger", ledger, "--run-sweep"]
        ) == 0
        capsys.readouterr()
        assert main(["observe", "report", "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert "sweep cache: 3 replayed, 3 simulated" in out


class TestSweepCommand:
    def _args(self, tmp_path, *extra):
        return [
            "sweep",
            *extra,
            "--n",
            "24",
            "--ledger",
            str(tmp_path / "ledger.jsonl"),
            "--cache-dir",
            str(tmp_path / "cache"),
        ]

    def test_plan_lists_cells_with_cache_status(self, capsys, tmp_path):
        assert main(self._args(tmp_path, "plan")) == 0
        out = capsys.readouterr().out
        assert "3 cell(s)" in out and out.count("miss") == 3
        for p in (36, 72, 108):
            assert f"matmul25d/p{p}" in out

    def test_run_cold_then_warm_hits_cache(self, capsys, tmp_path):
        assert main(self._args(tmp_path, "run", "--workers", "2")) == 0
        out = capsys.readouterr().out
        assert "3 simulated" in out and "0 cached" in out
        assert main(self._args(tmp_path, "run")) == 0
        out = capsys.readouterr().out
        assert "3 cached" in out and "0 simulated" in out
        # plan now reports every cell cached
        assert main(self._args(tmp_path, "plan")) == 0
        assert capsys.readouterr().out.count("cached") == 3

    def test_run_json_payload(self, capsys, tmp_path):
        import json

        assert main(
            self._args(tmp_path, "run", "--workers", "0", "--json")
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro_sweep_outcome/v1"
        assert payload["cells"] == 3 and payload["failed"] == 0
        assert {o["status"] for o in payload["outcomes"]} == {"simulated"}

    def test_run_cold_flag_bypasses_cache(self, capsys, tmp_path):
        assert main(self._args(tmp_path, "run", "--workers", "0")) == 0
        capsys.readouterr()
        assert main(
            self._args(tmp_path, "run", "--workers", "0", "--cold")
        ) == 0
        assert "3 simulated" in capsys.readouterr().out

    def test_gc_drops_stale_entries_on_fingerprint_change(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.sweep.cache import FINGERPRINT_ENV

        monkeypatch.setenv(FINGERPRINT_ENV, "fp-old")
        assert main(self._args(tmp_path, "run", "--workers", "0")) == 0
        capsys.readouterr()
        monkeypatch.setenv(FINGERPRINT_ENV, "fp-new")
        assert main(self._args(tmp_path, "gc")) == 0
        out = capsys.readouterr().out
        assert "removed 3" in out

    def test_gc_all(self, capsys, tmp_path):
        assert main(self._args(tmp_path, "run", "--workers", "0")) == 0
        capsys.readouterr()
        assert main(self._args(tmp_path, "gc", "--all")) == 0
        assert "removed 3" in capsys.readouterr().out

    def test_spec_file_roundtrip(self, capsys, tmp_path):
        import json

        from repro.sweep import SweepSpec

        spec = SweepSpec(workload="fft", n=64, p_values=(2, 4))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_json()))
        assert main(
            self._args(tmp_path, "run", "--workers", "0")
            + ["--spec", str(spec_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "2 cell(s)" in out

    def test_rejects_unreadable_spec(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(self._args(tmp_path, "run") + ["--spec", "/nonexistent.json"])
        assert "cannot read" in str(exc.value)

    def test_rejects_bad_spec_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "wrong/v9"}')
        with pytest.raises(SystemExit) as exc:
            main(self._args(tmp_path, "run") + ["--spec", str(bad)])
        assert "schema" in str(exc.value)

    def test_failed_cell_exits_5(self, capsys, tmp_path, monkeypatch):
        import json

        from repro.exceptions import SimulationError
        from repro.sweep import SweepSpec, runner

        # A bad layout no longer plans, so the cell fails while it runs.
        def broken(cell):
            raise SimulationError("cell broke")

        monkeypatch.setattr(runner, "build_cell_program", broken)
        spec = SweepSpec(workload="fft", n=64, p_values=(2,))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_json()))
        with pytest.raises(SystemExit) as exc:
            main(
                self._args(tmp_path, "run", "--workers", "0")
                + ["--spec", str(spec_path)]
            )
        assert exc.value.code == 5


class TestExitCodeContract:
    """The documented CLI exit-code table, pinned in one place.

    Every command exits 0 on success; failure modes use distinct,
    documented codes: 1 = broken/usage, 2 = drift degraded,
    3 = power cap violation, 4 = conformance divergence,
    5 = sweep cell failure.
    """

    @pytest.mark.parametrize(
        "argv, code",
        [
            # success paths -> 0 (main returns, no SystemExit)
            (["trace", "nbody", "--p", "2", "--n", "8"], 0),
            (["profile", "nbody", "--p", "2", "--n", "8"], 0),
            (["faults", "--p", "8", "--n", "16", "--c", "2"], 0),
            (["power", "nbody", "--p", "2", "--n", "8"], 0),
            (["conformance", "--grid", "random", "--cells", "2"], 0),
            # usage errors -> SystemExit with a message (exit 1)
            (["trace", "matmul25d", "--p", "5"], "q^2 c"),
            (["observe", "check", "--inflate", "bogus"], "TERM=FACTOR"),
            # contract codes
            (["power", "matmul25d", "--p", "8", "--cap", "1.0"], 3),
            # library errors raised by the command itself -> one line
            (["fig3", "--n", "0"], "n and memory_cap must be > 0"),
            (["fig6", "--generations", "-1"], "generations must be >= 0, got -1"),
            (["fig7", "--generations", "-1"], "generations must be >= 0, got -1"),
            (["trace", "summa", "--capacity", "0"], "trace capacity must be >= 1, got 0"),
        ],
    )
    def test_exit_codes(self, argv, code, tmp_path, capsys):
        if argv[0] == "observe":
            argv = argv + ["--ledger", str(tmp_path / "ledger.jsonl")]
        if code == 0:
            assert main(argv) == 0
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            if isinstance(code, int):
                assert exc.value.code == code
            else:  # message-carrying SystemExit: the shell sees exit 1
                msg = str(exc.value)
                assert msg.startswith(f"repro {argv[0]}: ") and "\n" not in msg
                assert code in msg

    def test_observe_degraded_exits_2(self, capsys, tmp_path):
        ledger = str(tmp_path / "ledger.jsonl")
        assert main(["observe", "check", "--ledger", ledger]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(
                ["observe", "check", "--ledger", ledger,
                 "--inflate", "T:alphaS=2"]
            )
        assert exc.value.code == 2

    def test_conformance_divergence_exits_4(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                ["conformance", "--grid", "random", "--cells", "2",
                 "--demo-divergence"]
            )
        assert exc.value.code == 4

    def test_sweep_failure_exits_5(self, tmp_path, capsys, monkeypatch):
        import json

        from repro.exceptions import SimulationError
        from repro.sweep import SweepSpec, runner
        from repro.sweep.spec import SPEC_SCHEMA

        spec_path = tmp_path / "spec.json"
        argv = ["sweep", "run", "--spec", str(spec_path), "--workers", "0",
                "--ledger", str(tmp_path / "l.jsonl"),
                "--cache-dir", str(tmp_path / "c")]
        # A bad layout is a usage error, caught when the spec is planned.
        spec_path.write_text(json.dumps(
            {"schema": SPEC_SCHEMA, "workload": "fft", "n": 100, "p_values": [2]}
        ))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == "repro sweep: need a power-of-two signal length, got 100"
        # A cell that fails while it runs exits 5.
        def broken(cell):
            raise SimulationError("cell broke")

        monkeypatch.setattr(runner, "build_cell_program", broken)
        spec_path.write_text(json.dumps(SweepSpec("fft", n=64, p_values=(2,)).to_json()))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 5

    def test_sweep_success_exits_0(self, tmp_path, capsys):
        assert main(
            ["sweep", "run", "--n", "24", "--workers", "0",
             "--ledger", str(tmp_path / "l.jsonl"),
             "--cache-dir", str(tmp_path / "c")]
        ) == 0


if __name__ == "__main__":
    (DATA / "cli_arguments.json").write_text(
        argument_golden(argument_table(build_parser()))
    )
