"""Sweep engine tests: planner determinism, content-addressed cache,
sharded executor, crash-requeue, and the single-writer ledger funnel."""

import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.exceptions import ParameterError, SweepError
from repro.observatory.ledger import Ledger
from repro.sweep import (
    Cell,
    RunCache,
    SweepSpec,
    cache_key,
    cell_oracle,
    code_fingerprint,
    collective_cell,
    execute_cell,
    plan_cells,
    run_sweep,
    smoke_spec,
)
from repro.sweep import executor
from repro.sweep.cache import FINGERPRINT_ENV


def _machine_dict():
    from repro.analysis.validation import default_machine

    m = default_machine()
    return {
        k: float(getattr(m, k))
        for k in (
            "gamma_t", "beta_t", "alpha_t", "gamma_e", "beta_e",
            "alpha_e", "delta_e", "epsilon_e", "memory_words",
            "max_message_words",
        )
    }


class TestPlanner:
    def test_smoke_spec_matches_observatory_walk(self):
        cells = smoke_spec(48).cells()
        assert [c.p for c in cells] == [36, 72, 108]
        assert [c.params["c"] for c in cells] == [1, 2, 3]
        for c in cells:
            assert c.workload == "matmul25d"
            assert c.params["n"] == 48 and c.params["q"] == 6
            assert c.memory_words == 3 * (48 // 6) ** 2
            assert c.label == f"matmul25d(n=48, c={c.params['c']})"

    def test_cell_ids_are_deterministic_and_distinct(self):
        a = smoke_spec(48).cells()
        b = smoke_spec(48).cells()
        assert [c.cell_id for c in a] == [c.cell_id for c in b]
        assert len({c.cell_id for c in a}) == 3

    def test_cell_id_changes_with_any_identity_field(self):
        base = collective_cell("bcast", 8, _machine_dict(), words=9)
        assert (
            collective_cell("bcast", 8, _machine_dict(), words=10).cell_id
            != base.cell_id
        )
        assert (
            collective_cell("bcast", 9, _machine_dict(), words=9).cell_id
            != base.cell_id
        )
        bumped = dict(_machine_dict())
        bumped["beta_t"] *= 2
        assert collective_cell("bcast", 8, bumped, words=9).cell_id != base.cell_id
        assert (
            collective_cell(
                "bcast", 8, _machine_dict(), words=9, fastpath=False
            ).cell_id
            != base.cell_id
        )

    def test_cell_json_roundtrip(self):
        cell = collective_cell(
            "gather", 6, _machine_dict(), words=5, root=2,
            max_message_words=16, node_size=3,
        )
        clone = Cell.from_json(json.loads(json.dumps(cell.to_json())))
        assert clone == cell
        assert clone.cell_id == cell.cell_id

    def test_cell_id_is_computed_once_and_matches_a_fresh_one(self):
        """The digest and id are read once per cell; a cell made by
        ``from_json`` or ``dataclasses.replace`` gets its own, equal to a
        fresh computation over its identity."""
        import dataclasses
        import hashlib

        from repro.sweep.spec import canonical_json

        def fresh(cell):
            blob = canonical_json(cell.identity()).encode("utf-8")
            digest = hashlib.sha256(blob).hexdigest()[:12]
            return f"{cell.cell_id.rsplit('@', 1)[0]}@{digest}"

        cell = SweepSpec("nbody", n=48, p_values=(4,)).cells()[0]
        first = cell.cell_id
        assert cell.cell_id is first
        assert first == fresh(cell)
        clone = Cell.from_json(json.loads(json.dumps(cell.to_json())))
        assert clone.cell_id == first == fresh(clone)
        for changed in (
            dataclasses.replace(cell, p=8),
            dataclasses.replace(cell, label="other"),
            dataclasses.replace(cell, params={**cell.params, "n": 96}),
        ):
            assert changed.cell_id == fresh(changed) != first
            assert changed.digest == changed.cell_id.rsplit("@", 1)[1]

    def test_spec_json_roundtrip(self):
        spec = SweepSpec(workload="fft", n=64, p_values=(2, 4, 8))
        clone = SweepSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert clone == spec
        assert [c.cell_id for c in clone.cells()] == [
            c.cell_id for c in spec.cells()
        ]

    def test_plan_cells_concatenates_specs(self):
        cells = plan_cells(
            [smoke_spec(24), SweepSpec(workload="fft", n=64, p_values=(2,))]
        )
        assert len(cells) == 4

    def test_rejects_unknown_workload(self):
        with pytest.raises(ParameterError):
            SweepSpec(workload="nosuch", p_values=(2,))

    def test_rejects_qc_on_non_matmul(self):
        with pytest.raises(ParameterError):
            SweepSpec(workload="fft", n=64, q=2, c_values=(1,))

    def test_rejects_non_dividing_c(self):
        with pytest.raises(ParameterError):
            SweepSpec(workload="matmul25d", n=24, q=6, c_values=(4,))

    def test_rejects_bad_collective(self):
        with pytest.raises(ParameterError):
            collective_cell("nosuch", 4, _machine_dict())

    def test_rejects_bruck_on_non_pow2(self):
        with pytest.raises(ParameterError):
            collective_cell("alltoall_bruck", 6, _machine_dict())

    def test_rejects_out_of_range_root(self):
        with pytest.raises(ParameterError):
            collective_cell("bcast", 4, _machine_dict(), root=7)

    def test_rejects_unknown_mode_flag(self):
        with pytest.raises(ParameterError):
            Cell(
                workload="fft", p=2, params={"n": 64},
                machine=_machine_dict(), mode={"bogus": 1},
            )


class TestScenarioKnobs:
    """The registry knobs a cell carries in its params: ``all_to_all``
    for fft and ``c`` for nbody, next to matmul25d's ``c``."""

    @pytest.mark.parametrize("mode", ["naive", "bruck"])
    @pytest.mark.parametrize("p", [2, 4, 8, 16])
    def test_fft_all_to_all_cells_equal_oracle(self, mode, p):
        from repro.conformance import oracle_scenario

        spec = SweepSpec("fft", n=1024, p_values=(p,), params={"all_to_all": mode})
        record = execute_cell(spec.cells()[0])
        oracle = oracle_scenario("fft", p, 1024, all_to_all=mode)
        assert record.counts_signature() == oracle.per_rank

    def test_nbody_c_cells_conserve_total_flops(self):
        specs = [
            SweepSpec("nbody", n=96, p_values=(4 * c,), params={"c": c})
            for c in (1, 2, 4)
        ]
        outcome = run_sweep(plan_cells(specs), workers=0)
        assert outcome.ok
        flops = [rec.total_flops for rec in outcome.records.values()]
        assert len(flops) == 3 and flops[1] == flops[0] and flops[2] == flops[0]

    def test_cell_ids_without_new_params_are_unchanged(self):
        # Literal ids: the perf digests and run caches are keyed by them.
        (nbody,) = SweepSpec("nbody", n=64, p_values=(4,)).cells()
        assert nbody.cell_id == "nbody/p4-n64@e2e2daad86ec"
        assert [c.cell_id for c in smoke_spec(48).cells()] == [
            "matmul25d/p36-c1-n48-q6@ff4058399566",
            "matmul25d/p72-c2-n48-q6@8cbf4c4e541f",
            "matmul25d/p108-c3-n48-q6@b3ae576a43c3",
        ]

    def test_knobs_are_part_of_the_cell_id(self):
        (ring,) = SweepSpec("nbody", n=64, p_values=(4,)).cells()
        (teams,) = SweepSpec("nbody", n=64, p_values=(4,), params={"c": 1}).cells()
        assert teams.cell_id != ring.cell_id
        assert teams.cell_id.startswith("nbody/p4-c1-n64@")

    def test_knob_on_the_wrong_scenario_fails_the_cell(self):
        # The record rejects the knob when the cell is planned.
        with pytest.raises(ParameterError, match="^scenario 'cannon' takes no all_to_all$"):
            SweepSpec(
                "cannon", n=16, p_values=(4,), params={"all_to_all": "naive"}
            ).cells()


class TestCache:
    def test_key_depends_on_fingerprint(self):
        cell = collective_cell("barrier", 4, _machine_dict())
        assert cache_key(cell, "fp-a") != cache_key(cell, "fp-b")
        assert cache_key(cell, "fp-a") == cache_key(cell, "fp-a")

    def test_fingerprint_env_override(self, monkeypatch):
        monkeypatch.setenv(FINGERPRINT_ENV, "pinned")
        assert code_fingerprint() == "pinned"
        monkeypatch.delenv(FINGERPRINT_ENV)
        real = code_fingerprint()
        assert len(real) == 64 and real != "pinned"

    def test_put_get_roundtrip_is_bit_identical(self, tmp_path):
        cell = collective_cell("allreduce", 5, _machine_dict(), words=7)
        record = execute_cell(cell)
        cache = RunCache(tmp_path / "cache")
        cache.put(cell, record, "fp")
        replay = cache.get(cell, "fp")
        assert replay is not None
        assert replay.to_json() == record.to_json()

    def test_get_misses_across_fingerprints(self, tmp_path):
        cell = collective_cell("allreduce", 5, _machine_dict(), words=7)
        cache = RunCache(tmp_path / "cache")
        cache.put(cell, execute_cell(cell), "fp-old")
        assert cache.get(cell, "fp-new") is None
        assert cache.get(cell, "fp-old") is not None

    def test_gc_removes_only_stale(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        old = collective_cell("barrier", 4, _machine_dict())
        new = collective_cell("barrier", 5, _machine_dict())
        cache.put(old, execute_cell(old), "fp-old")
        cache.put(new, execute_cell(new), "fp-new")
        assert cache.stats("fp-new").stale == 1
        assert cache.gc("fp-new") == 1
        assert cache.get(new, "fp-new") is not None
        assert cache.stats("fp-new").entries == 1

    def test_gc_drop_all(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        cell = collective_cell("barrier", 4, _machine_dict())
        cache.put(cell, execute_cell(cell), "fp")
        assert cache.gc("fp", drop_all=True) == 1
        assert cache.stats("fp").entries == 0

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        cell = collective_cell("barrier", 4, _machine_dict())
        key = cache.put(cell, execute_cell(cell), "fp")
        path = cache._entry_path(key)
        path.write_text("{ not json")
        assert cache.get(cell, "fp") is None


class TestExecutor:
    def test_serial_and_sharded_records_identical(self, tmp_path):
        cells = smoke_spec(24).cells()
        serial = run_sweep(cells, workers=0)
        sharded = run_sweep(cells, workers=2)
        assert set(serial.records) == set(sharded.records)
        for cid in serial.records:
            a, b = serial.records[cid], sharded.records[cid]
            assert a.counts == b.counts
            assert a.vtimes == b.vtimes
            assert a.time_terms == b.time_terms
            assert a.energy_terms == b.energy_terms
            assert (a.time_total, a.energy_total) == (b.time_total, b.energy_total)

    def test_warm_run_hits_every_cell_and_is_faster(self, tmp_path):
        cells = smoke_spec(24).cells()
        cache = RunCache(tmp_path / "cache")
        cold = run_sweep(cells, cache=cache, workers=2)
        warm = run_sweep(cells, cache=cache, workers=2)
        assert cold.simulated == 3 and cold.hits == 0
        assert warm.hits == 3 and warm.simulated == 0
        assert warm.elapsed < cold.elapsed / 5

    def test_ledger_funnel_annotates_provenance(self, tmp_path):
        cells = smoke_spec(24).cells()
        cache = RunCache(tmp_path / "cache")
        led1 = Ledger(tmp_path / "cold.jsonl")
        run_sweep(cells, ledger=led1, cache=cache, workers=2)
        led2 = Ledger(tmp_path / "warm.jsonl")
        run_sweep(cells, ledger=led2, cache=cache, workers=0)
        tags1 = [r.extra["sweep"]["cache"] for r in led1.records()]
        tags2 = [r.extra["sweep"]["cache"] for r in led2.records()]
        assert tags1 == ["miss"] * 3
        assert tags2 == ["hit"] * 3
        # Append order follows completion, so match the ledgers by cell:
        # a replay lands the same counts and clocks as the cold run.
        cold = {r.extra["sweep"]["cell"]: r for r in led1.records()}
        warm = {r.extra["sweep"]["cell"]: r for r in led2.records()}
        assert set(cold) == set(warm) == {c.cell_id for c in cells}
        for cid, rec in cold.items():
            assert rec.counts == warm[cid].counts
            assert rec.vtimes == warm[cid].vtimes
        # provenance never leaks into the cached (replayable) record
        for cell in cells:
            assert "sweep" not in (cache.get(cell).extra or {})

    def test_crash_requeue_recovers_all_cells(self, tmp_path):
        cells = smoke_spec(24).cells()
        led = Ledger(tmp_path / "l.jsonl")
        out = run_sweep(cells, ledger=led, workers=2, crash_plan={0: 1})
        assert out.requeues == 1
        assert out.failed == 0
        assert len(out.records) == 3
        assert len(led.records()) == 3
        assert not led.quarantined()

    def test_crash_requeue_records_match_clean_run(self):
        cells = smoke_spec(24).cells()
        clean = run_sweep(cells, workers=0)
        crashed = run_sweep(cells, workers=2, crash_plan={0: 0, 1: 0})
        assert crashed.requeues == 2
        for cid in clean.records:
            assert clean.records[cid].counts == crashed.records[cid].counts
            assert clean.records[cid].vtimes == crashed.records[cid].vtimes

    def test_dispatch_runs_largest_p_first(self):
        cells = smoke_spec(24).cells()  # plan order: p = 36, 72, 108
        assert cells[-1].p == max(c.p for c in cells)
        out = run_sweep(cells, workers=1)
        assert [o.cell_id for o in out.outcomes] == [
            c.cell_id for c in sorted(cells, key=lambda c: -c.p)
        ]

    def test_crashed_in_flight_cell_recorded_once(self, tmp_path):
        # The worker finishes the p=108 cell and dies holding p=72; the
        # replacement picks it up from the front of the queue.
        cells = smoke_spec(24).cells()
        clean = run_sweep(cells, workers=0)
        led = Ledger(tmp_path / "l.jsonl")
        crashed = run_sweep(cells, ledger=led, workers=1, crash_plan={0: 1})
        assert crashed.requeues == 1 and crashed.failed == 0
        want = sorted(c.cell_id for c in cells)
        assert sorted(o.cell_id for o in crashed.outcomes) == want
        assert sorted(r.extra["sweep"]["cell"] for r in led.records()) == want
        for cid in want:
            assert clean.records[cid].counts == crashed.records[cid].counts
            assert clean.records[cid].vtimes == crashed.records[cid].vtimes

    def test_requeue_budget_exhaustion_raises_with_partial(self):
        cells = smoke_spec(24).cells()
        with pytest.raises(SweepError) as exc:
            run_sweep(cells, workers=1, max_requeues=0, crash_plan={0: 0})
        outcome = exc.value.outcome
        assert outcome.failed == 3
        assert all(o.error and "requeue" in o.error for o in outcome.outcomes)

    def test_failed_cell_reported_not_raised(self, tmp_path, monkeypatch):
        # A bad layout no longer plans, so the p=4 cell fails while it
        # runs (the forked workers inherit the patched builder).
        from repro.sweep import runner

        build = runner.build_cell_program

        def build_or_fail(cell):
            if cell.p == 4:
                raise ParameterError("cell broke at run time")
            return build(cell)

        monkeypatch.setattr(runner, "build_cell_program", build_or_fail)
        cells = SweepSpec(workload="fft", n=64, p_values=(2, 4)).cells()
        out = run_sweep(cells, workers=2)
        assert out.failed == 1 and out.simulated == 1
        failed = next(o for o in out.outcomes if o.status == "failed")
        assert "cell broke at run time" in failed.error

    def test_duplicate_cells_rejected(self):
        cells = smoke_spec(24).cells()
        with pytest.raises(SweepError):
            run_sweep(cells + cells[:1], workers=0)

    def test_spawn_context_also_works(self, tmp_path):
        # The worker entry point must be picklable for spawn contexts.
        cells = SweepSpec(workload="fft", n=64, p_values=(2, 4)).cells()
        out = run_sweep(cells, workers=2, mp_context="spawn")
        assert out.simulated == 2 and out.failed == 0

    def test_outcome_json_schema(self):
        cells = SweepSpec(workload="fft", n=64, p_values=(2,)).cells()
        payload = run_sweep(cells, workers=0).to_json()
        assert payload["schema"] == "repro_sweep_outcome/v1"
        assert payload["cells"] == 1
        assert payload["outcomes"][0]["status"] == "simulated"


class TestWorkerCpus:
    """Sweep workers count and use the CPUs the process may run on."""

    def test_slots_take_distinct_cpus_then_wrap(self):
        cpus = [2, 5, 7]
        assert [executor._slot_cpu(s, cpus) for s in range(3)] == [2, 5, 7]
        assert [executor._slot_cpu(s, cpus) for s in range(7)] == [
            2, 5, 7, 2, 5, 7, 2,
        ]

    def test_default_workers_counts_the_allowed_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert executor._allowed_cpus() == [3]
        assert executor.default_workers() == 1
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {1, 4, 6}, raising=False
        )
        assert executor.default_workers() == 3

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="fewer than 2 CPUs allowed",
    )
    def test_each_worker_is_pinned_to_its_slot_cpu(self):
        cpus = sorted(os.sched_getaffinity(0))
        ctx = multiprocessing.get_context("fork")
        out = ctx.Queue()
        workers = []
        for slot in range(len(cpus) + 1):  # one past the CPUs: it wraps
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=executor._slot_worker, args=(slot, 0, reader, out), daemon=True
            )
            proc.start()
            reader.close()
            workers.append((proc, writer))
        try:
            masks = []
            for proc, _ in workers:
                deadline = time.monotonic() + 30.0
                while len(os.sched_getaffinity(proc.pid)) > 1:
                    assert time.monotonic() < deadline, "worker never pinned itself"
                    time.sleep(0.01)
                masks.append(os.sched_getaffinity(proc.pid))
            assert masks == [{c} for c in cpus] + [{cpus[0]}]
        finally:
            for proc, writer in workers:
                writer.send(None)
                writer.close()
                proc.join(timeout=10.0)
        assert os.sched_getaffinity(0) == set(cpus)


class TestCollectiveCells:
    def test_execute_matches_oracle_signature(self):
        cell = collective_cell("reduce_scatter", 6, _machine_dict(), words=11)
        record = execute_cell(cell)
        oracle = cell_oracle(cell)
        assert [tuple(r) for r in record.counts] == [
            tuple(r) for r in oracle.signature()
        ]
        assert list(record.vtimes) == list(oracle.vtimes)

    def test_oracle_rejects_scenario_cells(self):
        with pytest.raises(ParameterError):
            cell_oracle(smoke_spec(24).cells()[0])


class TestImportBoundary:
    """The library runs its sweeps and builds its grids without loading
    the CLI or scipy (the CLI itself must not pull scipy in either)."""

    SCRIPT = """
import json, sys
import repro, repro.sweep, repro.conformance
{cli}
from repro.sweep import SweepSpec, execute_cell
execute_cell(SweepSpec("cannon", n=16, p_values=(4,)).cells()[0])
repro.conformance.smoke_cases()
print(json.dumps([m for m in ("repro.cli", "scipy") if m in sys.modules]))
"""

    @pytest.mark.parametrize("cli", [False, True])
    def test_library_imports_neither_cli_nor_scipy(self, cli):
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        script = self.SCRIPT.format(cli="import repro.cli" if cli else "")
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src},
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        loaded = json.loads(out.stdout.strip().splitlines()[-1])
        assert loaded == (["repro.cli"] if cli else [])

    def test_cli_import_loads_no_algorithm_or_simulator_module(self):
        """Every ``repro`` command pays for ``import repro.cli``; the
        commands that run a simulation import the simulator (and
        ``numpy.random``, which only the input builders use) on use."""
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        script = (
            "import json, sys, repro.cli\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "    if m.startswith(('repro.algorithms', 'repro.simmpi', 'numpy.random')))))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src},
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout.strip().splitlines()[-1]) == []


    FORK_SCRIPT = """
import json, sys
import repro.cli
from repro.scenarios import SCENARIOS
from repro.sweep import Cell, collective_cell, executor, run_sweep
from repro.sweep.spec import resolve_machine_spec

machine = resolve_machine_spec("default")
cells = [Cell(s.name, s.p, {"n": s.n}, machine) for s in SCENARIOS.values()]
cells.append(collective_cell("allreduce", 8, machine, words=4))
real = executor.execute_cell

def spy(cell):
    held = set(sys.modules)
    record = real(cell)
    with open(sys.argv[1], "a") as out:
        out.write(json.dumps([cell.workload, sorted(set(sys.modules) - held)]) + "\\n")
    return record

executor.execute_cell = spy
outcome = run_sweep(cells[-1:], workers=1, mp_context="fork")
assert outcome.failed == 0, outcome.to_json()
assert "numpy.random" not in sys.modules
outcome = run_sweep(cells, workers=1, mp_context="fork")
assert outcome.failed == 0, outcome.to_json()
"""

    def test_forked_worker_imports_no_module_its_parent_lacks(self, tmp_path):
        """A dispatched sweep's parent imports what its forked workers
        use, so no worker pays for an import on its first cell; a sweep
        of collective cells alone leaves ``numpy.random`` out."""
        import repro

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        src = str(Path(repro.__file__).resolve().parents[1])
        log = tmp_path / "imports.jsonl"
        out = subprocess.run(
            [sys.executable, "-c", self.FORK_SCRIPT, str(log)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src},
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        imported = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(imported) == 9
        assert [new for _, new in imported if new] == []


class TestLargeScaleSweeps:
    """Tier-2 (slow marker): the executor and oracles at p >= 1024 —
    the scale the paper's replication-band claims actually live at."""

    @pytest.mark.slow
    def test_p1024_collectives_match_oracles(self):
        for op in ("allreduce", "bcast", "reduce_scatter"):
            cell = collective_cell(op, 1024, _machine_dict(), words=9)
            record = execute_cell(cell)
            oracle = cell_oracle(cell)
            assert [tuple(r) for r in record.counts] == [
                tuple(r) for r in oracle.signature()
            ]
            assert list(record.vtimes) == list(oracle.vtimes)

    @pytest.mark.slow
    def test_p1024_sharded_sweep_matches_serial(self, tmp_path):
        cells = [
            collective_cell("allreduce", 1024, _machine_dict(), words=w)
            for w in (3, 9)
        ]
        serial = run_sweep(cells, workers=0)
        cache = RunCache(tmp_path / "cache")
        sharded = run_sweep(cells, cache=cache, workers=2)
        warm = run_sweep(cells, cache=cache, workers=2)
        assert warm.hits == len(cells)
        for cid in serial.records:
            assert serial.records[cid].counts == sharded.records[cid].counts
            assert sharded.records[cid].to_json() == warm.records[cid].to_json()


class TestGitShaOnlyWhereKept:
    """``execute_cell`` stamps no commit; ``run_sweep`` stamps it on the
    records a ledger or cache keeps, so an unkept run forks no git."""

    @pytest.fixture
    def forks(self, monkeypatch):
        import repro.observatory.ledger as ledger_mod

        monkeypatch.setattr(ledger_mod, "_git_sha_cache", {})
        calls: list = []
        real = subprocess.run

        def spy(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", spy)
        return calls

    def test_scaling_points_forks_nothing(self, forks):
        from repro.analysis.validation import scaling_points

        points = scaling_points(SweepSpec("cannon", n=16, p_values=(4,)), "{p}")
        assert [pt.label for pt in points] == ["4"]
        assert forks == []

    def test_kept_records_carry_the_sha(self, forks, tmp_path):
        from repro.observatory.ledger import git_sha

        cells = SweepSpec("cannon", n=16, p_values=(4,)).cells()
        ledger = Ledger(tmp_path / "ledger.jsonl")
        cache = RunCache(tmp_path / "cache")
        out = run_sweep(cells, ledger=ledger, cache=cache, workers=0)
        assert forks == [["git", "rev-parse", "HEAD"]]
        sha = git_sha()
        assert [r.git_sha for r in ledger.records()] == [sha]
        assert out.records[cells[0].cell_id].git_sha == sha
        replay = run_sweep(cells, cache=cache, workers=0)
        assert replay.hits == 1
        assert replay.records[cells[0].cell_id].git_sha == sha
        assert len(forks) == 1


class TestLedgerSingleWriter:
    """The funnel invariant, stress-tested: many concurrent appenders
    (threads and processes) may hammer one ledger file without
    interleaved or corrupt lines — which is why routing every shard's
    records through the parent is safe even under crash-requeue."""

    def test_concurrent_thread_appends_never_corrupt(self, tmp_path):
        led = Ledger(tmp_path / "ledger.jsonl")
        cells = SweepSpec(workload="fft", n=64, p_values=(2,)).cells()
        record = execute_cell(cells[0])

        def hammer(k: int):
            for _ in range(25):
                led.append(record)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        got = led.records()
        assert len(got) == 200
        assert not led.quarantined()
        assert all(r.counts == record.counts for r in got)

    def test_concurrent_process_appends_never_corrupt(self, tmp_path):
        led_path = tmp_path / "ledger.jsonl"
        led = Ledger(led_path)
        cells = SweepSpec(workload="fft", n=64, p_values=(2,)).cells()
        record = execute_cell(cells[0])
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(
                target=_hammer_ledger, args=(str(led_path), record.to_json())
            )
            for _ in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
            assert p.exitcode == 0
        got = led.records()
        assert len(got) == 100
        assert not led.quarantined()
        sigs = {json.dumps(r.counts) for r in got}
        assert len(sigs) == 1


def _hammer_ledger(path: str, record_json: dict) -> None:
    """Top-level so fork/spawn contexts can run it."""
    from repro.observatory.ledger import Ledger, RunRecord

    led = Ledger(path)
    rec = RunRecord.from_json(record_json)
    for _ in range(25):
        led.append(rec)
