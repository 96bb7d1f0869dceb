"""Benchmark regression gate: fresh numbers vs the committed baselines.

The repo commits three performance baselines at its root —
``BENCH_simmpi.json`` (pool+cow speedup over spawn+copy),
``BENCH_trace_overhead.json`` (traced/untraced wall-clock ratio) and
``BENCH_power_overhead.json`` (power-analysis/run wall-clock ratio).
This script is the PR gate over them:

1. **Structural checks** — each baseline exists, parses, carries its
   expected ``schema`` tag, and recorded the correctness flags
   (``counts_identical``, ``vtimes_identical``) as true. These are hard
   failures: a baseline that says counts diverged should never have
   been committed.
2. **Fresh smoke measurements** — re-runs each benchmark's workload in
   a small configuration and compares the headline metric against the
   baseline through the per-metric tolerance table below. Tolerances
   are deliberately loose (CI wall-clock is noisy and the smoke
   configuration is smaller than the baseline's): the gate catches
   order-of-magnitude regressions — a pool that stopped beating spawn,
   a hook path that got 2.5x slower — not single-digit drift.
3. The fresh runs' own correctness flags must hold (bit-identical
   counts with tracing or power analysis on or off) — these are
   exact, not tolerance-based.
4. **Baseline-less exact gates** — the fault hooks' disabled path, the
   analytic collective fast path, and the observatory's ``record=``
   run-ledger hook must each be bit-identical (counts, per-rank
   virtual clocks, results) to their reference paths. Exact
   comparisons; nothing to tolerate.

Writes a ``bench_regress/v1`` report to ``benchmarks/results/`` and
exits nonzero on any violation. Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_regress.py --smoke
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"
SCHEMA = "bench_regress/v1"

#: baseline file -> expected schema and required-true correctness flags
BASELINES = {
    "BENCH_simmpi.json": {
        "schema": "bench_simmpi_perf/v2",
        "flags": ("counts_identical",),
    },
    "BENCH_trace_overhead.json": {
        "schema": "bench_trace_overhead/v1",
        "flags": ("counts_identical",),
    },
    "BENCH_power_overhead.json": {
        "schema": "bench_power_overhead/v1",
        "flags": ("counts_identical", "vtimes_identical"),
    },
}

#: Per-metric tolerance table (see the module docstring for rationale).
#: ``floor_*`` entries gate metrics that must stay high (speedups);
#: ``ceil_*`` entries gate metrics that must stay low (overheads). The
#: relative bound is taken against the baseline's reference value and
#: combined with the absolute bound so a very tight baseline never
#: produces an impossible gate.
TOLERANCES = {
    "simmpi_speedup": {"floor_abs": 1.2, "floor_frac": 0.12},
    "trace_overhead_ratio": {"ceil_abs": 2.5, "ceil_frac": 2.5},
    "power_analysis_ratio": {"ceil_abs": 2.0, "ceil_frac": 2.5},
}


def _check(checks: list, name: str, ok: bool, detail: str) -> bool:
    checks.append({"name": name, "ok": bool(ok), "detail": detail})
    status = "ok  " if ok else "FAIL"
    print(f"[{status}] {name}: {detail}")
    return ok


def check_baselines(root: Path, checks: list) -> dict[str, dict]:
    """Structural pass over every committed baseline."""
    loaded = {}
    for fname, spec in BASELINES.items():
        path = root / fname
        if not path.is_file():
            _check(checks, f"{fname}:exists", False, f"missing at {path}")
            continue
        try:
            data = json.loads(path.read_text())
        except ValueError as exc:
            _check(checks, f"{fname}:parses", False, str(exc))
            continue
        _check(
            checks,
            f"{fname}:schema",
            data.get("schema") == spec["schema"],
            f"schema={data.get('schema')!r} expected={spec['schema']!r}",
        )
        for flag in spec["flags"]:
            _check(
                checks,
                f"{fname}:{flag}",
                data.get(flag) is True,
                f"{flag}={data.get(flag)!r}",
            )
        loaded[fname] = data
    return loaded


def _floor(metric: str, baseline_value: float) -> float:
    tol = TOLERANCES[metric]
    return max(tol["floor_abs"], tol["floor_frac"] * baseline_value)

def _ceil(metric: str, baseline_value: float) -> float:
    tol = TOLERANCES[metric]
    return max(tol["ceil_abs"], tol["ceil_frac"] * baseline_value)


def regress_simmpi(baseline: dict, smoke: bool, checks: list) -> dict:
    import bench_simmpi_perf

    cfg = (
        {"sizes": (8,), "words": 4096, "rounds": 2, "repeats": 2}
        if smoke
        else {"sizes": (16,), "words": 16384, "rounds": 2, "repeats": 3}
    )
    fresh = bench_simmpi_perf.run_benchmark(**cfg)
    _check(
        checks,
        "simmpi:counts_identical(fresh)",
        fresh["counts_identical"],
        "pool/cow counts match spawn/copy",
    )
    ref_p = min(baseline["speedup"], key=int)
    ref = baseline["speedup"][ref_p]
    value = min(fresh["speedup"].values())
    floor = _floor("simmpi_speedup", ref)
    _check(
        checks,
        "simmpi:speedup",
        value >= floor,
        f"fresh={value:.2f}x floor={floor:.2f}x "
        f"(baseline p={ref_p}: {ref:.2f}x)",
    )
    return fresh


def regress_trace(baseline: dict, smoke: bool, checks: list) -> dict:
    import bench_trace_overhead

    cfg = (
        {"sizes": (8,), "rounds": 40, "repeats": 2}
        if smoke
        else {"sizes": (8,), "rounds": 100, "repeats": 3}
    )
    fresh = bench_trace_overhead.run_benchmark(**cfg)
    _check(
        checks,
        "trace:counts_identical(fresh)",
        fresh["counts_identical"],
        "traced counts match untraced",
    )
    ref = max(baseline["overhead_ratio"].values())
    value = max(fresh["overhead_ratio"].values())
    ceil = _ceil("trace_overhead_ratio", ref)
    _check(
        checks,
        "trace:overhead_ratio",
        value <= ceil,
        f"fresh={value:.2f}x ceil={ceil:.2f}x (baseline max: {ref:.2f}x)",
    )
    return fresh


def regress_power(baseline: dict, smoke: bool, checks: list) -> dict:
    import bench_power_overhead

    cfg = (
        {"sizes": (8,), "rounds": 40, "repeats": 2}
        if smoke
        else {"sizes": (8,), "rounds": 100, "repeats": 3}
    )
    fresh = bench_power_overhead.run_benchmark(**cfg)
    _check(
        checks,
        "power:counts_identical(fresh)",
        fresh["counts_identical"],
        "counts match with power analysis on or off",
    )
    _check(
        checks,
        "power:vtimes_identical(fresh)",
        fresh["vtimes_identical"],
        "virtual clocks match with power analysis on or off",
    )
    ref = max(baseline["analysis_ratio"].values())
    value = max(fresh["analysis_ratio"].values())
    ceil = _ceil("power_analysis_ratio", ref)
    _check(
        checks,
        "power:analysis_ratio",
        value <= ceil,
        f"fresh={value:.2f}x ceil={ceil:.2f}x (baseline max: {ref:.2f}x)",
    )
    return fresh


def regress_faults(smoke: bool, checks: list) -> dict:
    """Exact gate on the fault hooks' disabled path: ``faults=None`` and
    an inert (never-firing) FaultPlan must produce bit-identical counts
    AND per-rank virtual clocks. No baseline file — the comparison is
    exact, so there is nothing to tolerate."""
    from repro.algorithms.cannon import cannon_matmul
    from repro.analysis.validation import default_machine
    from repro.simmpi import DelayFault, FaultPlan, run_spmd

    import numpy as np

    n = 16 if smoke else 32
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    machine = default_machine()
    # A live FaultState whose only fault sits at an unreachable message
    # index: every hook runs, nothing ever fires.
    inert = FaultPlan([DelayFault(src=0, dst=1, nth=10**9, delay=1.0)])
    base = run_spmd(4, cannon_matmul, a, b, machine=machine)
    hooked = run_spmd(4, cannon_matmul, a, b, machine=machine, faults=inert)
    counts_identical = (
        base.report.counts_signature() == hooked.report.counts_signature()
    )
    vtimes = tuple(r.vtime for r in base.report.ranks)
    vtimes_hooked = tuple(r.vtime for r in hooked.report.ranks)
    _check(
        checks,
        "faults:counts_identical(disabled-path)",
        counts_identical,
        "faults=None counts match inert-FaultPlan counts",
    )
    _check(
        checks,
        "faults:vtimes_identical(disabled-path)",
        vtimes == vtimes_hooked,
        "faults=None virtual clocks match inert-FaultPlan clocks",
    )
    no_recovery = not hooked.report.has_recovery
    _check(
        checks,
        "faults:no_recovery(disabled-path)",
        no_recovery,
        "inert plan metered zero recovery work",
    )
    return {
        "counts_identical": counts_identical,
        "vtimes_identical": vtimes == vtimes_hooked,
        "no_recovery": no_recovery,
    }


def regress_fastpath(smoke: bool, checks: list) -> dict:
    """Exact gate on the analytic collective fast path: a mixed
    workload over every collective (plus an FFT-shaped complex
    all-to-all, both variants) must produce bit-identical counts,
    per-rank virtual clocks AND results with ``fastpath=True`` (the
    default) versus ``fastpath=False`` (pure message simulation). No
    baseline file — the comparison is exact, so there is nothing to
    tolerate."""
    from repro.analysis.validation import default_machine
    from repro.simmpi import run_spmd

    import numpy as np

    n = 64 if smoke else 512

    def workload(comm, n):
        p = comm.size
        arr = np.arange(float(n)) * (comm.rank + 1)
        comm.barrier()
        b = comm.bcast(arr if comm.rank == 0 else None, root=0)
        s = comm.allreduce(arr)
        g = comm.allgather(float(s[0]))
        rs = comm.reduce_scatter(arr)
        sc = comm.scatter(
            [np.full(3, float(i)) for i in range(p)] if comm.rank == 2 else None,
            root=2,
        )
        ga = comm.gather(rs, root=1)
        a2a = comm.alltoall([np.full(4, float(d)) for d in range(p)])
        br = comm.alltoall_bruck([np.full(2, float(d)) for d in range(p)])
        red = comm.reduce(arr, root=3)
        # FFT-shaped transpose: fft.py's (rows, cols) complex128 blocks
        # through both all-to-all variants, compared byte for byte.
        cols = n // 32
        y = (
            np.arange(2.0 * cols * p) * (comm.rank + 1) + 1j * comm.rank
        ).reshape(2, cols * p)
        blocks = [np.ascontiguousarray(y[:, d * cols : (d + 1) * cols]) for d in range(p)]
        fft_blocks = comm.alltoall(blocks) + comm.alltoall_bruck(blocks)
        return (
            float(np.sum(b)) + float(np.sum(s)) + float(np.sum(g))
            + float(np.sum(rs)) + float(np.sum(sc))
            + (0.0 if ga is None else float(sum(np.sum(x) for x in ga)))
            + float(sum(np.sum(x) for x in a2a))
            + float(sum(np.sum(x) for x in br))
            + (0.0 if red is None else float(np.sum(red))),
            [(x.shape, x.dtype.str, x.flags.writeable, x.tobytes()) for x in fft_blocks],
        )

    machine = default_machine()
    kwargs = dict(machine=machine, max_message_words=float(n // 4))
    fast = run_spmd(8, workload, n, **kwargs)
    slow = run_spmd(8, workload, n, fastpath=False, **kwargs)
    counts_identical = (
        fast.report.counts_signature() == slow.report.counts_signature()
    )
    vtimes_identical = tuple(r.vtime for r in fast.report.ranks) == tuple(
        r.vtime for r in slow.report.ranks
    )
    results_identical = fast.results == slow.results
    _check(
        checks,
        "fastpath:counts_identical",
        counts_identical,
        "fast-path counts match message-path counts (exact)",
    )
    _check(
        checks,
        "fastpath:vtimes_identical",
        vtimes_identical,
        "fast-path virtual clocks match message-path clocks (exact)",
    )
    _check(
        checks,
        "fastpath:results_identical",
        results_identical,
        "fast-path payload results match message-path results",
    )
    return {
        "counts_identical": counts_identical,
        "vtimes_identical": vtimes_identical,
        "results_identical": results_identical,
    }


def regress_record(smoke: bool, checks: list) -> dict:
    """Exact gate on the run-ledger ``record=`` hook: ``record=None``
    (the default) and a live :class:`~repro.observatory.RunRecorder`
    must produce bit-identical counts AND per-rank virtual clocks —
    the hook only reads the finished report after the join, so there
    is nothing to tolerate. Also asserts the recorded counts equal the
    live report's signature (the ledger stores what actually ran)."""
    import tempfile
    from pathlib import Path as _Path

    from repro.algorithms.cannon import cannon_matmul
    from repro.analysis.validation import default_machine
    from repro.observatory import Ledger, RunRecorder
    from repro.simmpi import run_spmd

    import numpy as np

    n = 16 if smoke else 32
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    machine = default_machine()
    base = run_spmd(4, cannon_matmul, a, b, machine=machine)
    with tempfile.TemporaryDirectory() as tmp:
        ledger = Ledger(_Path(tmp) / "ledger.jsonl")
        recorder = RunRecorder(ledger, workload="cannon", params={"n": n})
        hooked = run_spmd(
            4, cannon_matmul, a, b, machine=machine, record=recorder
        )
        counts_identical = (
            base.report.counts_signature() == hooked.report.counts_signature()
        )
        vtimes_identical = tuple(r.vtime for r in base.report.ranks) == tuple(
            r.vtime for r in hooked.report.ranks
        )
        recorded = ledger.records()
        record_faithful = (
            len(recorded) == 1
            and recorded[0].counts_signature()
            == hooked.report.counts_signature()
        )
    _check(
        checks,
        "record:counts_identical(disabled-path)",
        counts_identical,
        "record=None counts match RunRecorder counts",
    )
    _check(
        checks,
        "record:vtimes_identical(disabled-path)",
        vtimes_identical,
        "record=None virtual clocks match RunRecorder clocks",
    )
    _check(
        checks,
        "record:ledger_faithful",
        record_faithful,
        "ledger round-trips the exact counts signature",
    )
    return {
        "counts_identical": counts_identical,
        "vtimes_identical": vtimes_identical,
        "ledger_faithful": record_faithful,
    }


def regress_conformance(smoke: bool, checks: list) -> dict:
    """Structural gate on the conformance grid: the smoke grid can
    never silently shrink below the acceptance floor (>= 200 cells,
    >= 5 non-power-of-two sizes, every collective family and every
    registry scenario present), it must run clean, and the harness must
    still *detect* a deliberately perturbed build — a vacuous grid that
    passes everything is itself a regression."""
    from repro.conformance import (
        VARIANTS,
        deliberately_perturbed,
        run_grid,
        smoke_cases,
    )
    from repro.scenarios import SCENARIOS

    cases = smoke_cases()
    families = {c.name.split("/", 1)[0] for c in cases}
    expected_families = {
        "barrier", "bcast", "reduce", "allreduce", "allreduce_rd",
        "reduce_scatter", "reduce_rsg", "allgather", "gather", "scatter",
        "alltoall", "alltoall_bruck", "bcast_sa", "bruck_non_pow2",
    } | {f"scenario:{w}" for w in SCENARIOS}
    missing = sorted(expected_families - families)
    non_pow2 = sorted({c.size for c in cases if c.size & (c.size - 1)})
    if smoke:
        # Size-structure checks are cheap; only run a slice of the grid.
        sliced = [c for c in cases if c.size in (3, 4)]
        report = run_grid(sliced, grid="smoke")
        cells_floor = len(VARIANTS) * len(sliced)
    else:
        report = run_grid(cases, grid="smoke")
        cells_floor = 200
    with deliberately_perturbed(extra_words=2):
        perturbed = run_grid(cases[:4], grid="smoke", fail_limit=1)
    grid_cells = len(VARIANTS) * len(cases)
    _check(
        checks, "conformance:grid_floor", grid_cells >= 200,
        f"smoke grid spans {grid_cells} cells (floor 200)",
    )
    _check(
        checks, "conformance:non_pow2_sizes", len(non_pow2) >= 5,
        f"non-power-of-two sizes {non_pow2} (floor 5)",
    )
    _check(
        checks, "conformance:families_complete", not missing,
        "all collective families and scenarios present"
        if not missing else f"missing families: {missing}",
    )
    _check(
        checks, "conformance:zero_divergence",
        report.ok and report.cells >= cells_floor,
        f"{report.cells} cells ran, {len(report.divergences)} divergence(s)",
    )
    _check(
        checks, "conformance:perturbation_detected", not perturbed.ok,
        "deliberately mis-metered build diverges"
        if not perturbed.ok else "perturbed build passed — harness is vacuous",
    )
    return {
        "cases": len(cases),
        "cells_run": report.cells,
        "non_pow2_sizes": non_pow2,
        "divergences": len(report.divergences),
        "perturbation_detected": not perturbed.ok,
    }


def regress_sweep(smoke: bool, checks: list) -> dict:
    """Exact gate on the sharded sweep engine: live in-process runs,
    a cold sharded sweep and a warm cache-replay sweep must all be
    bit-identical in counts_signature, per-rank virtual clocks and the
    Eq. (1)/(2) term attribution; the warm pass must hit the cache on
    100% of cells and be >= 5x faster than the cold pass; and a worker
    crash mid-sweep must lose nothing (requeue produces the full record
    set). Any drift here means the cache could replay stale physics."""
    import tempfile
    from pathlib import Path as _Path

    from repro.observatory import Ledger
    from repro.sweep import RunCache, execute_cell, run_sweep, smoke_spec

    n = 24 if smoke else 48
    cells = smoke_spec(n).cells()
    live = {cell.cell_id: execute_cell(cell) for cell in cells}

    def identical(a, b) -> bool:
        return (
            a.counts == b.counts
            and a.vtimes == b.vtimes
            and a.time_terms == b.time_terms
            and a.energy_terms == b.energy_terms
            and a.time_total == b.time_total
            and a.energy_total == b.energy_total
        )

    with tempfile.TemporaryDirectory() as tmp:
        cache = RunCache(_Path(tmp) / "cache")
        cold_ledger = Ledger(_Path(tmp) / "cold.jsonl")
        cold = run_sweep(cells, ledger=cold_ledger, cache=cache, workers=2)
        warm_ledger = Ledger(_Path(tmp) / "warm.jsonl")
        warm = run_sweep(cells, ledger=warm_ledger, cache=cache, workers=2)
        live_cold = all(
            identical(live[cid], cold.records[cid]) for cid in live
        )
        cold_warm = all(
            identical(cold.records[cid], warm.records[cid]) for cid in live
        )
        # Append order follows completion, which dispatch makes
        # scheduling-dependent: match the two ledgers up by cell.
        def by_cell(ledger):
            return {r.extra["sweep"]["cell"]: r for r in ledger.records()}

        cold_rows, warm_rows = by_cell(cold_ledger), by_cell(warm_ledger)
        ledger_faithful = set(cold_rows) == set(warm_rows) == set(live) and all(
            cold_rows[cid].counts == warm_rows[cid].counts
            and cold_rows[cid].vtimes == warm_rows[cid].vtimes
            for cid in live
        )
        crashed = run_sweep(
            cells, workers=2, crash_plan={0: 1}, max_requeues=2
        )
        crash_complete = (
            crashed.requeues >= 1
            and crashed.failed == 0
            and all(
                identical(live[cid], crashed.records[cid]) for cid in live
            )
        )
    speedup = cold.elapsed / warm.elapsed if warm.elapsed else float("inf")
    _check(
        checks, "sweep:cold_all_simulated",
        cold.simulated == len(cells) and cold.hits == 0,
        f"cold pass simulated {cold.simulated}/{len(cells)} cells",
    )
    _check(
        checks, "sweep:warm_all_hits",
        warm.hits == len(cells) and warm.simulated == 0,
        f"warm pass hit cache on {warm.hits}/{len(cells)} cells",
    )
    _check(
        checks, "sweep:live_cold_identical", live_cold,
        "sharded cold records bit-match in-process runs "
        "(counts, vtimes, Eq. (1)/(2) terms)",
    )
    _check(
        checks, "sweep:cold_warm_identical", cold_warm,
        "cache replay bit-matches the run that populated it",
    )
    _check(
        checks, "sweep:ledger_identical", ledger_faithful,
        "cold and warm ledgers carry identical counts and clocks",
    )
    _check(
        checks, "sweep:warm_speedup", speedup >= 5.0,
        f"warm {warm.elapsed:.4g} s vs cold {cold.elapsed:.4g} s "
        f"({speedup:.1f}x, floor 5x)",
    )
    _check(
        checks, "sweep:crash_requeue", crash_complete,
        f"worker crash requeued cleanly ({crashed.requeues} requeue(s), "
        f"{len(crashed.records)}/{len(cells)} records recovered)",
    )
    return {
        "cells": len(cells),
        "cold_seconds": cold.elapsed,
        "warm_seconds": warm.elapsed,
        "speedup": speedup,
        "warm_hits": warm.hits,
        "requeues": crashed.requeues,
    }


def append_to_ledger(report: dict, ledger_path: Path) -> None:
    """Append the gate outcome to the observatory run ledger."""
    from repro.observatory import Ledger, RunRecord

    Ledger(ledger_path).append(
        RunRecord.bench(
            workload="bench_regress",
            params={"smoke": report["smoke"]},
            extra={
                "ok": report["ok"],
                "failed": [c["name"] for c in report["checks"] if not c["ok"]],
            },
            label="bench regression gate",
        )
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="smallest configuration (CI gate)")
    ap.add_argument("--structural-only", action="store_true",
                    help="check the committed baselines without re-running "
                    "any benchmark")
    ap.add_argument(
        "--output", type=Path, default=RESULTS_DIR / "bench_regress.json",
        help="where to write the JSON report (default benchmarks/results/)",
    )
    args = ap.parse_args(argv)

    # Allow running both as `python benchmarks/bench_regress.py` and via
    # an importer that didn't put benchmarks/ on the path.
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    checks: list[dict] = []
    baselines = check_baselines(REPO_ROOT, checks)
    fresh: dict[str, dict] = {}
    if not args.structural_only:
        runners = {
            "BENCH_simmpi.json": regress_simmpi,
            "BENCH_trace_overhead.json": regress_trace,
            "BENCH_power_overhead.json": regress_power,
        }
        for fname, runner in runners.items():
            if fname not in baselines:
                continue  # structural failure already recorded
            print(f"\n== {fname} ==")
            fresh[fname] = runner(baselines[fname], args.smoke, checks)
        print("\n== fault hooks (disabled path) ==")
        fresh["faults_disabled_path"] = regress_faults(args.smoke, checks)
        print("\n== collective fast path (exact equivalence) ==")
        fresh["fastpath_equivalence"] = regress_fastpath(args.smoke, checks)
        print("\n== run-ledger record hook (disabled path) ==")
        fresh["record_disabled_path"] = regress_record(args.smoke, checks)
        print("\n== differential conformance grid (structural) ==")
        fresh["conformance_grid"] = regress_conformance(args.smoke, checks)
        print("\n== sharded sweep engine (cache bit-identity) ==")
        fresh["sweep_cache_identity"] = regress_sweep(args.smoke, checks)

    ok = all(c["ok"] for c in checks)
    report = {
        "schema": SCHEMA,
        "smoke": args.smoke,
        "ok": ok,
        "checks": checks,
        "fresh": fresh,
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    append_to_ledger(report, RESULTS_DIR / "ledger.jsonl")
    failed = sum(1 for c in checks if not c["ok"])
    print(
        f"\n{len(checks)} checks, {failed} failed — report at {args.output}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
