"""Benchmark regression gate: fresh numbers vs the committed baselines.

The repo commits three performance baselines at its root —
``BENCH_simmpi.json`` (pool+cow speedup over spawn+copy),
``BENCH_trace_overhead.json`` (traced/untraced wall-clock ratio) and
``BENCH_power_overhead.json`` (power-analysis/run wall-clock ratio).
This script is the regression gate over them. :data:`GATES` holds one
row per baseline and :func:`run_gates` reads every row the same way:

1. **Structural checks** — each baseline exists, parses, carries its
   expected ``schema`` tag, and recorded the correctness flags
   (``counts_identical``, ``vtimes_identical``) as true. These are hard
   failures: a baseline that says counts diverged should never have
   been committed.
2. **Fresh smoke measurements** — re-runs each benchmark's workload in
   a small configuration and compares the headline metric against the
   baseline through the row's bound. Bounds are deliberately loose (CI
   wall-clock is noisy and the smoke configuration is smaller than the
   baseline's): the gate catches order-of-magnitude regressions — a
   pool that stopped beating spawn, a hook path that got 2.5x slower —
   not single-digit drift.
3. The fresh runs' own correctness flags must hold (bit-identical
   counts with tracing or power analysis on or off) — these are
   exact, not tolerance-based.

The exact equivalence gates with no baseline (fault hooks off, the
collective fast path, the ``record=`` hook, the conformance grid and
the sweep cache) are tier-1 tests, not rows here.

Writes a ``bench_regress/v1`` report to ``benchmarks/results/`` and
exits nonzero on any violation. Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_regress.py --smoke
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"
SCHEMA = "bench_regress/v1"


def at_smallest_p(table: dict) -> tuple[float, str]:
    p = min(table, key=int)
    return table[p], f"p={p}"


def smallest(table: dict) -> tuple[float, str]:
    return min(table.values()), "min"


def largest(table: dict) -> tuple[float, str]:
    return max(table.values()), "max"


@dataclass(frozen=True)
class Gate:
    """One committed baseline and how a fresh run is held against it.

    ``metric`` names a per-p table in both the baseline and the fresh
    output; ``fresh_reduce`` and ``baseline_reduce`` pick one value out
    of each. A ``floor`` bound gates a metric that must stay high
    (speedups), a ``ceil`` one a metric that must stay low (overheads):
    the limit is ``max(abs, frac * baseline)``, so a very tight
    baseline never produces an impossible gate.
    """

    file: str
    schema: str
    baseline_flags: tuple[str, ...]
    label: str
    module: str
    smoke: dict
    full: dict
    #: (flag, what it means) pairs the fresh output must hold true
    fresh_flags: tuple[tuple[str, str], ...]
    metric: str
    fresh_reduce: Callable[[dict], tuple[float, str]]
    baseline_reduce: Callable[[dict], tuple[float, str]]
    bound: str  # "floor" or "ceil"
    abs: float
    frac: float


GATES = (
    Gate(
        file="BENCH_simmpi.json",
        schema="bench_simmpi_perf/v2",
        baseline_flags=("counts_identical",),
        label="simmpi",
        module="bench_simmpi_perf",
        smoke={"sizes": (8,), "words": 4096, "rounds": 2, "repeats": 2},
        full={"sizes": (16,), "words": 16384, "rounds": 2, "repeats": 3},
        fresh_flags=(("counts_identical", "pool/cow counts match spawn/copy"),),
        metric="speedup",
        fresh_reduce=smallest,
        baseline_reduce=at_smallest_p,
        bound="floor",
        abs=1.2,
        frac=0.12,
    ),
    Gate(
        file="BENCH_trace_overhead.json",
        schema="bench_trace_overhead/v1",
        baseline_flags=("counts_identical",),
        label="trace",
        module="bench_trace_overhead",
        smoke={"sizes": (8,), "rounds": 40, "repeats": 2},
        full={"sizes": (8,), "rounds": 100, "repeats": 3},
        fresh_flags=(("counts_identical", "traced counts match untraced"),),
        metric="overhead_ratio",
        fresh_reduce=largest,
        baseline_reduce=largest,
        bound="ceil",
        abs=2.5,
        frac=2.5,
    ),
    Gate(
        file="BENCH_power_overhead.json",
        schema="bench_power_overhead/v1",
        baseline_flags=("counts_identical", "vtimes_identical"),
        label="power",
        module="bench_power_overhead",
        smoke={"sizes": (8,), "rounds": 40, "repeats": 2},
        full={"sizes": (8,), "rounds": 100, "repeats": 3},
        fresh_flags=(
            ("counts_identical", "counts match with power analysis on or off"),
            ("vtimes_identical",
             "virtual clocks match with power analysis on or off"),
        ),
        metric="analysis_ratio",
        fresh_reduce=largest,
        baseline_reduce=largest,
        bound="ceil",
        abs=2.0,
        frac=2.5,
    ),
)


def _check(checks: list, name: str, ok: bool, detail: str) -> bool:
    checks.append({"name": name, "ok": bool(ok), "detail": detail})
    status = "ok  " if ok else "FAIL"
    print(f"[{status}] {name}: {detail}")
    return ok


def check_baseline(gate: Gate, root: Path, checks: list) -> dict | None:
    """Structural pass over one committed baseline; None if unreadable."""
    path = root / gate.file
    if not path.is_file():
        _check(checks, f"{gate.file}:exists", False, f"missing at {path}")
        return None
    try:
        data = json.loads(path.read_text())
    except ValueError as exc:
        _check(checks, f"{gate.file}:parses", False, str(exc))
        return None
    _check(
        checks,
        f"{gate.file}:schema",
        data.get("schema") == gate.schema,
        f"schema={data.get('schema')!r} expected={gate.schema!r}",
    )
    for flag in gate.baseline_flags:
        _check(
            checks,
            f"{gate.file}:{flag}",
            data.get(flag) is True,
            f"{flag}={data.get(flag)!r}",
        )
    return data


def run_bench(gate: Gate, smoke: bool) -> dict:
    """Run the row's benchmark in its smoke or full configuration."""
    bench = importlib.import_module(gate.module)
    return bench.run_benchmark(**(gate.smoke if smoke else gate.full))


def check_fresh(gate: Gate, baseline: dict, smoke: bool, checks: list) -> dict:
    """Re-run the row's benchmark and hold it against the baseline."""
    fresh = run_bench(gate, smoke)
    for flag, meaning in gate.fresh_flags:
        _check(checks, f"{gate.label}:{flag}(fresh)", fresh.get(flag), meaning)
    ref, where = gate.baseline_reduce(baseline[gate.metric])
    value, _ = gate.fresh_reduce(fresh[gate.metric])
    limit = max(gate.abs, gate.frac * ref)
    ok = value >= limit if gate.bound == "floor" else value <= limit
    _check(
        checks,
        f"{gate.label}:{gate.metric}",
        ok,
        f"fresh={value:.2f}x {gate.bound}={limit:.2f}x "
        f"(baseline {where}: {ref:.2f}x)",
    )
    return fresh


def run_gates(
    root: Path, smoke: bool, structural_only: bool, checks: list
) -> dict[str, dict]:
    """Every row's structural checks, then (unless ``structural_only``)
    every readable row's fresh run; returns the fresh outputs by file."""
    baselines = {g.file: check_baseline(g, root, checks) for g in GATES}
    fresh: dict[str, dict] = {}
    if structural_only:
        return fresh
    for gate in GATES:
        if baselines[gate.file] is None:
            continue  # structural failure already recorded
        print(f"\n== {gate.file} ==")
        fresh[gate.file] = check_fresh(
            gate, baselines[gate.file], smoke, checks
        )
    return fresh


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
    fresh = run_gates(REPO_ROOT, args.smoke, args.structural_only, checks)
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
