"""Wall-clock benchmark of the simmpi execution substrate.

Times the three optimization axes this repo's simulator exposes —

* executor: the ``spawn`` rows go through :func:`repro.simmpi.run_spmd`
  and the ``pool`` rows through a private :class:`repro.simmpi.SpmdPool`.
  The names are historical: ``run_spmd`` spawned ``p`` threads per
  call until it moved onto the process-wide pool's threads, so both
  rows now run on reused rank threads and differ only in entry point
  and home CPU, and ``speedup`` below measures mostly the payload axis;
* payload transport: legacy deep-``copy``-per-hop vs copy-on-write
  (``cow``) frozen payloads;
* collective engine: the faithful ``message`` simulation (every
  envelope crosses a mailbox) vs the analytic ``fast`` path
  (:mod:`repro.simmpi.fastpath`), which resolves each collective once
  per world in closed form —

on a broadcast-heavy workload (the worst case for per-hop copying: a
binomial tree moves the payload p-1 times per round). The full grid
runs at p ∈ {16, 64, 256}; the fast path additionally unlocks
p ∈ {1024, 4096}, where only the pooled configurations are timed (the
seed ``spawn+copy`` configuration is impractical there — which is the
point). Emits a machine-readable ``BENCH_simmpi.json`` and appends a
``kind="bench"`` headline record to the run ledger
(``benchmarks/results/ledger.jsonl``, gitignored) so the perf
trajectory is tracked PR over PR and plotted by ``repro observe
report``. Reported speedups:

* ``speedup`` — seed ``spawn+copy`` over ``pool+cow``, both on the
  message path (the historical headline, gated by bench_regress at
  >= 1.2x against the committed ``BENCH_simmpi.json``, which predates
  the shared threads);
* ``fastpath_speedup`` — ``pool+cow`` message path over fast path;
* ``speedup_vs_seed`` — seed ``spawn+copy`` message path over
  ``pool+cow`` fast path (the end-to-end win of this repo's substrate
  work).

Every configuration's per-rank counts are checked bit-identical before
any timing is trusted — including fast vs message path at every p.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_simmpi_perf.py
    PYTHONPATH=src python benchmarks/bench_simmpi_perf.py \\
        --words 131072 --rounds 2 --repeats 5 --output BENCH_simmpi.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path

import numpy as np

from repro.simmpi import SpmdPool, run_spmd

SCHEMA = "bench_simmpi_perf/v2"
DEFAULT_SIZES = (16, 64, 256)
DEFAULT_LARGE_SIZES = (1024, 4096)


def bcast_heavy(comm, words: int, rounds: int) -> float:
    """Each round: root broadcasts a ``words``-element array, every rank
    folds it into a local checksum (so the buffer is actually read)."""
    total = 0.0
    for r in range(rounds):
        data = np.full(words, float(r), dtype=np.float64) if comm.rank == 0 else None
        got = comm.bcast(data, root=0)
        total += float(np.asarray(got)[0]) + float(np.asarray(got)[-1])
    return total


def _time_config(
    runner,
    p: int,
    words: int,
    rounds: int,
    repeats: int,
    timeout: float,
    payload_mode: str,
    fastpath: bool,
):
    """One (executor, payload_mode, engine, p) cell: warmup + timed
    repeats. Returns (times, result) where ``result`` is the warmup
    SpmdResult used for the counts-identity check."""
    kwargs = dict(timeout=timeout, payload_mode=payload_mode, fastpath=fastpath)
    warmup = runner(p, bcast_heavy, words, rounds, **kwargs)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        runner(p, bcast_heavy, words, rounds, **kwargs)
        times.append(time.perf_counter() - start)
    return times, warmup


def run_benchmark(
    sizes=DEFAULT_SIZES,
    large_sizes=(),
    words: int = 1 << 16,
    rounds: int = 3,
    repeats: int = 3,
    timeout: float = 120.0,
) -> dict:
    results = []
    speedup = {}
    fastpath_speedup = {}
    speedup_vs_seed = {}
    counts_identical = True

    with SpmdPool() as pool:
        # (executor, payload_mode, fastpath) cells per p. Small sizes run
        # the full historical grid plus the fast path; large sizes skip
        # the spawn executor and the copy transport (pool+cow is the only
        # configuration anyone would run there).
        small_grid = [
            ("spawn", "copy", False),
            ("spawn", "cow", False),
            ("pool", "copy", False),
            ("pool", "cow", False),
            ("pool", "cow", True),
        ]
        large_grid = [
            ("pool", "cow", False),
            ("pool", "cow", True),
        ]
        executors = {"spawn": run_spmd, "pool": pool.run}
        plan = [(p, small_grid) for p in sizes] + [
            (p, large_grid) for p in large_sizes
        ]
        for p, grid in plan:
            cell_times = {}
            signatures = {}
            for exec_name, mode, fast in grid:
                times, out = _time_config(
                    executors[exec_name], p, words, rounds, repeats, timeout,
                    mode, fast,
                )
                engine = "fast" if fast else "message"
                cell_times[(exec_name, mode, fast)] = times
                signatures[(exec_name, mode, fast)] = out.report.counts_signature()
                results.append(
                    {
                        "p": p,
                        "executor": exec_name,
                        "payload_mode": mode,
                        "fastpath": fast,
                        "best_s": min(times),
                        "median_s": statistics.median(times),
                        "times_s": times,
                    }
                )
                print(
                    f"p={p:4d} {exec_name:5s}+{mode:4s}+{engine:7s} "
                    f"best={min(times):.4f}s "
                    f"median={statistics.median(times):.4f}s"
                )
            baseline_sig = signatures[grid[0]]
            if any(sig != baseline_sig for sig in signatures.values()):
                counts_identical = False
                print(f"p={p}: COUNTS DIVERGE ACROSS CONFIGURATIONS")
            pool_cow_msg = min(cell_times[("pool", "cow", False)])
            pool_cow_fast = min(cell_times[("pool", "cow", True)])
            fastpath_speedup[str(p)] = pool_cow_msg / pool_cow_fast
            print(
                f"p={p:4d} fastpath speedup (pool+cow message -> fast): "
                f"{fastpath_speedup[str(p)]:.2f}x"
            )
            if ("spawn", "copy", False) in cell_times:
                seed = min(cell_times[("spawn", "copy", False)])
                speedup[str(p)] = seed / pool_cow_msg
                speedup_vs_seed[str(p)] = seed / pool_cow_fast
                print(
                    f"p={p:4d} speedup (spawn+copy -> pool+cow): "
                    f"{speedup[str(p)]:.2f}x; vs seed incl. fast path: "
                    f"{speedup_vs_seed[str(p)]:.2f}x"
                )

    return {
        "schema": SCHEMA,
        "workload": {"kind": "bcast_heavy", "words": words, "rounds": rounds},
        "repeats": repeats,
        "results": results,
        "speedup": speedup,
        "fastpath_speedup": fastpath_speedup,
        "speedup_vs_seed": speedup_vs_seed,
        "counts_identical": counts_identical,
    }


def append_to_ledger(report: dict, ledger_path: Path) -> None:
    """Append the benchmark headline to the observatory run ledger."""
    from repro.observatory import Ledger, RunRecord

    extra = {
        "speedup": report["speedup"],
        "fastpath_speedup": report["fastpath_speedup"],
        "speedup_vs_seed": report["speedup_vs_seed"],
        "counts_identical": report["counts_identical"],
        "best_s": {
            f"p{r['p']}:{r['executor']}+{r['payload_mode']}"
            + ("+fast" if r["fastpath"] else ""): r["best_s"]
            for r in report["results"]
        },
    }
    Ledger(ledger_path).append(
        RunRecord.bench(
            workload="bench_simmpi_perf",
            params=dict(report["workload"], repeats=report["repeats"]),
            extra=extra,
            label="simmpi substrate wall-clock grid",
        )
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--words", type=int, default=1 << 16,
                    help="payload elements per broadcast (default 65536)")
    ap.add_argument("--rounds", type=int, default=3,
                    help="broadcast rounds per run (default 3)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timed repetitions per configuration (default 3)")
    ap.add_argument("--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES),
                    help="rank counts for the full grid (default 16 64 256)")
    ap.add_argument("--large-sizes", type=int, nargs="*",
                    default=list(DEFAULT_LARGE_SIZES),
                    help="rank counts for the pool+cow-only fast-path rows "
                    "(default 1024 4096; pass nothing to skip)")
    ap.add_argument("--timeout", type=float, default=120.0,
                    help="simulator deadlock watchdog seconds (default 120)")
    ap.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent / "results" / "BENCH_simmpi.json",
        help="where to write the JSON report (default benchmarks/results/)",
    )
    ap.add_argument(
        "--ledger", type=Path,
        default=Path(__file__).resolve().parent / "results" / "ledger.jsonl",
        help="observatory run ledger to append the headline record to "
        "(default benchmarks/results/ledger.jsonl; --no-ledger to skip)",
    )
    ap.add_argument("--no-ledger", action="store_true",
                    help="skip the run-ledger append")
    args = ap.parse_args(argv)
    if args.words < 1 or args.rounds < 1 or args.repeats < 1:
        ap.error("--words, --rounds and --repeats must all be >= 1")
    if any(p < 1 for p in args.sizes + args.large_sizes):
        ap.error("--sizes entries must be >= 1")

    report = run_benchmark(
        sizes=tuple(args.sizes),
        large_sizes=tuple(args.large_sizes),
        words=args.words,
        rounds=args.rounds,
        repeats=args.repeats,
        timeout=args.timeout,
    )
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    if not args.no_ledger:
        append_to_ledger(report, args.ledger)
        print(f"appended headline record to {args.ledger}")
    if not report["counts_identical"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
