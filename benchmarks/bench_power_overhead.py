"""Wall-clock cost of post-hoc power-trace analysis — and proof it is
post-hoc.

The power telemetry layer (:mod:`repro.analysis.powertrace`) runs
entirely on the event logs a traced run already produced; it promises
to never touch the simulation hot path. This benchmark guards both
halves of that promise:

* **Zero simulation impact** — a traced run followed by PowerTrace
  analysis and an identical traced run with no analysis must produce
  bit-identical per-rank counts AND virtual clocks. The analysis only
  *reads* the finished logs, so any divergence is a bug, checked
  exactly (``counts_identical``, ``vtimes_identical``).
* **Bounded analysis cost** — building the per-rank traces plus the
  machine envelope is O(events log events) pure Python; its wall-clock
  is measured against the run's own wall-clock and reported as
  ``analysis_ratio`` so a quadratic regression in the sweep shows up
  PR over PR.

The workload is ``bench_trace_overhead.py``'s point-to-point-heavy ring
(imported from there) — one send+recv+flops event triple per rank
per round, the densest event stream per simulated second and therefore
the worst case for the analysis loop.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_power_overhead.py
    PYTHONPATH=src python benchmarks/bench_power_overhead.py --smoke
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path

from bench_trace_overhead import ring_heavy
from repro.analysis.powertrace import PowerTrace
from repro.analysis.validation import default_machine
from repro.simmpi import SpmdPool

SCHEMA = "bench_power_overhead/v1"
DEFAULT_SIZES = (8, 32)


def run_benchmark(
    sizes=DEFAULT_SIZES,
    words: int = 64,
    rounds: int = 200,
    repeats: int = 5,
    timeout: float = 120.0,
) -> dict:
    machine = default_machine()
    results = []
    analysis_ratio = {}
    counts_identical = True
    vtimes_identical = True

    with SpmdPool() as pool:
        for p in sizes:
            kwargs = dict(machine=machine, timeout=timeout, trace=True)
            pool.run(p, ring_heavy, words, rounds, **kwargs)  # warmup
            run_times, analysis_times = [], []
            plain = analyzed = None
            for _ in range(repeats):
                start = time.perf_counter()
                plain = pool.run(p, ring_heavy, words, rounds, **kwargs)
                run_times.append(time.perf_counter() - start)
                start = time.perf_counter()
                analyzed = pool.run(p, ring_heavy, words, rounds, **kwargs)
                pt = PowerTrace.from_result(analyzed, machine)
                pt.peak_watts  # force the envelope sweep
                analysis_times.append(time.perf_counter() - start)
            if (
                plain.report.counts_signature()
                != analyzed.report.counts_signature()
            ):
                counts_identical = False
                print(f"p={p}: COUNTS DIVERGE WITH POWER ANALYSIS ON")
            if tuple(r.vtime for r in plain.report.ranks) != tuple(
                r.vtime for r in analyzed.report.ranks
            ):
                vtimes_identical = False
                print(f"p={p}: VIRTUAL CLOCKS DIVERGE WITH POWER ANALYSIS ON")
            # analysis-only cost: (run+analysis) best minus run best
            analysis_s = max(0.0, min(analysis_times) - min(run_times))
            ratio = (min(analysis_times)) / min(run_times)
            analysis_ratio[str(p)] = ratio
            results.append(
                {
                    "p": p,
                    "run_best_s": min(run_times),
                    "run_median_s": statistics.median(run_times),
                    "analysis_best_s": analysis_s,
                    "events_priced": sum(
                        rt.messages for rt in pt.ranks
                    ),
                    "envelope_segments": len(pt.envelope),
                }
            )
            print(
                f"p={p:4d} run best={min(run_times):.4f}s "
                f"analysis={analysis_s:.4f}s "
                f"(run+analysis)/run={ratio:.3f}x"
            )

    return {
        "schema": SCHEMA,
        "workload": {"kind": "ring_heavy", "words": words, "rounds": rounds},
        "repeats": repeats,
        "results": results,
        "analysis_ratio": analysis_ratio,
        "counts_identical": counts_identical,
        "vtimes_identical": vtimes_identical,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--words", type=int, default=64,
                    help="payload elements per shift (default 64)")
    ap.add_argument("--rounds", type=int, default=200,
                    help="ring rounds per run (default 200)")
    ap.add_argument("--repeats", type=int, default=5,
                    help="timed repetitions per configuration (default 5)")
    ap.add_argument("--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES),
                    help="rank counts to benchmark (default 8 32)")
    ap.add_argument("--timeout", type=float, default=120.0,
                    help="simulator deadlock watchdog seconds (default 120)")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny fast configuration for CI (p=4, 20 rounds)")
    ap.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent / "results"
        / "BENCH_power_overhead.json",
        help="where to write the JSON report (default benchmarks/results/)",
    )
    args = ap.parse_args(argv)
    if args.words < 1 or args.rounds < 1 or args.repeats < 1:
        ap.error("--words, --rounds and --repeats must all be >= 1")
    if any(p < 1 for p in args.sizes):
        ap.error("--sizes entries must be >= 1")
    if args.smoke:
        args.sizes, args.rounds, args.repeats = [4], 20, 2

    report = run_benchmark(
        sizes=tuple(args.sizes),
        words=args.words,
        rounds=args.rounds,
        repeats=args.repeats,
        timeout=args.timeout,
    )
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    if not (report["counts_identical"] and report["vtimes_identical"]):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
