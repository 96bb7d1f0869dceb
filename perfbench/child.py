"""The measured process: one fresh interpreter per run (or per set-up
probe), started by ``run.py``.

Roles:

* ``setup``   - import, plan, fingerprint and warm up, then report the
  set-up time and exit (``run.py`` takes the median over several);
* ``measure`` - the same set-up, then timed rounds of the workload until
  ``--seconds`` have passed (``--trace 1``: traced rounds and companion
  passes, see ``layers.py``);
* ``tail``    - run the p=4096 fast-path bcast cell :data:`TAIL_REPS`
  times, printing its start clock and then each time as it finishes.

Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

#: How often the traced run's tail probe runs the p=4096 cell.
TAIL_REPS = 3


def cpu_seconds() -> float:
    """User+sys CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or any reaped child, in MiB."""
    return max(
        resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def tail() -> None:
    from repro.analysis.validation import default_machine
    from repro.sweep import collective_cell, execute_cell

    cell = collective_cell("bcast", 4096, default_machine())
    print(time.monotonic(), flush=True)
    for _ in range(TAIL_REPS):
        t = time.perf_counter()
        execute_cell(cell)
        print(time.perf_counter() - t, flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("setup", "measure", "tail"), required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, help="run.py's monotonic clock at spawn")
    ap.add_argument("--workdir", type=Path)
    ap.add_argument("--stop-by", type=float, help="monotonic deadline for the whole run")
    args = ap.parse_args(argv)
    if args.role == "tail":
        tail()
        return 0

    t = time.perf_counter()
    import repro.cli  # noqa: F401 - the import set every `repro` command pays

    cli_import_s = time.perf_counter() - t
    import repro.observatory.ledger as ledger
    import repro.sweep as sweep
    import workloads

    tracer = seen = None
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer(process_cpu=layers.PROCESS_CPU_SPANS)
        seen = layers.install(tracer)

    t = time.perf_counter()
    wl = workloads.plan(args.workload, args.seed)
    plan_s = time.perf_counter() - t
    t = time.perf_counter()
    sweep.code_fingerprint()
    fingerprint_s = time.perf_counter() - t
    ledger.git_sha()  # once here, so forked sweep workers inherit it

    work = args.workdir
    warm = workloads.warmup_subset(wl.cells)
    warm_dir = workloads.fresh_dir(work / "warmup")
    res = wl.run_round(warm, warm_dir, workers=0 if tracer is not None else None)
    wl.check_round(warm, res)
    if res.failures:
        raise SystemExit(f"warm-up failed: {res.failures}")
    if tracer is not None:
        tracer.spans.clear()
    gc.collect()
    setup_s = time.monotonic() - args.t0
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if tracer is not None:
        setup = {
            "cli_import_s": cli_import_s,
            "plan_s": plan_s,
            "fingerprint_s": fingerprint_s,
        }
        result = layers.run_traced(
            wl, args.seconds, work, HERE, ROOT, tracer, seen, setup, args.stop_by
        )
        print(json.dumps(result))
        return 0

    rounds = []
    deadline = time.perf_counter() + args.seconds
    while True:
        gc.collect()
        round_dir = workloads.fresh_dir(work / f"round{len(rounds) % 2}")
        cpu0 = cpu_seconds()
        t = time.perf_counter()
        res = wl.run_round(wl.cells, round_dir)
        wall = time.perf_counter() - t
        cpu = cpu_seconds() - cpu0
        wl.check_round(wl.cells, res)
        rounds.append(
            {"cells": res.cells, "wall": wall, "cpu": cpu, "failures": res.failures}
        )
        if time.perf_counter() >= deadline:
            break
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "rounds": rounds,
                "peak_rss_mb": peak_rss_mb(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
