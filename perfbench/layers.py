"""The traced run: wrap the layers' public functions in spans, run the
workload's own rounds, and turn spans into per-layer metrics.

A traced round is the workload's round, run in this process: the sweeps
call ``run_sweep(workers=0)``, which keeps every span here, and
traced-analysis runs its analyses as in the timed run. A layer the
workload never reaches reports 0. Counts and times marked ``/round`` are
means over the traced rounds. After the rounds the sweeps run companion
passes (warm cache replay, pool versus spawn, oracles), and every
workload runs the p=4096 tail probe; these have their own metrics.
"""

from __future__ import annotations

import gc
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import repro.analysis.powertrace as powertrace
import repro.analysis.profiler as profiler
import repro.analysis.timeline as timeline
import repro.observatory.ledger as ledger
import repro.simmpi as simmpi
import repro.simmpi.collectives as collectives
import repro.simmpi.engine as engine
import repro.simmpi.fastpath as fastpath
import repro.sweep as sweep
import repro.sweep.cache as cache
import repro.sweep.runner as runner
from spans import Tracer, outermost
from workloads import check_scenario_oracle, fresh_dir, oracle_for

#: Per-layer metrics: name -> unit. Every traced run prints all of them.
PER_LAYER = {
    "cli.import_s": "s",
    "core.codesign.import_s": "s",
    "sweep.plan_s": "s",
    "sweep.fingerprint_s": "s",
    "sweep.build_program_s": "s/round",
    "sweep.executor_overhead_s": "s/round",
    "sweep.cache_put_s": "s/round",
    "sweep.cache_put_bytes": "B/round",
    "sweep.cache_get_s": "s",
    "observatory.record_s": "s/round",
    "observatory.ledger_append_s": "s/round",
    "observatory.ledger_bytes": "B/round",
    "simmpi.run_s.p50": "s",
    "simmpi.run_s.p95": "s",
    "simmpi.pool_over_spawn": "ratio",
    "simmpi.sys_share": "ratio",
    "simmpi.threads_peak": "count",
    "simmpi.collective_calls": "count/round",
    "simmpi.collective_s": "s/round",
    "simmpi.fastpath_resolves": "count/round",
    "simmpi.fastpath_resolve_s": "s/round",
    "simmpi.p2p_calls": "count/round",
    "simmpi.p2p_s": "s/round",
    "simmpi.kernel_s": "s/round",
    "simmpi.events": "count/round",
    "analysis.timeline_s": "s/round",
    "analysis.critical_path_s": "s/round",
    "analysis.profile_s": "s/round",
    "analysis.power_s": "s/round",
    "analysis.export_s": "s/round",
    "analysis.trace_json_bytes": "B/round",
    "conformance.oracle_over_run": "ratio",
    "simmpi.p4096_s.p50": "s",
    "simmpi.p4096_s.max": "s",
    "layers.cell_wall_s": "s/round",
    "layers.cell_cpu_s": "s/round",
    "layers.uncovered_s": "s/round",
    "layers.coverage": "ratio",
}

TAIL_TIMEOUT_S = 45.0

#: Spans charged in process CPU: the coverage compares the rank threads'
#: CPU with all the CPU the process spent inside these calls.
PROCESS_CPU_SPANS = ("simmpi.run",)


def install(tracer: Tracer) -> dict:
    """Wrap every layer boundary. Returns live counters the wrappers
    bump (fast-path resolutions inside traced worlds)."""
    seen = {"traced_resolves": 0}

    def ranked(program):
        def rank_body(comm, *args, **kwargs):
            return tracer.call("simmpi.rank", program, comm, *args, **kwargs)

        return rank_body

    def pool_args(args, kwargs):  # SpmdPool.run(self, size, program, ...)
        return (*args[:2], ranked(args[2]), *args[3:]), kwargs

    def spmd_args(args, kwargs):  # run_spmd(size, program, ...)
        return (args[0], ranked(args[1]), *args[2:]), kwargs

    def resolve_args(args, kwargs):  # resolve(world, group, inputs)
        if args[0].event_logs is not None:
            seen["traced_resolves"] += 1
        return args, kwargs

    w = tracer.wrap
    w(runner, "build_cell_program", "sweep.build_program")
    w(sweep, "build_cell_program", "sweep.build_program")
    w(cache.RunCache, "put", "sweep.cache_put")
    w(cache.RunCache, "get", "sweep.cache_get")
    w(ledger.RunRecord, "from_result", "observatory.record")
    w(ledger.Ledger, "append", "observatory.ledger_append")
    w(simmpi.SpmdPool, "run", "simmpi.run", pool_args)
    w(simmpi, "run_spmd", "simmpi.run", spmd_args)
    w(engine, "run_spmd", "simmpi.run", spmd_args)
    for op in sweep.COLLECTIVE_OPS:
        w(collectives, op, "simmpi.collective")
    w(fastpath, "resolve", "simmpi.fastpath_resolve", resolve_args)
    for op in ("send", "recv", "sendrecv", "shift"):
        w(simmpi.Comm, op, "simmpi.p2p")
    w(timeline.Timeline, "from_result", "analysis.timeline")
    w(timeline.Timeline, "critical_path", "analysis.critical_path")
    w(timeline.Timeline, "save_chrome_trace", "analysis.export")
    w(profiler.ModelProfile, "from_result", "analysis.profile")
    w(powertrace.PowerTrace, "from_result", "analysis.power")
    return seen


def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def tail_probe(here: Path, root: Path, budget_s: float) -> list[float]:
    """Run the p=4096 fast-path bcast cell a few times in a subprocess
    under a timeout. A rep cut by the timeout counts as the time it had
    run so far (a lower bound on the tail)."""
    cmd = [sys.executable, str(here / "child.py"), "--role", "tail"]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, min(TAIL_TIMEOUT_S, budget_s)))
        cut = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        cut = True
    lines = out.split()
    if not lines:
        return []
    started = float(lines[0])  # the child's monotonic clock at its first rep
    times = [float(x) for x in lines[1:]]
    if cut:
        times.append(time.monotonic() - started - sum(times))
    return times


def run_traced(wl, seconds: float, workdir: Path, here: Path, root: Path,
               tracer: Tracer, seen: dict, setup: dict, stop_by: float) -> dict:
    """Traced rounds plus companion passes; returns the child's result."""
    attempted = failed = 0
    failures: dict = {}
    rounds = 0
    exec_overhead = cache_bytes = ledger_bytes = trace_bytes = events = 0.0
    threads_peak = _threads()
    first = len(tracer.spans)
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        round_dir = fresh_dir(workdir / f"round{rounds % 2}")
        res = wl.run_round(wl.cells, round_dir, workers=0)
        wl.check_round(wl.cells, res)
        rounds += 1
        attempted += res.cells
        failed += len(res.failures)
        failures.update(res.failures)
        if wl.kind == "sweep":
            out = res.outcome
            exec_overhead += out.elapsed - sum(o.wall_seconds for o in out.outcomes) / max(
                1, out.workers
            )
            cache_bytes += _tree_bytes(round_dir / "cache")
            ledger_bytes += (round_dir / "ledger.jsonl").stat().st_size
        trace_bytes += res.trace_bytes
        events += res.events
        threads_peak = max(threads_peak, _threads())
        if time.perf_counter() >= deadline:
            break
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    in_rounds = tracer.spans[first:]
    if seen["traced_resolves"]:
        failed += 1
        failures["fastpath"] = f"{seen['traced_resolves']} resolves inside traced worlds"

    cache_get = pool_over_spawn = oracle_over_run = 0.0
    if wl.kind == "sweep":
        # Warm second pass over the last round's cache: every cell a
        # hit, bit-identical to the cold records.
        mark = len(tracer.spans)
        warm = sweep.run_sweep(wl.cells, cache=sweep.RunCache(round_dir / "cache"), workers=0)
        attempted += len(wl.cells)
        cold = res.outcome.records
        status = {o.cell_id: o.status for o in warm.outcomes}
        for cell in wl.cells:
            rec, ref = warm.records.get(cell.cell_id), cold.get(cell.cell_id)
            if status.get(cell.cell_id) != "hit" or rec is None or ref is None or (
                rec.counts, rec.vtimes) != (ref.counts, ref.vtimes):
                failed += 1
                failures[cell.cell_id] = "warm replay is not a bit-identical hit"
        cache_get = tracer.self_times(tracer.spans[mark:]).get("sweep.cache_get", 0.0)
    tracer.uninstall()

    if wl.kind == "sweep":
        # Pool versus spawn, and oracle time versus run time, untraced.
        took = {True: 0.0, False: 0.0}  # use_pool -> seconds
        oracle_s = 0.0
        for i, cell in enumerate(wl.cells):
            for use_pool in (True, False) if i % 2 else (False, True):
                t = time.perf_counter()
                record = sweep.execute_cell(cell, use_pool=use_pool)
                took[use_pool] += time.perf_counter() - t
            t = time.perf_counter()
            oracle = oracle_for(cell)
            oracle_s += time.perf_counter() - t
            attempted += 1
            why = None if cell.workload.startswith("coll:") else check_scenario_oracle(
                cell, record, oracle
            )
            if why:
                failed += 1
                failures[cell.cell_id] = why
        pool_over_spawn = took[False] / took[True]
        oracle_over_run = oracle_s / took[True]

    tail = tail_probe(here, root, stop_by - time.monotonic())

    selfs = tracer.self_times(in_rounds)
    runs = [s for s in in_rounds if s.name == "simmpi.run"]
    run_walls = [s.wall / 1e9 for s in runs]
    rank_cpu = sum(
        selfs.get(n, 0.0)
        for n in ("simmpi.rank", "simmpi.p2p", "simmpi.collective", "simmpi.fastpath_resolve")
    )
    cell_wall = sum(run_walls)
    cell_cpu = sum(s.cpu for s in runs) / 1e9
    user = ru1.ru_utime - ru0.ru_utime
    system = ru1.ru_stime - ru0.ru_stime
    n_coll = outermost(in_rounds, "simmpi.collective")
    n_p2p = outermost(in_rounds, "simmpi.p2p")
    n_resolve = sum(1 for s in in_rounds if s.name == "simmpi.fastpath_resolve")

    def per_round(name):
        return selfs.get(name, 0.0) / rounds

    q = statistics.quantiles(run_walls, n=20) if len(run_walls) > 1 else run_walls * 19
    metrics = {
        "cli.import_s": setup["cli_import_s"],
        "sweep.plan_s": setup["plan_s"],
        "sweep.fingerprint_s": setup["fingerprint_s"],
        "sweep.build_program_s": per_round("sweep.build_program"),
        "sweep.executor_overhead_s": exec_overhead / rounds,
        "sweep.cache_put_s": per_round("sweep.cache_put"),
        "sweep.cache_put_bytes": cache_bytes / rounds,
        "sweep.cache_get_s": cache_get,
        "observatory.record_s": per_round("observatory.record"),
        "observatory.ledger_append_s": per_round("observatory.ledger_append"),
        "observatory.ledger_bytes": ledger_bytes / rounds,
        "simmpi.run_s.p50": statistics.median(run_walls),
        "simmpi.run_s.p95": q[18],
        "simmpi.pool_over_spawn": pool_over_spawn,
        "simmpi.sys_share": system / (user + system) if user + system else 0.0,
        "simmpi.threads_peak": threads_peak,
        "simmpi.collective_calls": n_coll / rounds,
        "simmpi.collective_s": per_round("simmpi.collective"),
        "simmpi.fastpath_resolves": n_resolve / rounds,
        "simmpi.fastpath_resolve_s": per_round("simmpi.fastpath_resolve"),
        "simmpi.p2p_calls": n_p2p / rounds,
        "simmpi.p2p_s": per_round("simmpi.p2p"),
        "simmpi.kernel_s": per_round("simmpi.rank"),
        "simmpi.events": events / rounds,
        "analysis.timeline_s": per_round("analysis.timeline"),
        "analysis.critical_path_s": per_round("analysis.critical_path"),
        "analysis.profile_s": per_round("analysis.profile"),
        "analysis.power_s": per_round("analysis.power"),
        "analysis.export_s": per_round("analysis.export"),
        "analysis.trace_json_bytes": trace_bytes / rounds,
        "conformance.oracle_over_run": oracle_over_run,
        "simmpi.p4096_s.p50": statistics.median(tail) if tail else 0.0,
        "simmpi.p4096_s.max": max(tail) if tail else 0.0,
        "layers.cell_wall_s": cell_wall / rounds,
        "layers.cell_cpu_s": cell_cpu / rounds,
        "layers.uncovered_s": (cell_cpu - rank_cpu) / rounds,
        "layers.coverage": rank_cpu / cell_cpu if cell_cpu else 0.0,
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": dict(list(failures.items())[:10]),
        "metrics": {k: {"value": v, "unit": PER_LAYER[k]} for k, v in metrics.items()},
        "rounds": rounds,
    }
