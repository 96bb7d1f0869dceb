"""Command-line interface: regenerate the paper's tables and figures.

    python -m repro table1          # Table I inputs + derived constants
    python -m repro table2          # Table II device survey
    python -m repro fig3            # strong-scaling limits series
    python -m repro fig4            # n-body (p, M) frontier summary
    python -m repro fig6            # independent parameter scaling
    python -m repro fig7            # joint parameter scaling
    python -m repro validate        # measured-vs-model sweeps (simulator)
    python -m repro questions       # Section V answers on Table I
    python -m repro report          # markdown report of every experiment
    python -m repro trace matmul25d # traced run: timeline + critical path
    python -m repro profile cannon  # per-term Eq. (1)/(2) attribution
    python -m repro faults          # crash a rank, recover from replicas
    python -m repro power matmul25d # time-resolved P(t) traces + caps
    python -m repro observe check   # run ledger, model fit, drift check
    python -m repro conformance     # cost oracles vs every execution mode
    python -m repro sweep run       # sharded, cached scenario sweeps

``trace`` and ``profile`` accept ``--json`` for machine-readable
output; ``profile --metrics-out`` dumps the run's metrics registry in
Prometheus text format.

Exit codes: 0 ok; 1 a usage error (one ``repro <cmd>: ...`` line on
stderr) or a ``broken`` drift verdict; 2 a ``degraded`` drift verdict
(``observe check``); 3 a power-cap violation (``power``); 4 a
conformance divergence; 5 a failed sweep cell (``sweep run``).

Everything prints the same rows the benchmark harness persists under
``benchmarks/results/`` — the CLI is the interactive face of the same
generators.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.exceptions import ParameterError, ReproError, SimulationError
from repro.scenarios import FAULT_SCENARIOS, SCENARIOS, build_scenario, get_scenario

#: The ``--help`` epilog of every subcommand that runs a scenario.
_WORKLOADS_EPILOG = "workloads:\n" + "\n".join(
    f"  {s.name:<10s} default p={s.p:<3d} n={s.n:<5d} {s.rule}"
    for s in SCENARIOS.values()
)


def _cmd_table1(_args) -> None:
    from repro.analysis.tables import render_table1

    print(render_table1())


def _cmd_table2(_args) -> None:
    from repro.analysis.tables import render_table2

    print(render_table2())


def _cmd_fig3(args) -> None:
    from repro.analysis.figures import figure3_series
    from repro.analysis.tables import render_series

    n = args.n
    s = figure3_series(n, n * n / 64.0, p_points=48 if args.plot else 17,
                       p_span=1024.0)
    if args.plot:
        from repro.analysis.asciiplot import line_plot

        print(
            line_plot(
                s["p"],
                {"classical": s["classical"], "strassen": s["strassen"]},
                logx=True,
                logy=True,
                title=(
                    f"Fig. 3 — (bandwidth cost x p) vs p  (n={n:g}; knees at "
                    f"{s['knee_strassen']:.0f} / {s['knee_classical']:.0f})"
                ),
                x_label="p",
            )
        )
        return
    print(
        render_series(
            "p",
            [f"{v:.5g}" for v in s["p"]],
            {
                "classical W*p": [f"{v:.5g}" for v in s["classical"]],
                "strassen W*p": [f"{v:.5g}" for v in s["strassen"]],
            },
            title=(
                f"Fig. 3 (n={n:g}): knees at p={s['knee_strassen']:.0f} "
                f"(Strassen) / p={s['knee_classical']:.0f} (classical)"
            ),
        )
    )


def _cmd_fig4(args) -> None:
    from repro.analysis.figures import figure4_series
    from repro.core.parameters import MachineParameters

    machine = MachineParameters(
        gamma_t=1e-9, beta_t=2e-8, alpha_t=1e-6,
        gamma_e=2e-9, beta_e=5e-8, alpha_e=1e-7,
        delta_e=5e-9, epsilon_e=1e-3,
        memory_words=1e8, max_message_words=1e5,
    )
    s = figure4_series(machine, n=1e6, interaction_flops=10.0)
    if args.plot:
        from repro.analysis.asciiplot import region_plot

        grid = s["grid"]
        layers = {
            ".feasible": grid.feasible,
            "E<=budget": s["energy_budget_region"],
            "T<=budget": s["time_budget_region"],
            "o M~M0": grid.feasible
            & (
                np.abs(np.log(np.meshgrid(s["p"], s["M"])[1] / s["M0"]))
                < np.log(s["M"][1] / s["M"][0])
            ),
        }
        print(
            region_plot(
                s["p"],
                s["M"],
                layers,
                title=(
                    f"Fig. 4 — n-body executions (M0={s['M0']:.4g}, "
                    f"E*={s['E_star']:.4g} J)"
                ),
                x_label="p",
                y_label="M (words)",
            )
        )
        return
    print(
        f"Fig. 4 summary (n=1e6, f=10): M0 = {s['M0']:.5g} words, "
        f"E* = {s['E_star']:.5g} J"
    )
    pairs = (
        ("energy_budget", "energy_budget_region"),
        ("time_budget", "time_budget_region"),
        ("proc_power_budget", "proc_power_region"),
        ("total_power_budget", "total_power_region"),
    )
    for budget_key, region_key in pairs:
        region = s[region_key]
        print(
            f"  {budget_key:22s} = {s[budget_key]:.5g}  -> "
            f"{int(region.sum())} admissible grid runs"
        )


def _cmd_fig6(args) -> None:
    from repro.analysis.figures import figure6_series
    from repro.analysis.tables import render_series

    s = figure6_series(generations=args.generations)
    print(
        render_series(
            "generation",
            list(range(args.generations + 1)),
            {k: [f"{v:.4f}" for v in vals] for k, vals in s.items()},
            title="Fig. 6 — GFLOPS/W, one energy parameter halved per generation",
        )
    )


def _cmd_fig7(args) -> None:
    from repro.analysis.figures import figure7_series
    from repro.analysis.tables import render_series
    from repro.machines.casestudy import generations_to_target

    s = figure7_series(generations=args.generations)
    print(
        render_series(
            "generation",
            list(range(args.generations + 1)),
            {"GFLOPS/W": [f"{v:.4f}" for v in s["joint"]]},
            title="Fig. 7 — joint halving of gamma_e, beta_e, delta_e",
        )
    )
    print(f"75 GFLOPS/W crossed at generation {generations_to_target(75.0):.2f}")


def _cmd_validate(_args) -> None:
    from repro.analysis.tables import render_scaling_points
    from repro.analysis.validation import scaling_points
    from repro.sweep import SweepSpec

    matmul = SweepSpec("matmul25d", n=96, q=6, c_values=(1, 2, 3))
    print(
        render_scaling_points(
            scaling_points(matmul, "matmul25d c={c}"),
            "2.5D matmul, fixed tiles (perfect strong scaling, measured):",
        )
    )
    print()
    nbody = [
        SweepSpec("nbody", n=96, p_values=(4 * c,), params={"c": c})
        for c in (1, 2, 4)
    ]
    print(
        render_scaling_points(
            scaling_points(nbody, "nbody c={c}"),
            "replicated n-body, fixed blocks:",
        )
    )
    print()
    fft = [
        SweepSpec("fft", n=1024, p_values=(2, 4, 8), params={"all_to_all": mode})
        for mode in ("naive", "bruck")
    ]
    print(
        render_scaling_points(
            scaling_points(fft, "fft {all_to_all} p={p}"), "FFT all-to-all trade:"
        )
    )


def _cmd_report(args) -> None:
    from repro.analysis.report import generate_report

    print(generate_report(quick=args.quick), end="")


def _cmd_questions(_args) -> None:
    from repro.core.optimize import NBodyOptimizer
    from repro.machines.catalog import JAKETOWN

    machine = JAKETOWN.replace(max_message_words=2.0**20, epsilon_e=1e-2)
    opt = NBodyOptimizer(machine, interaction_flops=20.0)
    n = 1e6
    m0 = opt.optimal_memory()
    print(f"Table I machine, n = {n:g} particles, f = 20 flops/pair")
    print(f"[1] M0 = {m0:.5g} words, E* = {opt.min_energy(n):.5g} J")
    t = opt.runtime_threshold_for_min_energy(n)
    q2 = opt.min_energy_given_runtime(n, t / 10)
    print(f"[2] tight deadline {t / 10:.4g}s -> p = {q2.p:.5g}, E = {q2.energy:.5g} J")
    q3 = opt.min_runtime_given_energy(n, opt.min_energy(n) * 1.2)
    print(f"[3] E <= 1.2 E* -> p = {q3.p:.5g}, T = {q3.time:.5g} s")
    q4 = opt.min_runtime_given_total_power(n, 100 * opt.processor_power(m0))
    print(f"[4] 100-processor power budget -> p = {q4.p:.5g}, T = {q4.time:.5g} s")
    print(f"[5] best efficiency = {opt.gflops_per_watt_optimal():.4f} GFLOPS/W")


# -- scenario runs ---------------------------------------------------------


def _traced_run(args, machine):
    """Run ``args.workload`` traced on ``machine`` at ``--p``/``--n`` (the
    scenario's defaults standing in), ``--capacity`` events per rank;
    return ``(out, label, p, n)``."""
    from repro.simmpi import run_spmd

    p, n = get_scenario(args.workload).size(args.p, args.n)
    program, prog_args, label = build_scenario(args.workload, p, n)
    out = run_spmd(
        p,
        program,
        *prog_args,
        machine=machine,
        trace=True,
        trace_capacity=args.capacity,
    )
    return out, label, p, n


def _cmd_trace(args) -> None:
    import json

    from repro.analysis.validation import default_machine

    out, label, p, n = _traced_run(args, default_machine())
    timeline = out.timeline()
    report = out.report
    if args.json:
        cp = timeline.critical_path() if not timeline.dropped else None
        payload = {
            "schema": "repro_trace/v1",
            "workload": args.workload,
            "label": label,
            "p": p,
            "n": n,
            "counts": {
                "total_flops": report.total_flops,
                "max_words": report.max_words,
                "max_messages": report.max_messages,
                "max_mem_peak": report.max_mem_peak,
            },
            "simulated_time": report.simulated_time,
            "dropped_events": timeline.dropped,
            "dropped_by_rank": timeline.dropped_by_rank(),
            "breakdown": timeline.breakdown(),
            "critical_path": None
            if cp is None
            else {
                "total": cp.total,
                "events": len(cp),
                "attribution": cp.attribution(),
            },
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"{label} on p={p}: {report.summary()}")
        if timeline.dropped:
            print(
                f"warning: {timeline.dropped} events dropped by ring "
                f"overflow; rerun with a larger --capacity"
            )
        print()
        print(timeline.render_breakdown())
        print()
        print(timeline.gantt(width=args.width))
        print()
        if timeline.dropped:
            print(
                f"critical path unavailable: {timeline.dropped} events were "
                f"dropped"
            )
        else:
            print(timeline.critical_path().render())
    if args.out:
        timeline.save_chrome_trace(args.out)
        if not args.json:
            print(
                f"\nwrote {args.out} — load it at https://ui.perfetto.dev "
                f"or chrome://tracing"
            )


def _cmd_profile(args) -> None:
    import json

    from repro.analysis.profiler import (
        ModelProfile,
        profile_strong_scaling_matmul,
        render_term_sweep,
    )
    from repro.analysis.validation import default_machine

    if args.sweep:
        if args.workload != "matmul25d":
            raise ParameterError(
                "--sweep is the fixed-tile 2.5D strong-scaling experiment and "
                "only supports matmul25d"
            )
        n = 48 if args.n is None else args.n
        profiles = profile_strong_scaling_matmul(n, q=4, c_values=(1, 2, 4))
        if args.json:
            payload = {
                "schema": "repro_profile_sweep/v1",
                "points": [prof.to_json() for prof in profiles],
            }
            print(json.dumps(payload, indent=2))
        else:
            print(render_term_sweep(profiles))
        return
    machine = default_machine()
    out, label, _p, _n = _traced_run(args, machine)
    profile = ModelProfile.from_result(out, machine, label=label)
    if args.json:
        print(json.dumps(profile.to_json(), indent=2))
    else:
        print(profile.render(width=args.width))
    if args.metrics_out:
        from repro.metrics import to_prometheus

        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(to_prometheus(out.metrics))
        if not args.json:
            print(f"\nwrote {args.metrics_out} (Prometheus text format)")


def _cmd_faults(args) -> None:
    import json

    from repro.algorithms.matmul25d import (
        assemble_resilient,
        layout_25d,
        matmul_25d_resilient,
    )
    from repro.analysis.profiler import ModelProfile
    from repro.analysis.validation import default_machine
    from repro.simmpi import FaultPlan, run_spmd

    if args.workload not in FAULT_SCENARIOS:
        raise ParameterError(
            f"scenario {args.workload!r} has no fault-recovery variant; "
            f"valid scenarios: {', '.join(FAULT_SCENARIOS)}"
        )
    machine = default_machine()
    p, n, c = args.p, args.n, args.c
    q = layout_25d(p, n, c)
    victim = args.rank if args.rank is not None else (q * c + c - 1)
    if not 0 <= victim < p:
        raise ParameterError(f"--rank {victim} outside 0..{p - 1}")
    plan = FaultPlan.single_crash(rank=victim, at_op=args.op)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    out = run_spmd(p, matmul_25d_resilient, a, b, c=c, machine=machine, faults=plan)
    product = assemble_resilient(out.results, n)
    correct = bool(np.allclose(product, a @ b))
    label = f"matmul25d_resilient(n={n}, c={c}, crash rank {victim})"
    profile = ModelProfile.from_result(out, machine, label=label)
    if args.json:
        payload = profile.to_json()
        payload["schema"] = "repro_faults/v1"
        payload["crashed"] = list(out.crashed)
        payload["correct"] = correct
        print(json.dumps(payload, indent=2))
    else:
        vi, vj, vk = victim // (q * c), (victim // c) % q, victim % c
        print(
            f"{label}: p={p} = {q}x{q}x{c} cuboid; injected crash at "
            f"rank {victim} = (i={vi}, j={vj}, layer {vk}), "
            f"op {args.op}"
        )
        print(f"crashed ranks: {list(out.crashed)}; product correct: {correct}")
        print(
            f"recovery counts: F_rec={out.report.total_recovery_flops:.6g} "
            f"W_rec={out.report.total_recovery_words} "
            f"S_rec={out.report.total_recovery_messages}"
        )
        print()
        print(profile.render(width=args.width))
    if not correct:
        raise SimulationError("recovered product does NOT match A @ B")


def _cmd_power(args) -> None:
    import json

    from repro.analysis.powertrace import PowerTrace, catalog_power_caps
    from repro.analysis.validation import default_machine

    machine = default_machine()
    out, label, p, _n = _traced_run(args, machine)
    pt = PowerTrace.from_result(out, machine, label=label)
    total_viol = pt.cap_violations(args.cap) if args.cap is not None else ()
    rank_viol = (
        pt.rank_cap_violations(args.per_rank_cap)
        if args.per_rank_cap is not None
        else ()
    )
    if args.json:
        payload = pt.to_json()
        payload["cap_watts"] = args.cap
        payload["per_rank_cap_watts"] = args.per_rank_cap
        payload["cap_violations"] = [
            {
                "rank": v.rank,
                "t0": v.t0,
                "t1": v.t1,
                "peak_watts": v.peak_watts,
            }
            for v in (*total_viol, *rank_viol)
        ]
        print(json.dumps(payload, indent=2))
    else:
        print(f"{label} on p={p}:")
        print(pt.render(width=args.width))
        caps = catalog_power_caps(p)
        print(
            f"catalog caps (Table I machine): per-processor "
            f"{caps.per_processor_watts:.2f} W, total "
            f"{caps.total_watts:.2f} W"
        )
        for v in total_viol:
            print(
                f"CAP VIOLATION (machine > {args.cap:g} W): "
                f"[{v.t0:.4g}, {v.t1:.4g}] s, peak {v.peak_watts:.4g} W"
            )
        for v in rank_viol:
            print(
                f"CAP VIOLATION (rank {v.rank} > {args.per_rank_cap:g} W): "
                f"[{v.t0:.4g}, {v.t1:.4g}] s, peak {v.peak_watts:.4g} W"
            )
    if args.perfetto_out:
        out.timeline().save_chrome_trace(args.perfetto_out, power=pt)
        if not args.json:
            print(
                f"\nwrote {args.perfetto_out} with power counter tracks "
                f"— load it at https://ui.perfetto.dev"
            )
    if total_viol or rank_viol:
        raise SystemExit(3)


# -- differential conformance ----------------------------------------------


def _cmd_conformance(args) -> None:
    """Run a conformance grid; exit 4 on any divergence."""
    from contextlib import nullcontext

    from repro.conformance import deliberately_perturbed, grid_cases, run_grid

    cases = grid_cases(args.grid, seed=args.seed, cells=args.cells)
    # --demo-divergence proves the harness detects a broken build: it
    # mis-meters every message-path send and demands the grid catch it.
    with deliberately_perturbed(extra_words=2) if args.demo_divergence else nullcontext():
        report = run_grid(cases, grid=args.grid, seed=args.seed, fail_limit=args.fail_limit)
    print(report.to_json() if args.json else report.summary())
    if not report.ok:
        raise SystemExit(4)


# -- scaling observatory ---------------------------------------------------

#: Default ledger location (gitignored alongside the benchmark results).
DEFAULT_LEDGER = "benchmarks/results/ledger.jsonl"

#: Default sweep-cache location (gitignored alongside the ledger).
DEFAULT_SWEEP_CACHE = "benchmarks/results/sweepcache"


def _record_cells(cells, ledger, cache=None):
    """Run ``cells`` in process through the sweep funnel, which appends
    each cell's record to ``ledger``; a failed cell raises."""
    from repro.sweep import run_sweep

    outcome = run_sweep(cells, ledger=ledger, cache=cache, workers=0)
    if not outcome.ok:
        bad = next(o for o in outcome.outcomes if o.status == "failed")
        raise SimulationError(f"sweep cell failed: {bad.error}") from bad.exception
    return outcome


def _observe_record_sweep(ledger, n: int) -> None:
    """Record the canonical fixed-tile matmul25d p-sweep into ``ledger``.

    Runs through the sweep engine so repeat invocations replay the
    content-addressed cache instead of re-simulating (``observe check``
    on an unchanged tree costs three file reads, not three runs). The
    cache lives in a ``sweepcache/`` sibling of the ledger, so a
    temporary ledger gets a temporary cache.
    """
    from pathlib import Path

    from repro.sweep import RunCache, smoke_spec

    cache = RunCache(str(Path(ledger.path).parent / "sweepcache"))
    _record_cells(smoke_spec(n).cells(), ledger, cache)


def _parse_inflate(spec: str) -> tuple[str, float]:
    """``--inflate TERM=FACTOR`` as (term, factor), checked in full
    before ``observe check`` records or reads anything."""
    from repro.observatory import inflate_term

    term, sep, factor = spec.partition("=")
    if not sep:
        raise ParameterError("--inflate wants TERM=FACTOR (e.g. T:alphaS=2)")
    try:
        value = float(factor)
    except ValueError:
        raise ParameterError(f"--inflate factor {factor!r} is not a number") from None
    inflate_term((), term, value)  # checks the term and the factor
    return term, value


def _cmd_observe(args) -> None:
    import json

    from repro.observatory import Ledger

    ledger = Ledger(args.ledger)
    if args.action == "record":
        from repro.sweep import Cell
        from repro.sweep.spec import resolve_machine_spec

        scenario = get_scenario(args.workload)
        p, n = scenario.size(args.p, args.n)
        cell = Cell(
            args.workload,
            p,
            params={"n": n, **scenario.check(p, n)},
            machine=resolve_machine_spec("default"),
        )
        rec = _record_cells([cell], ledger).records[cell.cell_id]
        print(
            f"recorded {rec.label} on p={p} -> {ledger.path} "
            f"(T={rec.time_total:.6g} s, E={rec.energy_total:.6g} J, "
            f"wall={rec.wall_seconds:.4g} s)"
        )
    elif args.action == "report":
        from repro.observatory.dashboard import render_html, render_report

        if args.html:
            with open(args.html, "w", encoding="utf-8") as fh:
                fh.write(render_html(ledger))
            print(f"wrote {args.html}")
        else:
            print(render_report(ledger))
    elif args.action == "fit":
        from repro.observatory import fit_records

        fit = fit_records(ledger)
        if args.json:
            print(json.dumps(fit.to_json(), indent=2))
        else:
            print(fit.render())
    elif args.action == "check":
        from repro.observatory import check_sweep, inflate_term
        from repro.observatory.dashboard import sweep_groups

        inflation = _parse_inflate(args.inflate) if args.inflate else None
        if args.run_sweep or not ledger.query(workload=args.workload, kind="run"):
            _observe_record_sweep(ledger, args.n if args.n else 48)
        records = ledger.query(workload=args.workload, kind="run")
        if not records:
            raise ParameterError(f"no {args.workload!r} run records in {ledger.path}")
        # Check the sweep the newest record belongs to.
        groups = sweep_groups(records)
        latest = records[-1]
        sweep = next(
            recs
            for key, recs in groups
            if any(r.created_at == latest.created_at for r in recs)
        )
        if inflation:
            term, factor = inflation
            sweep = inflate_term(sweep, term, factor)
            print(f"(demo: {term} inflated {factor:g}x on post-baseline points)")
        verdict = check_sweep(sweep)
        if args.json:
            print(json.dumps(verdict.to_json(), indent=2))
        else:
            print(verdict.render())
        if verdict.classification != "perfect":
            raise SystemExit(2 if verdict.classification == "degraded" else 1)
    else:  # pragma: no cover - argparse guards
        raise AssertionError(args.action)


# -- sharded sweeps --------------------------------------------------------


def _sweep_load_spec(args):
    """Resolve --spec (file) or the default canonical smoke spec."""
    import json

    from repro.sweep import SweepSpec, smoke_spec

    if args.spec:
        try:
            with open(args.spec, encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise ParameterError(f"cannot read {args.spec}: {exc}") from exc
        except ValueError as exc:
            raise ParameterError(f"{args.spec} is not JSON: {exc}") from exc
        return SweepSpec.from_json(payload)
    return smoke_spec(args.n)


def _cmd_sweep(args) -> None:
    """Plan/run/garbage-collect sharded sweeps; run exits 5 on any
    failed or abandoned cell."""
    import json

    from repro.exceptions import SweepError
    from repro.sweep import RunCache, cache_key, code_fingerprint, run_sweep

    if args.action == "gc":
        cache = RunCache(args.cache_dir)
        before = cache.stats()
        removed = cache.gc(drop_all=args.all)
        after = cache.stats()
        if args.json:
            print(
                json.dumps(
                    {
                        "schema": "repro_sweep_gc/v1",
                        "removed": removed,
                        "before": before.to_json(),
                        "after": after.to_json(),
                    },
                    indent=2,
                )
            )
        else:
            what = "all" if args.all else "stale"
            print(
                f"gc({what}): removed {removed} of {before.entries} "
                f"entries; {after.entries} left "
                f"({after.current} current, {after.stale} stale)"
            )
        return

    cells = _sweep_load_spec(args).cells()

    if args.action == "plan":
        fingerprint = code_fingerprint()
        cache = RunCache(args.cache_dir)
        rows = []
        for cell in cells:
            key = cache_key(cell, fingerprint)
            cached = cache.get(cell, fingerprint) is not None
            rows.append((cell, key, cached))
        if args.json:
            print(
                json.dumps(
                    {
                        "schema": "repro_sweep_plan/v1",
                        "fingerprint": fingerprint,
                        "cells": [
                            {
                                "cell_id": cell.cell_id,
                                "key": key,
                                "cached": cached,
                                **cell.identity(),
                            }
                            for cell, key, cached in rows
                        ],
                    },
                    indent=2,
                )
            )
        else:
            print(f"{len(rows)} cell(s), fingerprint {fingerprint[:12]}:")
            for cell, key, cached in rows:
                mark = "cached" if cached else "miss"
                print(f"  {cell.cell_id:<48s} {mark:<6s} key={key[:12]}")
        return

    assert args.action == "run"
    from repro.observatory import Ledger

    ledger = Ledger(args.ledger)
    cache = None if args.cold else RunCache(args.cache_dir)
    try:
        outcome = run_sweep(
            cells, ledger=ledger, cache=cache, workers=args.workers
        )
    except SweepError as exc:
        partial = getattr(exc, "outcome", None)
        if partial is not None and not args.json:
            print(partial.summary(), file=sys.stderr)
        print(f"repro sweep: {exc}", file=sys.stderr)
        raise SystemExit(5) from exc
    if args.json:
        print(json.dumps(outcome.to_json(), indent=2))
    else:
        print(outcome.summary())
        print(f"appended {outcome.hits + outcome.simulated} record(s) to {ledger.path}")
    if not outcome.ok:
        raise SystemExit(5)


def _scenario_parser(sub, name: str, help: str, description: str, width: int,
                     width_help: str) -> argparse.ArgumentParser:
    """Subcommand ``name`` with the arguments every traced scenario run
    takes (see :func:`_traced_run`) and the workloads epilog."""
    parser = sub.add_parser(
        name,
        help=help,
        description=description,
        epilog=_WORKLOADS_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("workload", choices=sorted(SCENARIOS))
    parser.add_argument("--p", type=int, default=None, help="rank count")
    parser.add_argument("--n", type=int, default=None, help="problem size")
    parser.add_argument(
        "--capacity", type=int, default=None, help="per-rank event ring size"
    )
    parser.add_argument("--width", type=int, default=width, help=width_help)
    return parser


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables, figures and Section V answers.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("table1").set_defaults(fn=_cmd_table1)
    sub.add_parser("table2").set_defaults(fn=_cmd_table2)
    p3 = sub.add_parser("fig3")
    p3.add_argument("--n", type=float, default=10_000.0)
    p3.add_argument("--plot", action="store_true")
    p3.set_defaults(fn=_cmd_fig3)
    p4 = sub.add_parser("fig4")
    p4.add_argument("--plot", action="store_true")
    p4.set_defaults(fn=_cmd_fig4)
    p6 = sub.add_parser("fig6")
    p6.add_argument("--generations", type=int, default=8)
    p6.set_defaults(fn=_cmd_fig6)
    p7 = sub.add_parser("fig7")
    p7.add_argument("--generations", type=int, default=8)
    p7.set_defaults(fn=_cmd_fig7)
    sub.add_parser("validate").set_defaults(fn=_cmd_validate)
    sub.add_parser("questions").set_defaults(fn=_cmd_questions)
    pr = sub.add_parser("report")
    pr.add_argument("--quick", action="store_true")
    pr.set_defaults(fn=_cmd_report)
    pt = _scenario_parser(
        sub,
        "trace",
        help="run a workload with event tracing: timeline + critical path",
        description=(
            "Run one simulated workload with trace=True on the validation "
            "machine and print the category breakdown, per-rank Gantt chart "
            "and the exact critical path bounding the simulated time."
        ),
        width=72,
        width_help="gantt chart width",
    )
    pt.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable JSON report instead of the text views",
    )
    pt.add_argument(
        "--out", default=None, metavar="TRACE_JSON",
        help="write a Chrome/Perfetto trace.json here",
    )
    pt.set_defaults(fn=_cmd_trace)
    pp = _scenario_parser(
        sub,
        "profile",
        help="run a workload and attribute modeled time/energy per term",
        description=(
            "Run one simulated workload (traced + metered) on the validation "
            "machine and print the Eq. (1)/(2) per-term attribution: term "
            "totals, per-rank stacked bars, the energy split and the "
            "depth-0 phase table. Term sums reproduce the TraceReport "
            "estimates bit-exactly."
        ),
        width=48,
        width_help="stacked bar width",
    )
    pp.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable JSON report instead of the text views",
    )
    pp.add_argument(
        "--sweep", action="store_true",
        help="fixed-tile strong-scaling sweep per term (matmul25d only; "
        "p = 16, 32, 64 at constant per-rank tiles)",
    )
    pp.add_argument(
        "--metrics-out", default=None, metavar="PROM_TXT",
        help="write the run's metrics registry here (Prometheus text format)",
    )
    pp.set_defaults(fn=_cmd_profile)
    pf = sub.add_parser(
        "faults",
        help="demo: crash a rank mid-run, recover from 2.5D replicas",
        description=(
            "Run the resilient 2.5D matmul with an injected rank crash: the "
            "dead rank's tiles are reconstructed from its replica layer (the "
            "paper's c copies), the product is verified against numpy, and "
            "the recovery's extra W/S/F are priced against the Eq. (1)/(2) "
            "terms. Needs c >= 2 (at c = 1 there is nothing to recover from)."
        ),
    )
    pf.add_argument(
        "workload", nargs="?", default="matmul25d",
        help="scenario to crash (fault-capable: %s)" % ", ".join(FAULT_SCENARIOS),
    )
    pf.add_argument("--p", type=int, default=8, help="rank count (q^2 c)")
    pf.add_argument("--n", type=int, default=16, help="matrix order (q | n)")
    pf.add_argument("--c", type=int, default=2, help="replication factor (>= 2)")
    pf.add_argument(
        "--rank", type=int, default=None,
        help="rank to crash (default: a non-front layer-1 rank)",
    )
    pf.add_argument(
        "--op", type=int, default=3,
        help="metered-operation index at which the crash fires",
    )
    pf.add_argument("--width", type=int, default=48, help="stacked bar width")
    pf.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable JSON report instead of the text views",
    )
    pf.set_defaults(fn=_cmd_faults)
    pw = _scenario_parser(
        sub,
        "power",
        help="time-resolved power telemetry: P(t) traces, caps, counters",
        description=(
            "Run one simulated workload with tracing and convert its event "
            "logs into piecewise-constant per-rank power traces P_r(t). "
            "Integrating each trace reproduces the run's Eq. (2) energy "
            "terms bit-exactly, and the whole-run average power equals "
            "E/T. Power caps (--cap, --per-rank-cap) turn the machine "
            "envelope into violation intervals; any violation exits 3."
        ),
        width=64,
        width_help="power chart width",
    )
    pw.add_argument(
        "--cap", type=float, default=None, metavar="WATTS",
        help="machine-wide power cap; violation intervals are listed and "
        "the command exits 3",
    )
    pw.add_argument(
        "--per-rank-cap", type=float, default=None, metavar="WATTS",
        help="per-processor power cap, checked on every rank's trace",
    )
    pw.add_argument(
        "--json", action="store_true",
        help="emit the repro_power/v1 JSON payload instead of the text views",
    )
    pw.add_argument(
        "--perfetto-out", default=None, metavar="TRACE_JSON",
        help="write a Chrome/Perfetto trace.json with per-rank and "
        "machine power counter tracks merged into the timeline",
    )
    pw.set_defaults(fn=_cmd_power)
    po = sub.add_parser(
        "observe",
        help="scaling observatory: run ledger, model fit, drift check",
        description=(
            "The persistent face of the simulator: record runs into an "
            "append-only JSONL ledger, invert Eq. (1)/(2) to recover the "
            "machine constants from recorded counts, classify p-sweeps as "
            "perfect/degraded/broken, and render an ASCII or self-contained "
            "HTML dashboard over the history."
        ),
        epilog=(
            "actions:\n"
            "  record   run one scenario as a one-cell sweep and append it\n"
            "  report   ASCII dashboard (or --html OUT for the HTML one)\n"
            "  fit      least-squares recovery of the machine constants\n"
            "  check    classify the latest p-sweep (records the canonical\n"
            "           q=6, c=1,2,3 smoke sweep when the ledger is empty);\n"
            "           exits 2 when degraded, 1 when broken\n"
            + _WORKLOADS_EPILOG
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    po.add_argument("action", choices=("record", "report", "fit", "check"))
    po.add_argument(
        "workload", nargs="?", default="matmul25d",
        help="scenario for record/check (default matmul25d)",
    )
    po.add_argument(
        "--ledger", default=DEFAULT_LEDGER, metavar="JSONL",
        help=f"ledger path (default {DEFAULT_LEDGER})",
    )
    po.add_argument("--p", type=int, default=None, help="rank count (record)")
    po.add_argument(
        "--n", type=int, default=None,
        help="problem size (record; check sweep uses n=48)",
    )
    po.add_argument(
        "--run-sweep", action="store_true",
        help="check: always record a fresh smoke sweep first",
    )
    po.add_argument(
        "--inflate", default=None, metavar="TERM=FACTOR",
        help="check: demo drift by inflating one term (e.g. T:alphaS=2) "
        "on every post-baseline point before classifying",
    )
    po.add_argument(
        "--html", default=None, metavar="OUT_HTML",
        help="report: write the self-contained HTML dashboard here",
    )
    po.add_argument(
        "--json", action="store_true",
        help="fit/check: emit machine-readable JSON instead of text",
    )
    po.set_defaults(fn=_cmd_observe)
    pk = sub.add_parser(
        "conformance",
        help="differential conformance: cost oracles vs every execution mode",
        description=(
            "Execute a grid of (collective | scenario) cases under all "
            "five execution modes (message path vs analytic fastpath, "
            "copy vs CoW payloads, the trace observer) and assert "
            "per-rank counts, virtual clocks, "
            "internode sub-tallies and payload contents are bit-identical "
            "across modes and equal to the closed-form oracles of "
            "repro.conformance.oracles. Any divergence prints a minimized "
            "reproducer and exits 4."
        ),
        epilog=(
            "grids:\n"
            "  smoke    deterministic CI grid: all ten collectives at\n"
            "           power-of-two and non-power-of-two sizes, Bruck\n"
            "           error-conformance cells, every registry scenario\n"
            "  random   seeded sweep over sizes 2..33 (primes included)\n"
            "           with randomized roots, payload shapes and caps\n"
            "  full     smoke + sizes up to 33 + the seeded sweep"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    pk.add_argument(
        "--grid", choices=("smoke", "random", "full"), default="smoke",
        help="which case grid to run (default smoke)",
    )
    pk.add_argument(
        "--seed", type=int, default=0,
        help="seed for the random/full grids (default 0)",
    )
    pk.add_argument(
        "--cells", type=int, default=40, metavar="N",
        help="randomized case count for the random/full grids (default 40)",
    )
    pk.add_argument(
        "--fail-limit", type=int, default=5, metavar="N",
        help="stop after N divergences (default 5)",
    )
    pk.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report instead of the summary line",
    )
    pk.add_argument(
        "--demo-divergence", action="store_true",
        help="deliberately mis-meter the message path first, proving the "
        "harness detects a broken build (expected exit: 4)",
    )
    pk.set_defaults(fn=_cmd_conformance)
    ps = sub.add_parser(
        "sweep",
        help="sharded sweeps: plan cells, run them cached, gc the cache",
        description=(
            "Expand a declarative sweep spec into deterministic cells, "
            "fan the uncached ones over a multiprocessing worker pool "
            "(records funnel through a single writer into the ledger), "
            "and replay cache hits bit-identically. The cache key is a "
            "content address over (workload, params, the ten machine "
            "constants, mode flags, code fingerprint), so any source "
            "edit invalidates every entry."
        ),
        epilog=(
            "actions:\n"
            "  plan   print the cells a spec expands to (+ cache status)\n"
            "  run    execute the sweep; exits 5 if any cell failed\n"
            "  gc     drop stale cache entries (--all: drop everything)\n"
            "default spec: the canonical observatory smoke sweep\n"
            "(matmul25d, q=6, c=1,2,3 — same walk as `observe check`)"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ps.add_argument("action", choices=("plan", "run", "gc"))
    ps.add_argument(
        "--spec", default=None, metavar="SPEC_JSON",
        help="sweep spec file (repro_sweep_spec/v1); default: smoke spec",
    )
    ps.add_argument(
        "--n", type=int, default=48,
        help="problem size for the default smoke spec (default 48)",
    )
    ps.add_argument(
        "--ledger", default=DEFAULT_LEDGER, metavar="JSONL",
        help=f"ledger path for run (default {DEFAULT_LEDGER})",
    )
    ps.add_argument(
        "--cache-dir", default=DEFAULT_SWEEP_CACHE, metavar="DIR",
        help=f"run cache root (default {DEFAULT_SWEEP_CACHE})",
    )
    ps.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes (default: one per core, capped at 8; "
        "0 runs serially in-process)",
    )
    ps.add_argument(
        "--cold", action="store_true",
        help="run: bypass the cache entirely (simulate every cell)",
    )
    ps.add_argument(
        "--all", action="store_true",
        help="gc: drop every cache entry, not just stale ones",
    )
    ps.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of the text summary",
    )
    ps.set_defaults(fn=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except ReproError as exc:
        # The one place an error becomes the one-line ``repro <cmd>: ...``
        # exit 1 every subcommand reports.
        raise SystemExit(f"repro {args.command}: {exc}") from exc
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: exit quietly like cat(1).
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
