"""Live experiment report — regenerate the EXPERIMENTS.md evidence.

:func:`generate_report` runs every reproduction experiment (analytic
series and simulator sweeps) and renders a self-contained markdown
report with the measured numbers of *this* execution — what a referee
would want to diff against EXPERIMENTS.md. Exposed as
``python -m repro report``.
"""

from __future__ import annotations

import io

from repro.analysis.figures import figure3_series
from repro.analysis.tables import render_scaling_points
from repro.analysis.validation import scaling_points
from repro.machines.casestudy import (
    generations_to_target,
    scale_parameters_independently,
    scale_parameters_jointly,
)
from repro.machines.catalog import PROCESSOR_TABLE

__all__ = ["generate_report"]


def generate_report(quick: bool = False) -> str:
    """Run the reproduction experiments and render a markdown report.

    ``quick`` shrinks the simulator sweeps (fewer/smaller runs) for a
    fast smoke report.
    """
    out = io.StringIO()
    w = out.write
    w("# Reproduction report (generated)\n\n")

    # -- Fig. 3 -----------------------------------------------------------
    n, cap = 10_000.0, 10_000.0**2 / 64
    s = figure3_series(n, cap, p_points=9, p_span=256.0)
    w("## Fig. 3 — strong-scaling limits\n\n")
    w(
        f"n = {n:g}, M = {cap:g}: flat until the knees at "
        f"p = {s['knee_strassen']:.0f} (Strassen) and "
        f"p = {s['knee_classical']:.0f} (classical); "
        f"W*p rises {s['classical'][-1] / s['classical'][0]:.2f}x by "
        f"p = {s['p'][-1]:.0f}.\n\n"
    )

    # -- Figs. 6/7 ----------------------------------------------------------
    gens = 6
    ind = scale_parameters_independently(gens)
    joint = scale_parameters_jointly(gens)
    g75 = generations_to_target(75.0)
    w("## Figs. 6-7 — case-study parameter scaling\n\n")
    w(
        f"baseline {joint[0]:.3f} GFLOPS/W; beta_e-only flat at "
        f"{ind['beta_e'][-1]:.3f}; gamma_e-only saturating at "
        f"{ind['gamma_e'][-1]:.3f}; joint scaling doubles per generation "
        f"and crosses 75 GFLOPS/W at generation {g75:.2f} "
        "(paper: 'after 5 generations').\n\n"
    )

    # -- Table II -------------------------------------------------------------
    worst = max(
        abs(sp.gflops_per_watt - sp.printed_gflops_per_watt)
        / sp.printed_gflops_per_watt
        for sp in PROCESSOR_TABLE
    )
    w("## Table II — device survey\n\n")
    w(
        f"all {len(PROCESSOR_TABLE)} rows re-derived; worst relative "
        f"GFLOPS/W deviation from the printed table: {worst:.2e}.\n\n"
    )

    # -- measured strong scaling -------------------------------------------------
    from repro.sweep import SweepSpec

    w("## Perfect strong scaling, measured on the simulator\n\n")
    mm = scaling_points(
        SweepSpec(
            "matmul25d",
            n=48 if quick else 96,
            q=4 if quick else 6,
            c_values=(1, 2) if quick else (1, 2, 3),
        ),
        "matmul25d c={c}",
    )
    w("```\n" + render_scaling_points(mm, "2.5D matmul (fixed tiles)") + "\n```\n")
    t0, e0 = mm[0].est_time, mm[0].est_energy
    w(
        f"time ratio at max c: {mm[-1].est_time / t0:.2f} "
        f"(ideal {1 / mm[-1].c:.2f}); energy ratio {mm[-1].est_energy / e0:.2f} "
        "(ideal 1.00)\n\n"
    )
    nb = scaling_points(
        [
            SweepSpec("nbody", n=48 if quick else 96, p_values=(4 * c,), params={"c": c})
            for c in ((1, 2) if quick else (1, 2, 4))
        ],
        "nbody c={c}",
    )
    w("```\n" + render_scaling_points(nb, "replicated n-body (fixed blocks)") + "\n```\n")
    t0, e0 = nb[0].est_time, nb[0].est_energy
    w(
        f"time ratio at max c: {nb[-1].est_time / t0:.2f} "
        f"(ideal {1 / nb[-1].c:.2f}); energy ratio {nb[-1].est_energy / e0:.2f} "
        "(ideal 1.00)\n\n"
    )

    # -- FFT / LU negatives ----------------------------------------------------------
    w("## Where perfect scaling fails\n\n")
    fft = {
        mode: scaling_points(
            SweepSpec(
                "fft",
                n=256 if quick else 1024,
                p_values=(2, 4) if quick else (2, 4, 8, 16),
                params={"all_to_all": mode},
            ),
            "fft {all_to_all} p={p}",
        )
        for mode in ("naive", "bruck")
    }
    naive_s = [pt.max_messages for pt in fft["naive"]]
    bruck_s = [pt.max_messages for pt in fft["bruck"]]
    w(
        f"FFT: naive all-to-all S = {naive_s} (= p-1); Bruck S = {bruck_s} "
        "(= log2 p) at the price of more words.\n"
    )
    lu = scaling_points(SweepSpec("lu2d", n=48, p_values=(4, 16)), "lu2d p={p}")
    w(
        f"LU: per-rank messages grow {lu[0].max_messages} -> "
        f"{lu[1].max_messages} from p=4 to p=16 at fixed n "
        "(the critical path).\n"
    )
    return out.getvalue()
