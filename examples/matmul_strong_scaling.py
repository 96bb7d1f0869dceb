#!/usr/bin/env python
"""Matrix multiplication strong scaling — Fig. 3 and the 2.5D family.

Three views of the same phenomenon:

1. **Analytic (Fig. 3)**: (bandwidth cost x p) vs p for classical and
   Strassen-like matmul with a fixed per-processor memory cap — flat in
   the perfect strong scaling range, rising as p^(1/3) / p^(1-2/omega0)
   past the knee, with the Strassen knee earlier.
2. **Model (Eq. 9-11)**: runtime and energy of 2.5D matmul across its
   perfect-scaling range on the Table I machine — T falls as 1/p, E
   flat, then the 3D-limit energy (Eq. 11) takes over.
3. **Measured**: the real 2.5D algorithm on the simulator, sweeping the
   replication factor at fixed per-rank tile size.

Run:  python examples/matmul_strong_scaling.py
"""

import numpy as np

from repro import ClassicalMatMulCosts, energy, perfect_scaling_range, runtime
from repro.analysis import (
    figure3_series,
    render_scaling_points,
    render_series,
    scaling_points,
)
from repro.machines import JAKETOWN
from repro.sweep import SweepSpec


def analytic_fig3() -> None:
    n = 10_000.0
    memory_cap = n * n / 64  # p_min = 64
    from repro.analysis import line_plot

    dense = figure3_series(n, memory_cap, p_points=48, p_span=256.0)
    print(
        line_plot(
            dense["p"],
            {"classical": dense["classical"], "strassen": dense["strassen"]},
            logx=True,
            logy=True,
            title="Fig. 3 — (bandwidth cost x p) vs p: flat, then the knees",
            x_label="p",
        )
    )
    print()
    s = figure3_series(n, memory_cap, p_points=9, p_span=256.0)
    print(
        render_series(
            "p",
            [f"{v:.4g}" for v in s["p"]],
            {
                "classical W*p": [f"{v:.4g}" for v in s["classical"]],
                "strassen W*p": [f"{v:.4g}" for v in s["strassen"]],
            },
            title="Fig. 3 — bandwidth cost x p (flat = perfect strong scaling)",
        )
    )
    print(
        f"knees: classical p = {s['knee_classical']:.4g}, "
        f"strassen p = {s['knee_strassen']:.4g} "
        "(fast matmul stops scaling sooner)"
    )


def model_sweep() -> None:
    machine = JAKETOWN
    costs = ClassicalMatMulCosts()
    n = 50_000.0
    M = 1e9  # words per processor we allow the algorithm (< machine memory)
    rng = perfect_scaling_range(costs, n, M)
    p_values = np.geomspace(rng.p_min, rng.p_max, 6)
    times = [runtime(costs, machine, n, p, M).total for p in p_values]
    energies = [energy(costs, machine, n, p, M).total for p in p_values]
    print()
    print(
        render_series(
            "p",
            [f"{p:.4g}" for p in p_values],
            {
                "T (s)": [f"{t:.4g}" for t in times],
                "T*p": [f"{t * p:.4g}" for t, p in zip(times, p_values)],
                "E (J)": [f"{e:.6g}" for e in energies],
            },
            title=(
                f"Eq. 9/10 on Table I: n={n:.0g}, M={M:.0g} — T*p and E constant "
                f"across p in [{rng.p_min:.4g}, {rng.p_max:.4g}]"
            ),
        )
    )


def tech_report_frontier() -> None:
    """The tech report's matmul analogue of Fig. 4, via the generic
    (p, M) frontier."""
    import numpy as np

    from repro.analysis import CostModelFrontier, region_plot

    n = 1e4
    fr = CostModelFrontier(ClassicalMatMulCosts(), JAKETOWN, n)
    p = np.geomspace(4, 1e7, 40)
    M = np.geomspace(n, n * n, 24)
    grid = fr.grid(p, M)
    e_budget = np.nanmin(grid.energy) * 1.2
    t_budget = np.nanmin(grid.time) * 16
    print()
    print(
        region_plot(
            p,
            M,
            {
                ".feasible": grid.feasible,
                "E<=1.2Emin": fr.energy_budget_region(grid, e_budget),
                "T<=budget": fr.time_budget_region(grid, t_budget),
            },
            title="Tech-report extension: matmul executions in the (p, M) plane",
            x_label="p",
            y_label="M",
        )
    )


def measured_sweep() -> None:
    print()
    spec = SweepSpec("matmul25d", n=96, q=6, c_values=(1, 2, 3))
    points = scaling_points(spec, "matmul25d c={c}")
    print(
        render_scaling_points(
            points,
            "Measured 2.5D runs (fixed 16x16 tiles; p grows by c):",
        )
    )
    t0, e0 = points[0].est_time, points[0].est_energy
    for pt in points:
        print(
            f"  c={pt.c}: time ratio {pt.est_time / t0:.2f} (ideal "
            f"{1 / pt.c:.2f}), energy ratio {pt.est_energy / e0:.2f} (ideal 1.00)"
        )


def main() -> None:
    analytic_fig3()
    model_sweep()
    tech_report_frontier()
    measured_sweep()


if __name__ == "__main__":
    main()
