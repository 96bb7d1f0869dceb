#!/usr/bin/env python
"""Quickstart — the paper's five introduction questions, answered.

Builds the Table I machine, instantiates the n-body optimizer of
Section V, and walks through:

1. What is the minimum energy required for a computation?
2. Given a maximum allowed runtime T, what is the minimum energy E?
3. Given a maximum energy budget E, what is the minimum runtime T?
4. Given a bound on average power, can we minimize energy or runtime?
5. Given a target GFLOPS/W, what does it say about the machine?

Then demonstrates the headline theorem on the simulator: running the
actual data-replicating n-body algorithm with 2x and 4x the processors
(same per-rank memory) halves/quarters the modeled runtime while the
modeled energy stays put.

Run:  python examples/quickstart.py
"""

from repro import MachineParameters, NBodyOptimizer
from repro.analysis import render_scaling_points, scaling_points
from repro.machines import JAKETOWN
from repro.sweep import SweepSpec


def main() -> None:
    # A machine with visible energy trade-offs: Table I's Jaketown, but
    # with a bounded per-message size and a small leakage term.
    machine: MachineParameters = JAKETOWN.replace(
        max_message_words=2.0**20, epsilon_e=1e-2
    )
    n = 1_000_000  # particles
    f = 20.0  # flops per pairwise interaction (gravity kernel)
    opt = NBodyOptimizer(machine, interaction_flops=f)

    print("=" * 72)
    print(f"Machine: Jaketown (Table I), n = {n:.0e} particles, f = {f} flops/pair")
    print("=" * 72)

    # -- Question 1: minimum energy -------------------------------------
    M0 = opt.optimal_memory()
    e_star = opt.min_energy(n)
    p_lo, p_hi = opt.p_range_at_optimal_memory(n)
    print("\n[1] Minimum energy (Section V-A)")
    print(f"    energy-optimal memory  M0 = {M0:.4g} words/processor")
    print(f"    minimum energy         E* = {e_star:.4g} J")
    print(f"    attainable for any p in [{p_lo:.4g}, {p_hi:.4g}]")
    print("    (E is independent of p — that whole range costs the same)")

    # -- Question 2: min energy under a deadline -------------------------
    t_thresh = opt.runtime_threshold_for_min_energy(n)
    for t_max in (t_thresh * 10, t_thresh / 10):
        run = opt.min_energy_given_runtime(n, t_max)
        tag = "loose" if t_max > t_thresh else "tight"
        print(f"\n[2] Min energy with T <= {t_max:.3g} s ({tag} deadline)")
        print(
            f"    -> p = {run.p:.4g}, M = {run.M:.4g}, "
            f"T = {run.time:.3g} s, E = {run.energy:.4g} J"
        )

    # -- Question 3: min runtime under an energy budget -------------------
    for factor in (1.05, 2.0):
        e_max = e_star * factor
        run = opt.min_runtime_given_energy(n, e_max)
        print(f"\n[3] Min runtime with E <= {factor:.2f} x E*")
        print(
            f"    -> p = {run.p:.4g} (2D limit M = {run.M:.4g}), "
            f"T = {run.time:.3g} s"
        )

    # -- Question 4: power budgets ----------------------------------------
    p1 = opt.processor_power(M0)
    run = opt.min_runtime_given_total_power(n, total_power=1000 * p1)
    print(f"\n[4] Power: one processor at M0 draws {p1:.3g} W")
    print(
        f"    under a {1000 * p1:.3g} W total budget the fastest run uses "
        f"p = {run.p:.4g}, T = {run.time:.3g} s"
    )
    m_cap = opt.max_memory_given_proc_power(p1 * 1.5)
    print(f"    a per-processor cap of {p1 * 1.5:.3g} W allows M <= {m_cap:.4g}")

    # -- Question 5: GFLOPS/W target ----------------------------------------
    eff = opt.gflops_per_watt_optimal()
    print(f"\n[5] This machine's best n-body efficiency: {eff:.3f} GFLOPS/W")
    print("    (independent of n, p, M — a pure machine-parameter constraint)")

    # -- The headline theorem, measured on the simulator ----------------------
    print("\n" + "=" * 72)
    print("Perfect strong scaling, measured (simulated SPMD n-body runs)")
    print("=" * 72)
    # p = 4c ranks: c teams of 4 particle blocks, 24 particles per rank.
    specs = [
        SweepSpec("nbody", n=96, p_values=(4 * c,), params={"c": c})
        for c in (1, 2, 4)
    ]
    points = scaling_points(specs, "nbody c={c}")
    print(render_scaling_points(points))
    t0, e0 = points[0].est_time, points[0].est_energy
    for pt in points:
        print(
            f"  c={pt.c}: p grew {pt.c}x -> time ratio {pt.est_time / t0:.2f} "
            f"(ideal {1 / pt.c:.2f}), energy ratio {pt.est_energy / e0:.2f} "
            "(ideal 1.00)"
        )


if __name__ == "__main__":
    main()
