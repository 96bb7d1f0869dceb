#!/usr/bin/env python
"""Fast matrix multiplication — Strassen and CAPS end to end.

Demonstrates:

* sequential Strassen beating the 2 n^3 classical flop count (exact
  metered flops vs the n^(log2 7) trend);
* the parallel CAPS algorithm on p = 7 and p = 49 simulated ranks, with
  BFS (unlimited-memory) and DFS+BFS (limited-memory) schedules, showing
  the measured bandwidth paying for memory savings — the EFLM vs EFUM
  regimes of Eq. (13)/(14);
* the earlier strong-scaling knee of fast matmul (Fig. 3's second
  curve): Strassen's perfect range ends at p = (n^2/M)^(omega0/2),
  before classical's (n^2/M)^(3/2).

Run:  python examples/strassen_caps_demo.py
"""

import math

import numpy as np

from repro import StrassenMatMulCosts, perfect_scaling_range
from repro.algorithms import (
    caps_assemble,
    caps_matmul,
    strassen_flop_count,
    strassen_matmul,
)
from repro.analysis import render_scaling_points, scaling_points
from repro.simmpi import run_spmd
from repro.sweep import SweepSpec


def sequential_demo() -> None:
    rng = np.random.default_rng(7)
    print("Sequential Strassen (cutoff 8) vs classical flop counts:")
    for n in (64, 128, 256):
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        flops: list[float] = []
        c = strassen_matmul(a, b, cutoff=8, flop_counter=flops.append)
        assert np.allclose(c, a @ b)
        measured = sum(flops)
        classical = 2.0 * n**3
        print(
            f"  n={n:4d}: strassen {measured:12.0f} flops "
            f"(= predicted {strassen_flop_count(n, 8):.0f}), "
            f"classical {classical:12.0f}  -> saving {classical / measured:.2f}x"
        )


def parallel_demo() -> None:
    rng = np.random.default_rng(8)
    n = 56
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    print(f"\nParallel CAPS, n={n}:")
    for p, dfs in ((7, 0), (7, 1), (49, 0)):
        out = run_spmd(p, caps_matmul, a, b, dfs)
        c = caps_assemble(list(out.results), n, p, dfs)
        assert np.allclose(c, a @ b)
        rep = out.report
        schedule = f"{dfs} DFS + {round(math.log(p, 7))} BFS"
        print(
            f"  p={p:3d} ({schedule}): W/rank = {rep.max_words:6d}, "
            f"S/rank = {rep.max_messages:4d}, F total = {rep.total_flops:.4g}"
        )
    print(
        "  (the DFS schedule trades extra communication for a 7x smaller "
        "working set: the EFLM regime)"
    )


def scaling_knee_demo() -> None:
    costs_strassen = StrassenMatMulCosts()
    n, M = 1e4, 1e6
    rng_s = perfect_scaling_range(costs_strassen, n, M)
    from repro import ClassicalMatMulCosts

    rng_c = perfect_scaling_range(ClassicalMatMulCosts(), n, M)
    print(
        f"\nPerfect-scaling ranges at n={n:.0g}, M={M:.0g}:"
        f"\n  classical: p in [{rng_c.p_min:.4g}, {rng_c.p_max:.4g}] "
        f"(width {rng_c.width_factor:.4g}x)"
        f"\n  strassen:  p in [{rng_s.p_min:.4g}, {rng_s.p_max:.4g}] "
        f"(width {rng_s.width_factor:.4g}x)"
    )
    print(
        "  Fast matmul runs out of perfect scaling sooner — Fig. 3's "
        "earlier Strassen knee."
    )


def measured_bandwidth() -> None:
    print()
    pts = scaling_points(SweepSpec("caps", n=28, p_values=(7, 49)), "caps n={n} p={p}")
    print(render_scaling_points(pts, "Measured CAPS bandwidth across p:"))
    w7 = next(pt for pt in pts if pt.p == 7).max_words
    w49 = next(pt for pt in pts if pt.p == 49).max_words
    omega0 = math.log2(7)
    print(
        f"  W(49)/W(7) = {w49 / w7:.3f}; model n^2/p^(2/omega0) predicts "
        f"{(49 / 7) ** (-2 / omega0):.3f} (plus lower-order terms)"
    )


def main() -> None:
    sequential_demo()
    parallel_demo()
    scaling_knee_demo()
    measured_bandwidth()


if __name__ == "__main__":
    main()
