"""The paper's prescription as a driver, benchmarked.

* The replication policy (`choose_replication`) picks the largest
  admissible c for the memory budget, and the chosen configuration's
  measured per-rank traffic beats the forced-2D baseline — the driver
  delivers the theorem without the caller knowing any of it.
* The cross-algorithm comparison table: every matmul implementation's
  measured F/W/S side by side.
"""

import numpy as np
import pytest

from repro.algorithms.driver import choose_replication, matmul
from repro.algorithms.matmul25d import matmul_25d
from repro.analysis.tables import render_scaling_points
from repro.analysis.validation import scaling_points
from repro.simmpi.engine import run_spmd
from repro.sweep import SweepSpec

#: The cross-algorithm comparison at n = 28 on comparable processor
#: counts: one spec and one row label per implementation.
COMPARISON = (
    (SweepSpec("summa", n=28, p_values=(4,)), "summa p={p}"),
    (SweepSpec("cannon", n=28, p_values=(4,)), "cannon p={p}"),
    (SweepSpec("matmul25d", n=28, p_values=(8,), params={"c": 2}), "2.5d p={p} c={c}"),
    (SweepSpec("caps", n=28, p_values=(7,)), "caps p={p}"),
)


def test_driver_policy(benchmark, emit):
    n = 48
    rng = np.random.default_rng(9)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))

    def run_policy():
        # p = 64 with unlimited memory: the two objectives disagree —
        # the 3D corner's collective constants vs the sqrt(c) asymptote.
        c_words = choose_replication(n, 64, 1e12, objective="min_words")
        c_max = choose_replication(n, 64, 1e12, objective="max_replication")
        rep_words = run_spmd(64, matmul_25d, a, b, c_words).report
        rep_max = run_spmd(64, matmul_25d, a, b, c_max).report
        return c_words, c_max, rep_words, rep_max

    c_words, c_max, rep_words, rep_max = benchmark(run_policy)
    tile_2d_words = 3.0 * (n / 8) ** 2
    c_tight = choose_replication(
        n, 64, tile_2d_words, objective="max_replication"
    )
    emit(
        "driver_policy",
        f"n={n}, p=64, M=inf:\n"
        f"  min_words picks c={c_words}: measured W/rank = {rep_words.max_words}\n"
        f"  max_replication picks c={c_max}: measured W/rank = {rep_max.max_words}\n"
        f"  (at the 3D corner q=c the ~3.5-tile replication constant beats\n"
        f"   the sqrt(c) Cannon saving — the driver knows)\n"
        f"n={n}, p=64, M=3·(n/8)^2 (2D tiles only): c = {c_tight}",
    )

    assert c_words == 1 and c_max == 4
    assert c_tight == 1
    # The min_words choice is vindicated by the measured counts.
    assert rep_words.max_words < rep_max.max_words


def test_matmul_comparison(benchmark, emit):
    def run_comparison():
        return [
            pt for spec, label in COMPARISON for pt in scaling_points(spec, label)
        ]

    points = benchmark(run_comparison)
    emit(
        "matmul_comparison",
        render_scaling_points(
            points, "All matmul implementations, measured (n = 28):"
        ),
    )
    by = {pt.label: pt for pt in points}
    # CAPS moves fewer flops than any classical algorithm.
    classical_f = by["summa p=4"].total_flops
    assert by["caps p=7"].total_flops < classical_f
    # The two 2D algorithms perform identical arithmetic.
    assert by["summa p=4"].total_flops == pytest.approx(
        by["cannon p=4"].total_flops
    )
    # Every run computed the same product (correctness is covered in
    # tests; here we assert the count structure that the paper models).
    for pt in points:
        assert pt.max_words > 0 and pt.max_messages > 0
