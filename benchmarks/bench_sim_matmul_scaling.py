"""Eq. (9)-(10) claim, measured — 2.5D matmul perfect strong scaling.

Runs the actual 2.5D algorithm on the simulator at fixed per-rank tile
size while the processor count grows by the replication factor c, feeds
the *measured* flop/word/message counts through the paper's models, and
asserts the headline: runtime falls with c, energy stays (approximately)
constant. Also reports the measured bandwidth against Eq. (7)'s
W = O(n^2 / sqrt(c p)).
"""

import pytest

from repro.analysis.tables import render_scaling_points
from repro.analysis.validation import scaling_points
from repro.sweep import SweepSpec

N, Q = 96, 6
C_VALUES = (1, 2, 3)


def test_sim_matmul_scaling(benchmark, emit):
    spec = SweepSpec("matmul25d", n=N, q=Q, c_values=C_VALUES)
    points = benchmark(scaling_points, spec, "matmul25d c={c}")
    lines = [render_scaling_points(points, f"2.5D matmul, n={N}, fixed {N//Q}x{N//Q} tiles")]
    t0, e0 = points[0].est_time, points[0].est_energy
    for pt in points:
        lines.append(
            f"c={pt.c}: p={pt.p}  T ratio {pt.est_time / t0:.3f} "
            f"(ideal {1 / pt.c:.3f})  E ratio {pt.est_energy / e0:.3f} "
            f"(ideal 1.000)  W*sqrt(c) = {pt.max_words * pt.c ** 0.5:.0f}"
        )
    emit("sim_matmul_scaling", "\n".join(lines))

    # Perfect strong scaling, allowing the implementation's collective
    # constants (the paper's own 'modulo log factors' caveat).
    assert points[1].est_time < 0.70 * t0
    assert points[2].est_time < 0.55 * t0
    for pt in points[1:]:
        assert pt.est_energy == pytest.approx(e0, rel=0.35)
    # Replication reduces per-rank traffic.
    assert points[-1].max_words < points[0].max_words
    # Total flops invariant: the algorithm does the same arithmetic.
    for pt in points[1:]:
        assert pt.total_flops == pytest.approx(points[0].total_flops)
