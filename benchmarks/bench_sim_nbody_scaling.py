"""Eq. (15)-(16) claim, measured — replicated n-body perfect scaling.

Runs the data-replicating n-body algorithm on the simulator with fixed
particle blocks while p grows by c, and asserts on measured counts:
T ~ 1/c, E ~ constant — the paper's title, executed.
"""

import pytest

from repro.analysis.tables import render_scaling_points
from repro.analysis.validation import scaling_points
from repro.sweep import SweepSpec

N, R = 96, 4
C_VALUES = (1, 2, 4)


def test_sim_nbody_scaling(benchmark, emit):
    specs = [
        SweepSpec("nbody", n=N, p_values=(R * c,), params={"c": c})
        for c in C_VALUES
    ]
    points = benchmark(scaling_points, specs, "nbody c={c}")
    lines = [
        render_scaling_points(
            points, f"replicated n-body, n={N}, fixed {N//R}-particle blocks"
        )
    ]
    t0, e0 = points[0].est_time, points[0].est_energy
    for pt in points:
        lines.append(
            f"c={pt.c}: p={pt.p}  T ratio {pt.est_time / t0:.3f} "
            f"(ideal {1 / pt.c:.3f})  E ratio {pt.est_energy / e0:.3f} "
            "(ideal 1.000)"
        )
    emit("sim_nbody_scaling", "\n".join(lines))

    assert points[1].est_time < 0.65 * t0  # ideal 0.50
    assert points[2].est_time < 0.40 * t0  # ideal 0.25
    for pt in points[1:]:
        assert pt.est_energy == pytest.approx(e0, rel=0.15)
    for pt in points[1:]:
        assert pt.total_flops == pytest.approx(points[0].total_flops)
