"""The remaining Section IV algorithms, measured on the simulator.

* CAPS (Eq. 13/14): per-rank bandwidth across p at the memory ceiling
  follows n^2/p^(2/omega0); a DFS-first (limited-memory) schedule pays
  more bandwidth — the EFLM vs EFUM ordering.
* FFT: the naive vs tree all-to-all trade-off (S = p-1 words-cheap vs
  S = log2 p words-heavy); no perfect scaling either way.
* LU: the per-rank message count grows with p (the critical-path
  latency term the paper contrasts against matmul).
"""

import math

import numpy as np
import pytest

from repro.algorithms.caps import caps_matmul
from repro.analysis.tables import render_scaling_points
from repro.analysis.validation import scaling_points
from repro.simmpi.engine import run_spmd
from repro.sweep import SweepSpec

OMEGA0 = math.log2(7.0)


def test_sim_caps_bandwidth(benchmark, emit):
    spec = SweepSpec("caps", n=28, p_values=(7, 49))
    points = benchmark(scaling_points, spec, "caps n={n} p={p}")
    w = {pt.p: pt.max_words for pt in points}
    ratio = w[7] / w[49]
    ideal = 7.0 ** (2.0 / OMEGA0)
    text = (
        render_scaling_points(points, "CAPS all-BFS (memory ceiling), n=28")
        + f"\nW(7)/W(49) = {ratio:.3f}   model p^(2/omega0) predicts {ideal:.3f}"
    )
    emit("sim_caps_bandwidth", text)
    assert 2.0 < ratio < 8.0


def test_sim_caps_dfs_pays_bandwidth(benchmark, emit):
    rng = np.random.default_rng(3)
    n = 28
    a = rng.standard_normal((n, n))

    def run_both():
        bfs = run_spmd(7, caps_matmul, a, a, 0).report.max_words
        dfs = run_spmd(7, caps_matmul, a, a, 1).report.max_words
        return bfs, dfs

    bfs, dfs = benchmark(run_both)
    emit(
        "sim_caps_dfs_schedule",
        f"CAPS n={n}, p=7: all-BFS W/rank = {bfs}; 1 DFS + 1 BFS W/rank = {dfs}\n"
        f"limited memory costs {dfs / bfs:.2f}x the bandwidth (EFLM > EFUM)",
    )
    assert dfs > bfs


def test_sim_fft_tradeoff(benchmark, emit):
    def run_both():
        return {
            mode: scaling_points(
                SweepSpec(
                    "fft",
                    n=1024,
                    p_values=(2, 4, 8, 16),
                    params={"all_to_all": mode},
                ),
                "fft {all_to_all} p={p}",
            )
            for mode in ("naive", "bruck")
        }

    res = benchmark(run_both)
    text = (
        render_scaling_points(res["naive"], "FFT naive all-to-all (W=n/p, S=p-1)")
        + "\n\n"
        + render_scaling_points(
            res["bruck"], "FFT Bruck all-to-all (W=n log p/p, S=log2 p)"
        )
    )
    emit("sim_fft_tradeoff", text)

    s_naive = [pt.max_messages for pt in res["naive"]]
    s_bruck = [pt.max_messages for pt in res["bruck"]]
    assert s_naive == [1, 3, 7, 15]  # p - 1
    assert s_bruck == [1, 2, 3, 4]  # log2 p
    # Bruck pays words where it saves messages.
    assert res["bruck"][-1].max_words > res["naive"][-1].max_words
    # No constant-energy region: estimates drift with p in both modes.
    for mode in ("naive", "bruck"):
        e = [pt.est_energy for pt in res[mode]]
        assert max(e) / min(e) > 1.05


def test_sim_lu_latency(benchmark, emit):
    spec = SweepSpec("lu2d", n=48, p_values=(4, 16))
    points = benchmark(scaling_points, spec, "lu2d p={p}")
    text = render_scaling_points(points, "2D LU, n=48 (message count vs p)")
    s4, s16 = points[0].max_messages, points[1].max_messages
    text += f"\nS(p=4) = {s4}, S(p=16) = {s16}: latency grows with p (critical path)"
    emit("sim_lu_latency", text)
    assert s16 > s4
    assert points[0].total_flops == pytest.approx(points[1].total_flops, rel=1e-6)
