#!/usr/bin/env python
"""Where perfect strong scaling fails — FFT and LU (Section IV).

The paper's positive results (matmul, n-body) are bracketed by two
negative ones:

* **FFT** has no perfect strong scaling range: extra memory is useless
  and the all-to-all forces a choice between a message count that grows
  with p (naive) and a word count carrying a log p factor (tree/Bruck).
  We run both on the simulator and print the measured W/S per rank.
* **2.5D LU** strongly scales in bandwidth but *not* in latency: its
  critical path needs S = sqrt(c p) messages. We show the cost model's
  latency term refusing to shrink, and the measured message growth of
  the executable 2D LU.

Run:  python examples/fft_lu_limits.py
"""

import numpy as np

from repro import LU25DCosts, MachineParameters
from repro.analysis import render_scaling_points, render_series, scaling_points
from repro.sweep import SweepSpec


def fft_tradeoff() -> None:
    res = {
        mode: scaling_points(
            SweepSpec(
                "fft", n=1024, p_values=(2, 4, 8, 16), params={"all_to_all": mode}
            ),
            "fft {all_to_all} p={p}",
        )
        for mode in ("naive", "bruck")
    }
    print(render_scaling_points(res["naive"], "FFT, naive all-to-all (S = p-1):"))
    print()
    print(render_scaling_points(res["bruck"], "FFT, Bruck all-to-all (S = log2 p):"))
    naive_s = [pt.max_messages for pt in res["naive"]]
    bruck_s = [pt.max_messages for pt in res["bruck"]]
    naive_w = [pt.max_words for pt in res["naive"]]
    bruck_w = [pt.max_words for pt in res["bruck"]]
    print(
        "\nThe trade: naive S grows linearly "
        f"{naive_s} while Bruck stays logarithmic {bruck_s};"
    )
    print(
        f"Bruck pays in words ({bruck_w} vs {naive_w}) — neither choice "
        "strong-scales, as the paper proves."
    )


def lu_latency() -> None:
    costs = LU25DCosts()
    machine = MachineParameters(
        gamma_t=1e-9, beta_t=1e-8, alpha_t=1e-5,
        gamma_e=1e-9, beta_e=1e-8, alpha_e=1e-6,
        delta_e=1e-9, epsilon_e=0.0,
        memory_words=1e9, max_message_words=1e6,
    )
    n = 1e5
    M = 1e8
    p_values = [costs.p_min(n, M) * c for c in (1, 2, 4, 8)]
    rows_w = []
    rows_s = []
    for p in p_values:
        rows_w.append(costs.words(n, p, M) * p)
        rows_s.append(costs.messages(n, p, M, machine.max_message_words))
    print()
    print(
        render_series(
            "p",
            [f"{p:.4g}" for p in p_values],
            {
                "W*p (scales)": [f"{v:.4g}" for v in rows_w],
                "S per rank (grows!)": [f"{v:.4g}" for v in rows_s],
            },
            title="2.5D LU cost model: bandwidth strong-scales, latency does not",
        )
    )
    print()
    pts = scaling_points(SweepSpec("lu2d", n=48, p_values=(4, 16)), "lu2d p={p}")
    print(render_scaling_points(pts, "Measured 2D LU (S per rank grows with p):"))


def main() -> None:
    fft_tradeoff()
    lu_latency()


if __name__ == "__main__":
    main()
