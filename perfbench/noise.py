"""Noise context for one run: a single-thread calibration loop, the
``/proc/stat`` steal share and the load average.

The host is a shared VM: the same pure-Python loop runs 15-20 % slower
in some seconds than in others. Recording the loop's speed, steal and
load before and after a run lets a reader tell a noisy period apart from
a slower program. None of this enters the metrics.
"""

from __future__ import annotations

import statistics
import time


def calibration_loop(reps: int = 7, n: int = 200_000) -> float:
    """Median seconds of a fixed pure-Python loop (single thread)."""
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        s = 0
        for i in range(n):
            s += i * i
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def cpu_ticks() -> list[int] | None:
    """The aggregate ``cpu`` line of /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def load_average() -> float | None:
    try:
        with open("/proc/loadavg") as fh:
            return float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def snapshot() -> dict:
    return {
        "calibration_s": calibration_loop(),
        "loadavg_1m": load_average(),
        "ticks": cpu_ticks(),
        "t": time.monotonic(),
    }


def context(before: dict, after: dict) -> dict:
    """What happened on the host between two snapshots."""
    steal = None
    if before["ticks"] and after["ticks"]:
        delta = [b - a for a, b in zip(before["ticks"], after["ticks"])]
        total = sum(delta[:8])  # user..steal; guest time is inside user
        if total > 0 and len(delta) > 7:
            steal = delta[7] / total
    return {
        "calibration_s_before": before["calibration_s"],
        "calibration_s_after": after["calibration_s"],
        "steal_share": steal,
        "loadavg_1m_before": before["loadavg_1m"],
        "loadavg_1m_after": after["loadavg_1m"],
        "elapsed_s": after["t"] - before["t"],
    }
