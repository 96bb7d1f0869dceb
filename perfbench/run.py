#!/usr/bin/env python3
"""Benchmark entry point: run one workload, print its metrics.

    python3 perfbench/run.py --workload scenario-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. With ``--trace 0`` the last stdout
line is a JSON object holding every end-to-end metric; with
``--trace 1`` it holds every per-layer metric of a separate traced run.
The line before it records the host's noise context for the run.

This file uses the standard library only: it spawns the measured
processes (``child.py``), enforces their time limits, and reduces their
rounds to medians.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import noise

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("scenario-sweep", "collective-sweep", "traced-analysis")
END_TO_END = {
    "cells_per_s": "cells/s",
    "cpu_s_per_cell": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
#: Extra set-up-only processes per run; setup_s is the median over
#: these and the measured process. One process's set-up time spreads by
#: about 20 % on a noisy host, so a median of three did not hold 0.25.
SETUP_PROBES = 8
#: A run must end within this many seconds of its start.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def spawn(role: str, args, workdir: Path, stop_by: float, trace: bool = False) -> dict:
    """Run ``child.py`` in a fresh interpreter; return its last JSON line."""
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    t0 = time.monotonic()
    cmd += [
        str(HERE / "child.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(int(trace)),
        "--t0", repr(t0), "--workdir", str(workdir), "--stop-by", repr(stop_by),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, stop_by - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} process timed out") from exc
    if proc.returncode != 0:
        err = "\n".join(
            ln for ln in proc.stderr.splitlines() if not ln.startswith("import time:")
        )
        raise BenchError(f"{role} process exited {proc.returncode}:\n{err[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if trace:
        result["stderr"] = proc.stderr
    return result


def import_seconds(stderr: str, module: str) -> float:
    """A module's cumulative import time from ``-X importtime`` output."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    raise BenchError(f"no import time recorded for {module}")


def measure(args, workdir: Path, stop_by: float) -> dict:
    """End-to-end metrics: medians over rounds and set-up samples."""
    setups = [
        spawn("setup", args, workdir / f"probe{i}", stop_by)["setup_s"]
        for i in range(SETUP_PROBES)
    ]
    main = spawn("measure", args, workdir / "main", stop_by)
    setups.append(main["setup_s"])
    rounds = main["rounds"]
    failures = {k: v for r in rounds for k, v in r["failures"].items()}
    values = {
        "cells_per_s": statistics.median(r["cells"] / r["wall"] for r in rounds),
        "cpu_s_per_cell": statistics.median(r["cpu"] / r["cells"] for r in rounds),
        "peak_rss_mb": main["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    return {
        "attempted": sum(r["cells"] for r in rounds),
        "failed": sum(len(r["failures"]) for r in rounds),
        "failures": failures,
        "rounds": [round(r["cells"] / r["wall"], 3) for r in rounds],
        "setups": [round(x, 3) for x in setups],
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
    }


def measure_traced(args, workdir: Path, stop_by: float) -> dict:
    result = spawn("measure", args, workdir / "main", stop_by, trace=True)
    stderr = result.pop("stderr")
    result["metrics"]["core.codesign.import_s"] = {
        "value": import_seconds(stderr, "repro.core.codesign"),
        "unit": "s",
    }
    return result


def main(argv=None) -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    stop_by = start + RUN_LIMIT_S
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        before = noise.snapshot()
        if args.trace:
            result = measure_traced(args, workdir, stop_by)
        else:
            result = measure(args, workdir, stop_by)
        after = noise.snapshot()
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({
        "noise": noise.context(before, after),
        "rounds": result["rounds"],
        "setups": result.get("setups"),
        "failures": dict(list(result["failures"].items())[:10]),
    }))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
