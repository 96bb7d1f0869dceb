#!/usr/bin/env python3
"""Regenerate ``digests.json``: the per-cell digest of counts_signature
and virtual clocks for every scenario cell the workloads run.

    python3 perfbench/make_digests.py

Run it only when a change is meant to alter simulated counts or clocks;
the benchmark's output checks compare against these digests.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import repro.sweep as sweep  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    cells = sweep.plan_cells(workloads.scenario_specs() + workloads.traced_specs())
    digests = {}
    for cell in sorted(cells, key=lambda c: c.cell_id):
        record = sweep.execute_cell(cell, use_pool=False)
        digests[cell.cell_id] = workloads.record_digest(record.counts, record.vtimes)
    payload = {
        "about": "sha256 of each scenario cell's counts_signature rows and "
        "per-rank virtual clocks; written by make_digests.py",
        "cells": digests,
    }
    workloads.DIGESTS_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {workloads.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
