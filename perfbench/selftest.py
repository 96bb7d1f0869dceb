#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. **Anti-vacuity.** Under ``conformance.deliberately_perturbed`` (every
   message-path send mis-metered by two words) the output checks must
   report failed cells; without it the same cells must pass. The
   perturbation does not reach fast-path collectives, so scenario cells
   whose traffic is all collectives, and every fast-path ``coll:*``
   cell, stay unperturbed; the collective check is shown failing on
   message-path variants instead.
2. **Smoke.** A one-second run of each workload, traced and untraced,
   must print every metric named in ``BENCHMARK.json`` with its unit,
   and report zero failed cells.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import repro.sweep as sweep  # noqa: E402
import workloads  # noqa: E402
from repro.analysis.validation import default_machine  # noqa: E402
from repro.conformance import deliberately_perturbed  # noqa: E402


def failures_of(name: str, cells, workdir: Path) -> int:
    wl = workloads.plan(name, seed=0)
    res = wl.run_round(cells, workdir)
    wl.check_round(cells, res)
    return len(res.failures)


def anti_vacuity(workdir: Path) -> list[str]:
    problems = []
    machine = default_machine()
    subsets = {
        name: workloads.warmup_subset(workloads.plan(name, seed=0).cells)
        for name in workloads.WORKLOAD_NAMES
    }
    message_path = [
        sweep.collective_cell(op, 33, machine, fastpath=False)
        for op in ("bcast", "allreduce", "allgather", "alltoall")
    ]
    cases = [
        ("scenario-sweep", subsets["scenario-sweep"], True),
        ("traced-analysis", subsets["traced-analysis"], True),
        ("collective-sweep", subsets["collective-sweep"], False),
        ("collective-sweep", message_path, True),
    ]
    for name, cells, must_catch in cases:
        clean = failures_of(name, cells, workloads.fresh_dir(workdir / "clean"))
        with deliberately_perturbed(extra_words=2):
            bent = failures_of(name, cells, workloads.fresh_dir(workdir / "bent"))
        label = f"{name} ({len(cells)} cells, fastpath={cells[0].run_kwargs()['fastpath']})"
        print(f"{label}: {clean} failed clean, {bent} failed perturbed")
        if clean:
            problems.append(f"{label}: clean run reported {clean} failed cells")
        if must_catch and not bent:
            problems.append(f"{label}: perturbation not caught")
    return problems


def smoke() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in workloads.WORKLOAD_NAMES:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", "0", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode:
                problems.append(f"{name} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = result["metrics"]
            for m in wanted:
                if m["name"] not in got:
                    problems.append(f"{name} trace={trace}: {m['name']} missing")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{name} trace={trace}: {m['name']} unit "
                                    f"{got[m['name']]['unit']!r} != {m['unit']!r}")
            extra = set(got) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{name} trace={trace}: unlisted metrics {sorted(extra)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: {result['failed']} failed cells")
            print(f"{name} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} attempted, {result['failed']} failed")
    return problems


def main() -> int:
    workdir = ROOT / ".perfbench_work" / "selftest"
    try:
        problems = anti_vacuity(workdir) + smoke()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for p in problems:
        print("FAIL:", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
