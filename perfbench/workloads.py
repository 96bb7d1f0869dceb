"""The three workloads: which cells a round runs, how a round runs them,
and how each cell's output is checked.

A *cell* is a :class:`repro.sweep.Cell`. Every workload plans its cells
once (in set-up) and then repeats the same fixed round of work:

* ``scenario-sweep``   - cold ``run_sweep`` of the six registry scenarios;
* ``collective-sweep`` - cold ``run_sweep`` of the ten ``coll:*`` cells;
* ``traced-analysis``  - ``run_spmd(trace=True)`` plus the timeline,
  critical-path, model-profile, power-trace and Perfetto analyses.

The seed only changes inputs that leave the amount of work unchanged:
the root rank of the rooted collectives and the order of the
traced-analysis cells. Sweeps pass their cells to ``run_sweep`` in plan
order, as ``repro sweep run`` does, so the executor's own sharding
decides which worker gets which cell.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import repro.analysis.powertrace as powertrace
import repro.analysis.profiler as profiler
import repro.simmpi as simmpi
import repro.sweep as sweep
from repro.analysis.validation import default_machine
from repro.conformance import oracle_scenario
from repro.observatory import Ledger

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"

COLLECTIVE_SIZES = (36, 100, 164, 228)
BRUCK_SIZES = (32, 64, 128, 256)
ROOTED_OPS = ("bcast", "reduce", "gather", "scatter")


def scenario_specs() -> list:
    """Valid (p, n) for the six registry scenarios, p <= 108; includes
    the q = 6, c = 1, 2, 3 replication walk of Fig. 3."""
    S = sweep.SweepSpec
    return [
        S("matmul25d", n=48, q=6, c_values=(1, 2, 3)),
        S("cannon", n=48, p_values=(16, 36, 64)),
        S("summa", n=48, p_values=(16, 36, 64)),
        S("caps", n=56, p_values=(7, 49)),
        S("nbody", n=256, p_values=(8, 32, 64)),
        S("fft", n=4096, p_values=(8, 16, 32, 64)),
    ]


def traced_specs() -> list:
    """The six scenarios at p <= 32, as ``repro trace`` runs them."""
    S = sweep.SweepSpec
    return [
        S("matmul25d", n=32, q=4, c_values=(1, 2)),
        S("cannon", n=48, p_values=(4, 16)),
        S("summa", n=48, p_values=(4, 16)),
        S("caps", n=56, p_values=(7,)),
        S("nbody", n=256, p_values=(8, 16, 32)),
        S("fft", n=4096, p_values=(8, 16, 32)),
    ]


def collective_cells(rng: random.Random) -> list:
    """All ten collectives at p = 32..256 (non-powers of two except
    Bruck), default mode flags; rooted ops get a seeded root."""
    machine = default_machine()
    cells = []
    for op in sweep.COLLECTIVE_OPS:
        for p in BRUCK_SIZES if op == "alltoall_bruck" else COLLECTIVE_SIZES:
            root = rng.randrange(p) if op in ROOTED_OPS else None
            cells.append(sweep.collective_cell(op, p, machine, root=root))
    return cells


def warmup_subset(cells: list) -> list:
    """The smallest-p cell of each workload family (the untimed warm-up)."""
    first: dict[str, object] = {}
    for cell in sorted(cells, key=lambda c: (c.p, c.cell_id)):
        first.setdefault(cell.workload, cell)
    return list(first.values())


# -- output checks ----------------------------------------------------------


def record_digest(counts, vtimes) -> str:
    """sha256 of a run's per-rank counts_signature rows and virtual
    clocks (JSON floats round-trip exactly, so equal runs digest equal)."""
    blob = json.dumps(
        {"counts": [list(r) for r in counts], "vtimes": list(vtimes)},
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())["cells"]


def check_counts(cell, counts, vtimes, digests: dict) -> str | None:
    """None when a run's per-rank counts and virtual clocks are right;
    otherwise what is wrong. ``coll:*`` cells must equal their
    closed-form oracle exactly; scenario cells must match the committed
    digest."""
    if cell.workload.startswith("coll:"):
        oracle = sweep.cell_oracle(cell)
        if [tuple(r) for r in counts] != [tuple(r) for r in oracle.signature()]:
            return "counts differ from cell_oracle"
        if list(vtimes) != list(oracle.vtimes):
            return "vtimes differ from cell_oracle"
        return None
    want = digests.get(cell.cell_id)
    if want is None:
        return "no committed digest"
    if record_digest(counts, vtimes) != want:
        return "counts/vtimes digest differs from the committed one"
    return None


def oracle_for(cell):
    """The closed-form oracle of any cell (collective or scenario)."""
    if cell.workload.startswith("coll:"):
        return sweep.cell_oracle(cell)
    kwargs = {"c": cell.params["c"]} if "c" in cell.params else {}
    return oracle_scenario(cell.workload, cell.p, cell.params["n"], **kwargs)


def check_scenario_oracle(cell, record, oracle) -> str | None:
    """Scenario counts against the conformance closed forms (full
    per-rank rows where they exist, exact per-rank flops otherwise)."""
    if oracle.per_rank is not None:
        if [tuple(r) for r in record.counts] != [tuple(r) for r in oracle.per_rank]:
            return "counts differ from oracle_scenario"
    elif [r[0] for r in record.counts] != list(oracle.rank_flops):
        return "flops differ from oracle_scenario"
    return None


# -- rounds ------------------------------------------------------------------


@dataclass
class RoundResult:
    """What one round did: cells attempted, the failures (cell id ->
    reason), and the run-sweep outcome when the round was a sweep."""

    cells: int
    failures: dict = field(default_factory=dict)
    outcome: object = None
    trace_bytes: int = 0
    events: int = 0


def sweep_round(cells, workdir: Path, workers=None) -> RoundResult:
    """Cold ``run_sweep`` with a fresh cache and ledger. Returns before
    checking; call :func:`check_sweep` outside the timed region."""
    cache = sweep.RunCache(workdir / "cache")
    ledger = Ledger(workdir / "ledger.jsonl")
    outcome = sweep.run_sweep(cells, ledger=ledger, cache=cache, workers=workers)
    return RoundResult(cells=len(cells), outcome=outcome)


def check_sweep(cells, result: RoundResult, digests: dict) -> None:
    outcome = result.outcome
    for o in outcome.outcomes:
        if o.status == "failed":
            result.failures[o.cell_id] = o.error or "failed"
    for cell in cells:
        record = outcome.records.get(cell.cell_id)
        if record is None:
            result.failures.setdefault(cell.cell_id, "no record")
            continue
        why = check_counts(cell, record.counts, record.vtimes, digests)
        if why:
            result.failures[cell.cell_id] = why


def analyze_cell(cell, workdir: Path, digests: dict, result: RoundResult) -> None:
    """What ``repro trace``/``profile``/``power`` do for one cell, with
    the traced-run checks: counts digest, critical path total equal to
    the simulated time, power-trace energy terms equal to the model
    profile's, and no dropped events."""
    program, args, label = sweep.build_cell_program(cell)
    machine = sweep.cell_machine(cell)
    out = simmpi.run_spmd(cell.p, program, *args, machine=machine, trace=True)
    timeline = out.timeline()
    path = timeline.critical_path()
    profile = profiler.ModelProfile.from_result(
        out, machine, memory_words=cell.memory_words, label=label
    )
    power = powertrace.PowerTrace.from_result(
        out, machine, memory_words=cell.memory_words, label=label
    )
    dump = workdir / "trace.json"
    timeline.save_chrome_trace(dump, power=power)
    result.trace_bytes += dump.stat().st_size
    result.events += sum(log.recorded for log in out.event_logs)
    report = out.report
    why = check_counts(
        cell, report.counts_signature(), [r.vtime for r in report.ranks], digests
    )
    problems = [why] if why else []
    if path.total != report.simulated_time:
        problems.append("critical path total != simulated_time")
    if power.energy_terms != profile.energy_terms:
        problems.append("PowerTrace energy terms != ModelProfile terms")
    if timeline.dropped:
        problems.append(f"{timeline.dropped} events dropped")
    if problems:
        result.failures[cell.cell_id] = "; ".join(problems)


def analysis_round(cells, workdir: Path, digests: dict) -> RoundResult:
    result = RoundResult(cells=len(cells))
    for cell in cells:
        try:
            analyze_cell(cell, workdir, digests, result)
        except Exception as exc:  # noqa: BLE001 - a failed cell, reported
            result.failures[cell.cell_id] = f"{type(exc).__name__}: {exc}"
    return result


# -- the workloads ------------------------------------------------------------


@dataclass
class Workload:
    """One named workload: its planned cells and how a round runs them."""

    name: str
    cells: list
    digests: dict
    kind: str  # "sweep" | "analysis"

    def run_round(self, cells, workdir: Path, workers=None) -> RoundResult:
        """One round; call :meth:`check_round` after it, untimed.
        ``workers`` goes to ``run_sweep`` (the traced run passes 0)."""
        if self.kind == "sweep":
            return sweep_round(cells, workdir, workers)
        return analysis_round(cells, workdir, self.digests)

    def check_round(self, cells, result: RoundResult) -> None:
        if self.kind == "sweep":
            check_sweep(cells, result, self.digests)


WORKLOAD_NAMES = ("scenario-sweep", "collective-sweep", "traced-analysis")


def plan(name: str, seed: int) -> Workload:
    """Plan a workload's cells from the seed."""
    rng = random.Random(seed)
    digests = load_digests()
    if name == "scenario-sweep":
        return Workload(name, sweep.plan_cells(scenario_specs()), digests, "sweep")
    if name == "collective-sweep":
        return Workload(name, collective_cells(rng), digests, "sweep")
    if name == "traced-analysis":
        cells = sweep.plan_cells(traced_specs())
        cells.sort(key=lambda c: c.cell_id)
        rng.shuffle(cells)
        return Workload(name, cells, digests, "analysis")
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOAD_NAMES}")


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
