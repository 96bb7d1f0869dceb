"""Append-only JSONL run ledger — durable memory for every simulated run.

One :class:`RunRecord` is one line of JSON in the ledger file: a
versioned, self-describing snapshot of a run (workload id and
parameters, the machine constants it was priced with, per-rank counts
and virtual clocks, the Eq. (1)/(2) term attribution, an optional
metrics-registry snapshot, wall-clock seconds and the git SHA the code
ran at). Appends are atomic at line granularity — the ledger is safe to
share between benchmark processes on one machine — and reads *never*
fail on a bad line: anything unparseable or schema-invalid is copied to
a ``<ledger>.quarantine`` sidecar (with the line number and reason) and
skipped, so one corrupt write cannot take down the history.

Two record kinds share the schema:

* ``kind="run"`` — a simulated SPMD execution with per-rank counts;
  emitted by the ``record=`` hook on
  :func:`repro.simmpi.run_spmd` / :meth:`repro.simmpi.SpmdPool.run`
  (pass a :class:`RunRecorder` naming the workload) or built explicitly
  with :meth:`RunRecord.from_result`.
* ``kind="bench"`` — a wall-clock benchmark headline (no per-rank
  counts); the perf benchmarks append these so the BENCH trajectory
  accumulates PR over PR.

The ``record=None`` default path costs the engine a single ``is None``
test *after* the run has joined — counts and per-rank virtual clocks
are bit-identical with the hook on or off
(``tests/test_observatory.py::TestRecordHookEquivalence`` holds this
exactly).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.exceptions import ParameterError

__all__ = [
    "LEDGER_SCHEMA",
    "MACHINE_FIELDS",
    "RunRecord",
    "RunRecorder",
    "Ledger",
    "emit_run",
    "git_sha",
]

#: Schema tag every ledger line carries.
LEDGER_SCHEMA = "repro_run/v1"

#: The ten MachineParameters constants a record persists, in field order.
MACHINE_FIELDS = (
    "gamma_t",
    "beta_t",
    "alpha_t",
    "gamma_e",
    "beta_e",
    "alpha_e",
    "delta_e",
    "epsilon_e",
    "memory_words",
    "max_message_words",
)

_KINDS = ("run", "bench")


def _utcnow() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ")


_git_sha_cache: dict[str, str | None] = {}


def git_sha(cwd: str | None = None) -> str | None:
    """The current commit SHA, or None outside a git checkout.

    Cached per directory — the subprocess runs once per process, not
    once per record.
    """
    key = cwd or os.getcwd()
    if key not in _git_sha_cache:
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=cwd,
                capture_output=True,
                text=True,
                timeout=5.0,
            )
            sha = out.stdout.strip()
            _git_sha_cache[key] = sha if out.returncode == 0 and sha else None
        except (OSError, subprocess.SubprocessError):
            _git_sha_cache[key] = None
    return _git_sha_cache[key]


def _machine_dict(machine) -> dict[str, float] | None:
    """MachineParameters -> plain constants dict (None passes through)."""
    if machine is None:
        return None
    return {name: float(getattr(machine, name)) for name in MACHINE_FIELDS}


@dataclass(frozen=True)
class RunRecord:
    """One ledger line: a versioned snapshot of one run.

    ``counts`` holds one ``[flops, words_sent, messages_sent,
    words_received, messages_received]`` row per rank — exactly the
    tuple layout of
    :meth:`repro.simmpi.trace.TraceReport.counts_signature`, so two
    records (or a record and a live report) can be compared for
    bit-identical counts. ``time_terms``/``energy_terms`` are the
    Eq. (1)/(2) attribution in
    :data:`repro.analysis.profiler.TIME_TERM_KEYS` /
    ``ENERGY_TERM_KEYS`` order; they are present only when the run
    carried machine constants to price against.
    """

    workload: str
    p: int
    kind: str = "run"
    label: str = ""
    params: dict[str, Any] = field(default_factory=dict)
    machine: dict[str, float] | None = None
    memory_words: float | None = None  # M charged to delta_e M T
    counts: tuple[tuple[float, int, int, int, int], ...] = ()
    vtimes: tuple[float, ...] = ()
    mem_peaks: tuple[int, ...] = ()
    critical_rank: int | None = None
    time_terms: dict[str, float] | None = None
    energy_terms: dict[str, float] | None = None
    time_total: float | None = None
    energy_total: float | None = None
    #: whole-run average power E / T (the division of the two totals
    #: above, so it matches core.power.average_power_from_report and
    #: PowerTrace.average_watts bitwise); None without machine constants
    avg_watts: float | None = None
    #: machine-wide envelope peak from the power telemetry — only
    #: available when the run was traced (event logs, no ring drops)
    peak_watts: float | None = None
    #: headline snapshot of the run metrics (traced runs only)
    metrics: dict[str, Any] | None = None
    wall_seconds: float | None = None
    git_sha: str | None = None
    created_at: str = field(default_factory=_utcnow)
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ParameterError(
                f"record kind must be one of {_KINDS}, got {self.kind!r}"
            )
        if not self.workload:
            raise ParameterError("record needs a non-empty workload id")
        if self.kind == "run" and self.p < 1:
            raise ParameterError(f"run record needs p >= 1, got {self.p}")
        if self.counts and len(self.counts) != self.p:
            raise ParameterError(
                f"counts rows ({len(self.counts)}) must match p ({self.p})"
            )
        if self.vtimes and len(self.vtimes) != self.p:
            raise ParameterError(
                f"vtimes ({len(self.vtimes)}) must match p ({self.p})"
            )

    # -- construction ----------------------------------------------------

    @classmethod
    def from_result(
        cls,
        result,
        workload: str,
        params: dict[str, Any] | None = None,
        machine=None,
        memory_words: float | None = None,
        label: str = "",
        wall_seconds: float | None = None,
        extra: dict[str, Any] | None = None,
        with_git_sha: bool = True,
    ) -> "RunRecord":
        """Build a ``kind="run"`` record from an
        :class:`~repro.simmpi.engine.SpmdResult`.

        When ``machine`` is given (a
        :class:`~repro.core.parameters.MachineParameters`), the record
        carries the Eq. (1)/(2) term attribution computed through
        :class:`~repro.analysis.profiler.ModelProfile` — the exact
        values the fitter inverts and the drift checker tests.
        """
        report = result.report
        critical_rank = None
        time_terms = energy_terms = None
        time_total = energy_total = None
        avg_watts = peak_watts = None
        mem_words = memory_words
        machine_d = _machine_dict(machine)
        if machine is not None:
            from repro.analysis.profiler import ModelProfile

            profile = ModelProfile.from_report(
                report, machine, memory_words=memory_words, label=label
            )
            critical_rank = profile.critical_rank
            time_terms = profile.time_terms
            energy_terms = profile.energy_terms
            time_total = profile.time.total
            energy_total = profile.energy.total
            mem_words = profile.memory_words
            if time_total > 0:
                avg_watts = energy_total / time_total
            if getattr(result, "event_logs", None) is not None:
                from repro.analysis.powertrace import PowerTrace

                try:
                    peak_watts = PowerTrace.from_result(
                        result, machine, memory_words=mem_words
                    ).peak_watts
                except ParameterError:
                    peak_watts = None  # ring drops / no virtual clocks
        metrics_snapshot = None
        if result.metrics is not None:
            from repro.metrics.export import to_record_snapshot

            metrics_snapshot = to_record_snapshot(result.metrics)
        return cls(
            workload=workload,
            p=report.size,
            label=label,
            params=dict(params or {}),
            machine=machine_d,
            memory_words=None if mem_words is None else float(mem_words),
            counts=report.counts_signature(),
            vtimes=tuple(r.vtime for r in report.ranks),
            mem_peaks=tuple(r.mem_peak_words for r in report.ranks),
            critical_rank=critical_rank,
            time_terms=time_terms,
            energy_terms=energy_terms,
            time_total=time_total,
            energy_total=energy_total,
            avg_watts=avg_watts,
            peak_watts=peak_watts,
            metrics=metrics_snapshot,
            wall_seconds=wall_seconds,
            git_sha=git_sha() if with_git_sha else None,
            extra=dict(extra or {}),
        )

    @classmethod
    def bench(
        cls,
        workload: str,
        params: dict[str, Any] | None = None,
        extra: dict[str, Any] | None = None,
        wall_seconds: float | None = None,
        label: str = "",
        with_git_sha: bool = True,
    ) -> "RunRecord":
        """Build a ``kind="bench"`` record (headline numbers, no ranks)."""
        return cls(
            workload=workload,
            p=0,
            kind="bench",
            label=label,
            params=dict(params or {}),
            wall_seconds=wall_seconds,
            git_sha=git_sha() if with_git_sha else None,
            extra=dict(extra or {}),
        )

    # -- aggregate views -------------------------------------------------

    def counts_signature(self) -> tuple:
        """The per-rank counts as the tuple layout of
        :meth:`~repro.simmpi.trace.TraceReport.counts_signature`."""
        return tuple(tuple(row) for row in self.counts)

    @property
    def total_flops(self) -> float:
        return sum(row[0] for row in self.counts)

    @property
    def total_words(self) -> float:
        return float(sum(row[1] for row in self.counts))

    @property
    def total_messages(self) -> float:
        return float(sum(row[2] for row in self.counts))

    def critical_counts(self) -> tuple[float, float, float]:
        """(F, W, S) of the recorded critical rank — the Eq. (1) design
        row the fitter inverts."""
        if self.critical_rank is None:
            raise ParameterError(
                f"record {self.workload!r} has no critical_rank (it was "
                "recorded without machine constants)"
            )
        row = self.counts[self.critical_rank]
        return (float(row[0]), float(row[1]), float(row[2]))

    def machine_parameters(self):
        """The recorded constants as a live
        :class:`~repro.core.parameters.MachineParameters` (None when
        the run carried no machine)."""
        if self.machine is None:
            return None
        from repro.core.parameters import MachineParameters

        return MachineParameters(**self.machine)

    # -- (de)serialization -----------------------------------------------

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": LEDGER_SCHEMA,
            "kind": self.kind,
            "workload": self.workload,
            "label": self.label,
            "created_at": self.created_at,
            "p": self.p,
            "params": self.params,
            "machine": self.machine,
            "memory_words": self.memory_words,
            "counts": [list(row) for row in self.counts],
            "vtimes": list(self.vtimes),
            "mem_peaks": list(self.mem_peaks),
            "critical_rank": self.critical_rank,
            "time_terms": self.time_terms,
            "energy_terms": self.energy_terms,
            "time_total": self.time_total,
            "energy_total": self.energy_total,
            "avg_watts": self.avg_watts,
            "peak_watts": self.peak_watts,
            "metrics": self.metrics,
            "wall_seconds": self.wall_seconds,
            "git_sha": self.git_sha,
            "extra": self.extra,
        }

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "RunRecord":
        """Validate and revive one parsed ledger line.

        Raises :class:`~repro.exceptions.ParameterError` on any schema
        violation — the ledger reader converts that into quarantine.
        """
        if not isinstance(payload, dict):
            raise ParameterError("ledger line is not a JSON object")
        if payload.get("schema") != LEDGER_SCHEMA:
            raise ParameterError(
                f"unknown ledger schema {payload.get('schema')!r} "
                f"(expected {LEDGER_SCHEMA!r})"
            )
        kind = payload.get("kind", "run")
        workload = payload.get("workload")
        if not isinstance(workload, str) or not workload:
            raise ParameterError("record needs a non-empty string workload")
        p = payload.get("p")
        if not isinstance(p, int) or isinstance(p, bool):
            raise ParameterError(f"record p must be an int, got {p!r}")
        counts_raw = payload.get("counts") or []
        if not isinstance(counts_raw, list):
            raise ParameterError("record counts must be a list")
        counts = []
        for row in counts_raw:
            if not isinstance(row, (list, tuple)) or len(row) != 5 or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                and math.isfinite(v)
                for v in row
            ):
                raise ParameterError(f"malformed counts row {row!r}")
            counts.append(
                (float(row[0]), int(row[1]), int(row[2]), int(row[3]), int(row[4]))
            )
        vtimes_raw = payload.get("vtimes") or []
        if not isinstance(vtimes_raw, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v)
            for v in vtimes_raw
        ):
            raise ParameterError("record vtimes must be a list of finite numbers")
        machine = payload.get("machine")
        if machine is not None:
            if not isinstance(machine, dict) or sorted(machine) != sorted(
                MACHINE_FIELDS
            ):
                raise ParameterError(
                    "record machine must carry exactly the ten model constants"
                )
            machine = {k: float(machine[k]) for k in MACHINE_FIELDS}
        for terms_key, expect in (
            ("time_terms", ("gammaF", "betaW", "alphaS")),
            ("energy_terms", ("gammaF", "betaW", "alphaS", "deltaMT", "epsT")),
        ):
            terms = payload.get(terms_key)
            if terms is not None and (
                not isinstance(terms, dict) or sorted(terms) != sorted(expect)
            ):
                raise ParameterError(
                    f"record {terms_key} must carry exactly the keys {expect}"
                )
        return cls(
            workload=workload,
            p=p,
            kind=kind,
            label=str(payload.get("label", "")),
            params=dict(payload.get("params") or {}),
            machine=machine,
            memory_words=payload.get("memory_words"),
            counts=tuple(counts),
            vtimes=tuple(float(v) for v in vtimes_raw),
            mem_peaks=tuple(int(v) for v in payload.get("mem_peaks") or ()),
            critical_rank=payload.get("critical_rank"),
            time_terms=payload.get("time_terms"),
            energy_terms=payload.get("energy_terms"),
            time_total=payload.get("time_total"),
            energy_total=payload.get("energy_total"),
            avg_watts=payload.get("avg_watts"),
            peak_watts=payload.get("peak_watts"),
            metrics=payload.get("metrics"),
            wall_seconds=payload.get("wall_seconds"),
            git_sha=payload.get("git_sha"),
            created_at=str(payload.get("created_at", "")),
            extra=dict(payload.get("extra") or {}),
        )


class Ledger:
    """Append-only JSONL store of :class:`RunRecord` lines.

    ``append`` opens/writes/closes per call (atomic at line granularity
    on POSIX appends, and the common case appends a handful of records
    per process). ``records``/``query`` parse the whole file, validating
    every line; corrupt lines go to the ``<path>.quarantine`` sidecar
    with their line number and failure reason, and reading continues.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    @property
    def quarantine_path(self) -> Path:
        return self.path.with_name(self.path.name + ".quarantine")

    def __len__(self) -> int:
        return len(self.records())

    def append(self, record: RunRecord) -> RunRecord:
        """Serialize and append one record; returns it for chaining."""
        if not isinstance(record, RunRecord):
            raise ParameterError(
                f"ledger stores RunRecord instances, got {type(record).__name__}"
            )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record.to_json(), separators=(",", ":"))
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        return record

    def records(self) -> list[RunRecord]:
        """Every valid record, in append order. Corrupt lines are
        quarantined (see :meth:`quarantined`) and skipped."""
        if not self.path.is_file():
            return []
        out: list[RunRecord] = []
        bad: list[tuple[int, str, str]] = []
        with self.path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    payload = json.loads(stripped)
                except ValueError as exc:
                    bad.append((lineno, f"invalid JSON: {exc}", stripped))
                    continue
                try:
                    out.append(RunRecord.from_json(payload))
                except ParameterError as exc:
                    bad.append((lineno, str(exc), stripped))
        if bad:
            self._quarantine(bad)
        return out

    def _quarantine(self, bad: list[tuple[int, str, str]]) -> None:
        """Copy corrupt lines (with provenance) to the sidecar file."""
        with self.quarantine_path.open("a", encoding="utf-8") as fh:
            for lineno, reason, line in bad:
                fh.write(
                    json.dumps(
                        {
                            "ledger": str(self.path),
                            "line": lineno,
                            "reason": reason,
                            "content": line,
                            "quarantined_at": _utcnow(),
                        }
                    )
                    + "\n"
                )

    def quarantined(self) -> list[dict[str, Any]]:
        """The quarantine sidecar's entries (empty when all reads were
        clean)."""
        path = self.quarantine_path
        if not path.is_file():
            return []
        out = []
        with path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    out.append(json.loads(line))
        return out

    def query(
        self,
        workload: str | None = None,
        kind: str | None = None,
        params: dict[str, Any] | None = None,
        where: Callable[[RunRecord], bool] | None = None,
        limit: int | None = None,
    ) -> list[RunRecord]:
        """Filtered records, newest last.

        ``params`` matches as a subset (every given key must equal the
        record's value); ``where`` is an arbitrary final predicate;
        ``limit`` keeps only the most recent matches.
        """
        out = []
        for rec in self.records():
            if workload is not None and rec.workload != workload:
                continue
            if kind is not None and rec.kind != kind:
                continue
            if params is not None and any(
                rec.params.get(k) != v for k, v in params.items()
            ):
                continue
            if where is not None and not where(rec):
                continue
            out.append(rec)
        if limit is not None:
            out = out[-limit:]
        return out

    def workloads(self) -> dict[str, int]:
        """Workload id -> record count, for quick inventory."""
        counts: dict[str, int] = {}
        for rec in self.records():
            counts[rec.workload] = counts.get(rec.workload, 0) + 1
        return counts


@dataclass
class RunRecorder:
    """The ``record=`` hook: names the workload a run belongs to and the
    ledger it lands in.

    Pass one to :func:`repro.simmpi.run_spmd` or
    :meth:`repro.simmpi.SpmdPool.run`::

        ledger = Ledger("benchmarks/results/ledger.jsonl")
        rec = RunRecorder(ledger, workload="matmul25d",
                          params={"n": 48, "c": 2})
        run_spmd(32, matmul_25d, a, b, 2, machine=m, record=rec)

    The engine calls :meth:`emit` once, after the run has joined
    successfully — the hook can never perturb counts or virtual clocks.
    ``last_record`` keeps the most recent emission for callers that
    want the record without re-reading the ledger.
    """

    ledger: Ledger
    workload: str
    params: dict[str, Any] = field(default_factory=dict)
    label: str = ""
    memory_words: float | None = None
    extra: dict[str, Any] = field(default_factory=dict)
    last_record: RunRecord | None = field(default=None, repr=False)

    def emit(self, world, result, wall_seconds: float) -> RunRecord:
        record = RunRecord.from_result(
            result,
            workload=self.workload,
            params=self.params,
            machine=world.machine,
            memory_words=self.memory_words,
            label=self.label,
            wall_seconds=wall_seconds,
            extra=self.extra,
        )
        self.ledger.append(record)
        self.last_record = record
        return record


def emit_run(hook, world, result, wall_seconds: float) -> None:
    """Dispatch one finished run to its ``record=`` hook.

    Accepts a :class:`RunRecorder` (or anything with an ``emit(world,
    result, wall_seconds)`` method), a bare :class:`Ledger` (recorded
    under the generic ``"spmd"`` workload id), or a callable receiving
    the built :class:`RunRecord`.
    """
    if hasattr(hook, "emit"):
        hook.emit(world, result, wall_seconds)
        return
    record = RunRecord.from_result(
        result,
        workload="spmd",
        machine=world.machine,
        wall_seconds=wall_seconds,
    )
    if isinstance(hook, Ledger):
        hook.append(record)
    elif callable(hook):
        hook(record)
    else:
        raise ParameterError(
            "record= hook must be a RunRecorder, a Ledger, or a callable; "
            f"got {type(hook).__name__}"
        )


def records_from(source: "Ledger | Iterable[RunRecord]") -> list[RunRecord]:
    """Normalize a ledger-or-records argument to a record list (shared
    by the fitter and drift checker)."""
    if isinstance(source, Ledger):
        return source.records()
    return list(source)
