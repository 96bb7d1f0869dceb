"""Perfect-scaling drift detection over ledger p-sweeps.

The paper's theorem says that inside the replication band
``n^2/p <= M <= n^2/p^(2/3)`` every Eq. (1) term falls like 1/p (so
``term * p`` is flat across the sweep) while every Eq. (2) term stays
flat outright. A code change that silently bends one of those curves —
an algorithm regression inflating the latency term, a metering bug
shifting words between ranks — shows up here before it shows up in a
paper-sized experiment.

:func:`check_sweep` takes a fixed-tile p-sweep of ledger records (one
workload key, p varying) and classifies each cost term against the
tolerance table :data:`DRIFT_TOLERANCES` (same spirit as the bounds
in ``benchmarks/bench_regress.py`` — loose enough for the constant-factor
wobble real measured counts carry, tight enough that a 2x term
inflation can never pass):

* ``perfect``  — normalized spread within the term's ``perfect`` bound;
* ``degraded`` — beyond ``perfect`` but within ``degraded`` (the run
  still scales, the constant drifted);
* ``broken``   — beyond ``degraded`` (the term no longer scales).

The sweep's overall verdict is its worst term. Terms that are
everywhere ~zero (e.g. ``alphaS`` energy on a machine with
``alpha_e = 0``) are vacuously perfect.

:func:`check_power_flatness` applies the same machinery to the
Section V-E power statement: per-processor average power P/p is
independent of p inside the band (power telemetry's drift axis). It is
a separate check, not a ninth :func:`check_sweep` term, because power
is a *ratio* of the Eq. (1)/(2) totals rather than a term of either —
and because it must also work on ledger records old enough to predate
the power fields (it falls back to ``energy_total / time_total``).

:func:`diff_against_baseline` compares a fresh record against the best
historical record for the same workload key (same workload, params and
p) so every new run is also judged against its own past.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from repro.analysis.profiler import ENERGY_TERM_KEYS, TIME_TERM_KEYS
from repro.exceptions import ParameterError
from repro.observatory.ledger import Ledger, RunRecord, records_from

__all__ = [
    "DRIFT_TOLERANCES",
    "TermVerdict",
    "SweepVerdict",
    "BaselineDiff",
    "check_sweep",
    "check_power_flatness",
    "diff_against_baseline",
    "inflate_term",
    "sweep_key",
]

#: Per-term tolerance table on the normalized spread
#: ``(max - min) / max`` of the scaled series (``term * p`` for time
#: terms, ``term`` for energy terms) across the sweep. Calibrated on
#: the canonical fixed-tile 2.5D walk (q = 6, c = 1, 2, 3 — counts are
#: deterministic, so these are exact, not noisy): gammaF is perfectly
#: flat by construction; the bandwidth/latency/memory terms carry the
#: replication collectives' c-dependent constants (measured spreads
#: 0.39–0.78), hence the graded ``perfect`` bounds. A 2x inflation of
#: any one term on the post-baseline points pushes its spread past
#: ``perfect`` but inside ``degraded``; a 4x inflation lands
#: ``broken``. (A *uniform* inflation of every point is invisible to
#: flatness by design — :func:`diff_against_baseline` catches it.)
DRIFT_TOLERANCES: dict[str, dict[str, float]] = {
    "T:gammaF": {"perfect": 0.10, "degraded": 0.85},
    "T:betaW": {"perfect": 0.55, "degraded": 0.85},
    "T:alphaS": {"perfect": 0.80, "degraded": 0.93},
    "E:gammaF": {"perfect": 0.10, "degraded": 0.85},
    "E:betaW": {"perfect": 0.45, "degraded": 0.80},
    "E:alphaS": {"perfect": 0.35, "degraded": 0.85},
    "E:deltaMT": {"perfect": 0.50, "degraded": 0.85},
    "E:epsT": {"perfect": 0.35, "degraded": 0.85},
    # Per-processor power P/p (Section V-E: independent of p in band).
    # Canonical-sweep spread is 0.22 on the default machine (the same
    # c-dependent collective constants as the terms above); a 2x
    # inflation of the leakage term epsT on the post-baseline points
    # lands ~0.33 (degraded), a 4x lands ~0.60 (broken).
    "P:perProc": {"perfect": 0.30, "degraded": 0.55},
}

#: Ratio over the best historical T/E total that flags a regression in
#: :func:`diff_against_baseline` (wall-clock is judged separately and
#: loosely — it is machine noise, not model drift).
BASELINE_TOLERANCE = 0.10

_CLASSES = ("perfect", "degraded", "broken")


@dataclass(frozen=True)
class TermVerdict:
    """One cost term's flatness across a p-sweep."""

    term: str  # e.g. "T:betaW"
    values: tuple[float, ...]  # scaled series: term*p (time) or term (energy)
    spread: float  # (max - min) / max, 0 for a ~zero series
    classification: str  # perfect | degraded | broken

    @property
    def ok(self) -> bool:
        return self.classification == "perfect"


@dataclass(frozen=True)
class SweepVerdict:
    """A p-sweep's per-term verdicts plus the worst-term summary."""

    workload: str
    p_values: tuple[int, ...]
    in_band: tuple[bool, ...]  # replication-band membership per point
    terms: tuple[TermVerdict, ...]
    classification: str  # worst term's class

    @property
    def ok(self) -> bool:
        return self.classification == "perfect"

    def term(self, name: str) -> TermVerdict:
        for tv in self.terms:
            if tv.term == name:
                return tv
        raise ParameterError(f"no verdict for term {name!r}")

    def render(self) -> str:
        band = "".join("y" if b else "N" for b in self.in_band)
        lines = [
            f"scaling drift check: {self.workload} over p={list(self.p_values)} "
            f"(in-band: {band}) -> {self.classification.upper()}"
        ]
        lines.append(
            f"  {'term':<10s} {'spread':>8s} {'perfect<=':>10s} "
            f"{'degraded<=':>11s} verdict   scaled series"
        )
        for tv in self.terms:
            tol = DRIFT_TOLERANCES[tv.term]
            series = " ".join(f"{v:.4g}" for v in tv.values)
            lines.append(
                f"  {tv.term:<10s} {tv.spread:>8.3f} {tol['perfect']:>10.2f} "
                f"{tol['degraded']:>11.2f} {tv.classification:<9s} {series}"
            )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "schema": "repro_drift/v1",
            "workload": self.workload,
            "p_values": list(self.p_values),
            "in_band": list(self.in_band),
            "classification": self.classification,
            "terms": [
                {
                    "term": tv.term,
                    "spread": tv.spread,
                    "classification": tv.classification,
                    "values": list(tv.values),
                }
                for tv in self.terms
            ],
        }


def sweep_key(record: RunRecord) -> tuple:
    """The identity a sweep groups on: workload + non-scaling params.

    ``p`` and the replication factor ``c`` vary along a fixed-tile
    strong-scaling walk, everything else (n, q, tile sizes...) pins the
    workload.
    """
    pinned = tuple(
        sorted((k, v) for k, v in record.params.items() if k not in ("p", "c"))
    )
    return (record.workload, pinned)


#: Constant slack for replication-band membership: the band is a Theta
#: statement on the *input* replication, while the charged M counts the
#: three resident tiles (A, B, C). With slack 3, a fixed-tile 2.5D walk
#: is in band exactly for c <= q — the textbook 2.5D range (c = q is
#: the 3D limit).
BAND_SLACK = 3.0


def _in_band(record: RunRecord) -> bool:
    """Replication-band membership n^2/p <= M <= n^2/p^(2/3) up to the
    resident-tile constant :data:`BAND_SLACK`, when the record carries
    n and a charged M; vacuously True otherwise."""
    n = record.params.get("n")
    M = record.memory_words
    if not n or not M or record.p < 1:
        return True
    lo = float(n) ** 2 / record.p
    hi = float(n) ** 2 / record.p ** (2.0 / 3.0)
    tol = 1e-9
    return lo * (1 - tol) <= M * BAND_SLACK and M <= BAND_SLACK * hi * (1 + tol)


def _classify(spread: float, term: str) -> str:
    tol = DRIFT_TOLERANCES[term]
    if spread <= tol["perfect"]:
        return "perfect"
    if spread <= tol["degraded"]:
        return "degraded"
    return "broken"


def _spread(values: tuple[float, ...]) -> float:
    peak = max(abs(v) for v in values)
    if peak == 0.0:
        return 0.0
    return (max(values) - min(values)) / peak


def check_sweep(
    source: "Ledger | Iterable[RunRecord]",
    workload: str | None = None,
) -> SweepVerdict:
    """Classify one fixed-tile p-sweep as perfect/degraded/broken per term.

    ``source`` may be a :class:`Ledger` (optionally filtered by
    ``workload``) or an explicit record list. Records must share one
    :func:`sweep_key`, carry model terms, and span at least two distinct
    p values; duplicates at one p keep the most recent record.
    """
    records = [
        r
        for r in records_from(source)
        if r.kind == "run" and r.time_terms is not None and r.energy_terms is not None
    ]
    if workload is not None:
        records = [r for r in records if r.workload == workload]
    if not records:
        raise ParameterError("no sweep records with model terms to check")
    keys = {sweep_key(r) for r in records}
    if len(keys) > 1:
        raise ParameterError(
            f"records span {len(keys)} workload keys {sorted(keys)}; "
            "a sweep must share one (filter by workload/params first)"
        )
    by_p: dict[int, RunRecord] = {}
    for r in records:  # append order == ledger order; later wins
        by_p[r.p] = r
    if len(by_p) < 2:
        raise ParameterError(
            f"a sweep needs >= 2 distinct p values, got {sorted(by_p)}"
        )
    sweep = [by_p[p] for p in sorted(by_p)]
    p_values = tuple(r.p for r in sweep)
    in_band = tuple(_in_band(r) for r in sweep)

    verdicts = []
    for key in TIME_TERM_KEYS:
        values = tuple(r.time_terms[key] * r.p for r in sweep)
        spread = _spread(values)
        verdicts.append(
            TermVerdict(
                term=f"T:{key}",
                values=values,
                spread=spread,
                classification=_classify(spread, f"T:{key}"),
            )
        )
    for key in ENERGY_TERM_KEYS:
        values = tuple(r.energy_terms[key] for r in sweep)
        spread = _spread(values)
        verdicts.append(
            TermVerdict(
                term=f"E:{key}",
                values=values,
                spread=spread,
                classification=_classify(spread, f"E:{key}"),
            )
        )
    worst = max(
        (tv.classification for tv in verdicts), key=_CLASSES.index
    )
    return SweepVerdict(
        workload=sweep[0].workload,
        p_values=p_values,
        in_band=in_band,
        terms=tuple(verdicts),
        classification=worst,
    )


def _per_processor_watts(record: RunRecord) -> float | None:
    """P/p for one ledger record, or None when the record carries no
    modeled totals.

    Prefers ``energy_total / time_total`` (the definition) so perturbed
    copies from :func:`inflate_term` flow through; records written by
    the current ledger also carry the identical ratio pre-divided in
    ``avg_watts``, which serves as the fallback for hand-built records.
    """
    if (
        record.time_total is not None
        and record.time_total > 0
        and record.energy_total is not None
    ):
        return record.energy_total / record.time_total / record.p
    if record.avg_watts is not None:
        return record.avg_watts / record.p
    return None


def check_power_flatness(
    source: "Ledger | Iterable[RunRecord]",
    workload: str | None = None,
) -> SweepVerdict:
    """Classify a p-sweep's per-processor power P/p as perfect/degraded/broken.

    Section V-E: inside the replication band, total power grows
    linearly with p, so P/p is independent of p — a bend here means the
    run is paying *additional energy per unit time per processor* for
    its speedup, exactly what the paper's title rules out. Record
    selection mirrors :func:`check_sweep` (one workload key, latest
    record per p, >= 2 distinct p values); the verdict carries the
    single term ``"P:perProc"`` judged against its
    :data:`DRIFT_TOLERANCES` row.
    """
    records = [
        r
        for r in records_from(source)
        if r.kind == "run" and _per_processor_watts(r) is not None
    ]
    if workload is not None:
        records = [r for r in records if r.workload == workload]
    if not records:
        raise ParameterError("no sweep records with power data to check")
    keys = {sweep_key(r) for r in records}
    if len(keys) > 1:
        raise ParameterError(
            f"records span {len(keys)} workload keys {sorted(keys)}; "
            "a sweep must share one (filter by workload/params first)"
        )
    by_p: dict[int, RunRecord] = {}
    for r in records:  # append order == ledger order; later wins
        by_p[r.p] = r
    if len(by_p) < 2:
        raise ParameterError(
            f"a sweep needs >= 2 distinct p values, got {sorted(by_p)}"
        )
    sweep = [by_p[p] for p in sorted(by_p)]
    values = tuple(_per_processor_watts(r) for r in sweep)
    spread = _spread(values)
    classification = _classify(spread, "P:perProc")
    verdict = TermVerdict(
        term="P:perProc",
        values=values,
        spread=spread,
        classification=classification,
    )
    return SweepVerdict(
        workload=sweep[0].workload,
        p_values=tuple(r.p for r in sweep),
        in_band=tuple(_in_band(r) for r in sweep),
        terms=(verdict,),
        classification=classification,
    )


def inflate_term(
    records: Iterable[RunRecord], term: str, factor: float
) -> list[RunRecord]:
    """A perturbed copy of a sweep: one term inflated on every point
    except the smallest-p one.

    Models the failure the drift checker exists to catch — a code
    change that regresses one cost term *after* a healthy baseline
    point was recorded (the pre-regression point stays pristine, so the
    flatness check sees the bend). ``term`` is a tolerance-table key
    like ``"T:alphaS"``; the inflated term and the matching total are
    both scaled consistently. Used by the tests and the CLI's
    ``--inflate`` demo.
    """
    if term not in DRIFT_TOLERANCES:
        raise ParameterError(
            f"unknown term {term!r}; expected one of {sorted(DRIFT_TOLERANCES)}"
        )
    if factor <= 0:
        raise ParameterError(f"inflation factor must be > 0, got {factor}")
    side, key = term.split(":", 1)
    if side not in ("T", "E"):
        raise ParameterError(
            f"only T:/E: terms can be inflated, got {term!r} "
            "(P:perProc is a derived ratio — inflate E:epsT instead)"
        )
    records = list(records)
    baseline_p = min((r.p for r in records), default=None)
    out = []
    for r in records:
        if r.p == baseline_p:
            out.append(r)
            continue
        if side == "T":
            if r.time_terms is None:
                raise ParameterError("record carries no time terms to inflate")
            terms = dict(r.time_terms)
            delta = (factor - 1.0) * terms[key]
            terms[key] *= factor
            out.append(
                replace(
                    r,
                    time_terms=terms,
                    time_total=None if r.time_total is None else r.time_total + delta,
                )
            )
        else:
            if r.energy_terms is None:
                raise ParameterError("record carries no energy terms to inflate")
            terms = dict(r.energy_terms)
            delta = (factor - 1.0) * terms[key]
            terms[key] *= factor
            new_total = (
                None if r.energy_total is None else r.energy_total + delta
            )
            avg = r.avg_watts
            if avg is not None and new_total is not None and r.time_total:
                avg = new_total / r.time_total  # keep P = E/T consistent
            out.append(
                replace(
                    r,
                    energy_terms=terms,
                    energy_total=new_total,
                    avg_watts=avg,
                )
            )
    return out


@dataclass(frozen=True)
class BaselineDiff:
    """A fresh record vs the best historical record at its workload key."""

    workload: str
    p: int
    baseline_created_at: str
    time_ratio: float | None  # fresh T / best historical T
    energy_ratio: float | None
    wall_ratio: float | None
    regression: bool  # model totals drifted beyond BASELINE_TOLERANCE

    def render(self) -> str:
        def fmt(x):
            return "-" if x is None else f"{x:.3f}x"

        status = "REGRESSION" if self.regression else "ok"
        return (
            f"baseline diff [{status}]: {self.workload} p={self.p} vs best "
            f"of {self.baseline_created_at or 'history'}: "
            f"T {fmt(self.time_ratio)}, E {fmt(self.energy_ratio)}, "
            f"wall {fmt(self.wall_ratio)}"
        )


def diff_against_baseline(
    record: RunRecord,
    history: "Ledger | Iterable[RunRecord]",
) -> BaselineDiff | None:
    """Compare ``record`` against the best historical run at the same
    (workload key, p).

    "Best" means lowest modeled T total (ties by lowest E). Returns
    None when the history holds no comparable record. A fresh T or E
    more than :data:`BASELINE_TOLERANCE` above the best historical
    value flags ``regression`` (model totals are deterministic for
    deterministic workloads, so any drift is a real code change, not
    noise; wall-clock is reported but never flags on its own).
    """
    key = sweep_key(record)
    candidates = [
        r
        for r in records_from(history)
        if r.kind == "run"
        and r.p == record.p
        and sweep_key(r) == key
        and r.time_total is not None
        and r.created_at != record.created_at
    ]
    if not candidates:
        return None
    best = min(
        candidates,
        key=lambda r: (r.time_total, r.energy_total if r.energy_total else 0.0),
    )

    def ratio(fresh, base):
        if fresh is None or base in (None, 0.0):
            return None
        return fresh / base

    time_ratio = ratio(record.time_total, best.time_total)
    energy_ratio = ratio(record.energy_total, best.energy_total)
    wall_ratio = ratio(record.wall_seconds, best.wall_seconds)
    regression = any(
        r is not None and r > 1.0 + BASELINE_TOLERANCE
        for r in (time_ratio, energy_ratio)
    )
    return BaselineDiff(
        workload=record.workload,
        p=record.p,
        baseline_created_at=best.created_at,
        time_ratio=time_ratio,
        energy_ratio=energy_ratio,
        wall_ratio=wall_ratio,
        regression=regression,
    )
