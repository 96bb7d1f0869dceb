"""Scaling observatory: persistent run ledger, model-fit inversion,
and perfect-scaling drift detection.

The simulator can *assert* the paper's theorem analytically, one run at
a time; this package makes the claim empirical and durable:

* :mod:`repro.observatory.ledger` — an append-only JSONL run ledger.
  A finished simmpi run becomes a versioned :class:`RunRecord`
  (workload id, machine constants, per-rank counts and virtual clocks,
  model terms, metrics snapshot, wall-clock, git SHA) through
  :meth:`RunRecord.from_result`; the sweep engine
  (:func:`repro.sweep.run_sweep` with ``ledger=``) appends the records
  of the runs it plans, and any caller can :meth:`Ledger.append` one.
  Reads validate the schema and quarantine corrupt lines instead of
  failing.
* :mod:`repro.observatory.fit` — least-squares inversion of
  Eq. (1)/(2): recover (gamma_t, beta_t, alpha_t) and the five energy
  constants from a set of ledger records, with per-term residuals and
  condition-number warnings.
* :mod:`repro.observatory.drift` — the perfect-scaling-region checker:
  classify a p-sweep as ``perfect``/``degraded``/``broken`` per cost
  term (T·p flatness, E flatness inside the replication band) and diff
  new runs against the best historical baseline.
* :mod:`repro.observatory.dashboard` — ASCII report and a
  self-contained HTML dashboard over the ledger, driven by the
  ``repro observe`` CLI subcommand.
"""

from repro.observatory.drift import (
    DRIFT_TOLERANCES,
    BaselineDiff,
    SweepVerdict,
    TermVerdict,
    check_power_flatness,
    check_sweep,
    diff_against_baseline,
    inflate_term,
)
from repro.observatory.fit import FitResult, fit_records
from repro.observatory.ledger import (
    LEDGER_SCHEMA,
    Ledger,
    RunRecord,
)

__all__ = [
    "LEDGER_SCHEMA",
    "Ledger",
    "RunRecord",
    "FitResult",
    "fit_records",
    "DRIFT_TOLERANCES",
    "TermVerdict",
    "SweepVerdict",
    "BaselineDiff",
    "check_sweep",
    "check_power_flatness",
    "diff_against_baseline",
    "inflate_term",
]
