"""Measured-vs-analytic validation: the paper's cost claims, read off
sweep records.

Every measured experiment — the replication walks of 2.5D matmul
(Eq. 9/10) and n-body (Eq. 15/16), CAPS bandwidth, the FFT all-to-all
trade and the LU latency — is a list of
:class:`~repro.sweep.spec.SweepSpec` s over the scenario registry.
:func:`scaling_points` plans them, runs the cells in process through
:func:`~repro.sweep.executor.run_sweep` (no cache, no ledger, the
shared pool) and turns each :class:`~repro.observatory.ledger.RunRecord`
into a :class:`ScalingPoint`: measured per-rank W/S, total F, and the
Eq. (1)/(2) estimates priced on the cell's machine. The memory charged
to the energy model is the cell's ``memory_words`` (the fixed-tile
charge of a q/c walk) or else the measured per-rank high-water mark.

The headline check — *perfect strong scaling uses no additional
energy* — is a c-walk at fixed per-rank memory: the runtime estimate
must fall ~1/c while the energy estimate stays ~constant.

Every comparison here trusts the simulator's metered counts; that trust
is certified upstream by :mod:`repro.conformance`, which differences
all execution modes against closed-form per-rank cost oracles (CLI:
``repro conformance``) — so a metering regression is caught there, not
as an unexplained validation drift here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.core.parameters import MachineParameters
from repro.exceptions import SimulationError

if TYPE_CHECKING:
    from repro.sweep.spec import SweepSpec

__all__ = ["ScalingPoint", "default_machine", "scaling_points"]


@dataclass(frozen=True)
class ScalingPoint:
    """One sweep point: measured per-rank costs + model-based estimates."""

    label: str
    n: int
    p: int
    c: int
    max_words: int  # measured per-rank W (sent)
    max_messages: int  # measured per-rank S (sent)
    total_flops: float  # measured total F
    est_time: float  # Eq. (1) on measured counts (critical path)
    est_energy: float  # Eq. (2) on measured counts

    @property
    def words_times_p(self) -> float:
        """The Fig. 3 ordinate, measured: W x p."""
        return float(self.max_words) * self.p


def default_machine() -> MachineParameters:
    """A neutral machine for count-driven time/energy estimation.

    Chosen so that compute, bandwidth and memory all contribute
    (epsilon_e = alpha_e = 0 like the paper's case study). The
    ``"default"`` machine of every sweep spec, and the one the
    ``repro trace``/``profile``/``power`` commands price with.
    """
    return MachineParameters(
        gamma_t=1e-9,
        beta_t=1e-8,
        alpha_t=1e-7,
        gamma_e=1e-9,
        beta_e=1e-8,
        alpha_e=0.0,
        delta_e=1e-9,
        epsilon_e=0.0,
        memory_words=float(2**30),
        max_message_words=float(2**30),
    )


def scaling_points(
    specs: "SweepSpec | Iterable[SweepSpec]", label: str
) -> list[ScalingPoint]:
    """Run ``specs`` and return one :class:`ScalingPoint` per cell, in
    plan order.

    ``label`` is a format string over the cell's ``workload``, ``p``,
    ``c`` (1 unless the cell has one) and its params, e.g.
    ``"nbody c={c}"`` or ``"fft {all_to_all} p={p}"``. Raises
    SimulationError naming the first cell whose run failed.
    """
    from repro.sweep import plan_cells, run_sweep

    cells = plan_cells(specs)
    outcome = run_sweep(cells, workers=0)
    for out in outcome.outcomes:
        if out.status == "failed":
            raise SimulationError(f"sweep cell {out.cell_id} failed: {out.error}")
    points = []
    for cell in cells:
        rec = outcome.records[cell.cell_id]
        fields = {"c": 1, **cell.params, "workload": cell.workload, "p": cell.p}
        points.append(
            ScalingPoint(
                label=label.format(**fields),
                n=cell.params["n"],
                p=cell.p,
                c=fields["c"],
                max_words=max(row[1] for row in rec.counts),
                max_messages=max(row[2] for row in rec.counts),
                total_flops=rec.total_flops,
                est_time=rec.time_total,
                est_energy=rec.energy_total,
            )
        )
    return points
