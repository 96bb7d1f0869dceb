"""Differential conformance harness: closed-form cost oracles vs every
simmpi execution mode.

:mod:`repro.conformance.oracles` predicts per-rank F/W/S/M counts and
virtual clocks from each collective's documented cost contract and each
registry scenario's closed form. The collective oracles are the ones
the analytic fast path meters through (:mod:`repro.simmpi.closedform`);
the message path shares no metering code with them and is the
independent witness both are checked against.
:mod:`repro.conformance.battery` pairs every collective family's rank
program with its oracle call, once, for the grids here and the sweep
engine's ``coll:*`` cells.
:mod:`repro.conformance.differ` runs every (case x execution-mode) cell
and asserts bit-identity between modes and against the oracle. The CLI
front-end is ``repro conformance``.
"""

from repro.conformance.battery import BATTERY, Collective, Shape, payload
from repro.conformance.differ import (
    BASELINE_VARIANT,
    Case,
    CellResult,
    ConformanceReport,
    Divergence,
    MACHINE,
    VARIANTS,
    collective_cases,
    deliberately_perturbed,
    error_cases,
    grid_cases,
    random_cases,
    replay_cell,
    run_cell,
    run_grid,
    scenario_cases,
    smoke_cases,
)
from repro.conformance.oracles import (
    COLLECTIVE_ORACLES,
    OracleCosts,
    OracleSpec,
    RankCosts,
    ScenarioOracle,
    binomial_send_masks,
    chunk_sizes,
    oracle_allgather,
    oracle_allreduce,
    oracle_allreduce_recursive_doubling,
    oracle_alltoall,
    oracle_alltoall_bruck,
    oracle_barrier,
    oracle_bcast,
    oracle_bcast_scatter_allgather,
    oracle_gather,
    oracle_reduce,
    oracle_reduce_scatter,
    oracle_reduce_scatter_gather,
    oracle_scatter,
    oracle_scenario,
    string_words,
)

__all__ = [
    # battery
    "BATTERY",
    "Collective",
    "Shape",
    "payload",
    # oracles
    "OracleSpec",
    "RankCosts",
    "OracleCosts",
    "ScenarioOracle",
    "COLLECTIVE_ORACLES",
    "binomial_send_masks",
    "chunk_sizes",
    "string_words",
    "oracle_barrier",
    "oracle_bcast",
    "oracle_bcast_scatter_allgather",
    "oracle_reduce",
    "oracle_reduce_scatter",
    "oracle_reduce_scatter_gather",
    "oracle_allreduce",
    "oracle_allreduce_recursive_doubling",
    "oracle_allgather",
    "oracle_gather",
    "oracle_scatter",
    "oracle_alltoall",
    "oracle_alltoall_bruck",
    "oracle_scenario",
    # differ
    "Case",
    "CellResult",
    "Divergence",
    "ConformanceReport",
    "VARIANTS",
    "BASELINE_VARIANT",
    "MACHINE",
    "collective_cases",
    "error_cases",
    "scenario_cases",
    "random_cases",
    "smoke_cases",
    "grid_cases",
    "run_cell",
    "run_grid",
    "replay_cell",
    "deliberately_perturbed",
]
