"""Cell execution: turn a planned :class:`~repro.sweep.spec.Cell` into a
finished :class:`~repro.observatory.ledger.RunRecord`.

This is the code both faces of the sweep engine share: the sharded
executor's worker processes call :func:`execute_cell` for cache misses,
and the in-process paths (``workers=0``, the regression gate's live
reference runs) call the very same function — so "live" and "sharded"
runs are the same simulation by construction, and any divergence the
property tests catch is real.

Scenario cells build through the scenario registry
(:func:`repro.scenarios.build_scenario`, the builder ``repro trace``
uses), so a sweep cell for ``matmul25d`` prices exactly the run
``repro trace matmul25d`` would. The record's knobs ride in
``Cell.params``: ``c`` (the matmul25d and nbody replication factor)
and ``all_to_all`` (FFT's transpose). The measured experiments of
:mod:`repro.analysis.validation` run through here too, in process.
Collective cells (``coll:*``) look their family up in the conformance
battery (:data:`repro.conformance.battery.BATTERY`), which pairs each
rank program with the closed-form
:class:`~repro.conformance.oracles.OracleCosts` that :func:`cell_oracle`
hands the property suite.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable

from repro.conformance.battery import BATTERY, Shape
from repro.conformance.oracles import OracleCosts, OracleSpec
from repro.core.parameters import MachineParameters
from repro.exceptions import ParameterError
from repro.observatory.ledger import RunRecord
from repro.scenarios import build_scenario
from repro.sweep.spec import Cell

__all__ = [
    "build_cell_program",
    "cell_machine",
    "cell_oracle",
    "execute_cell",
]


def cell_machine(cell: Cell) -> MachineParameters:
    """The live MachineParameters a cell's stored constants resolve to."""
    return MachineParameters(**cell.machine)


def _shape(cell: Cell) -> Shape:
    """The battery shape a ``coll:*`` cell's params describe."""
    root = cell.params.get("root")
    return Shape(
        cell.p,
        words=int(cell.params.get("words", 17)),
        kind=cell.params.get("payload", "array"),
        root=None if root is None else int(root),
    )


def build_cell_program(cell: Cell) -> tuple[Callable, tuple, str]:
    """Resolve any cell to ``(program, args, label)`` for the engine."""
    if cell.workload.startswith("coll:"):
        op = cell.workload[5:]
        program = BATTERY[op].program(_shape(cell))
        return program, (), cell.label or f"{op}(p={cell.p})"
    return build_scenario(cell.workload, cell.p, **cell.params)


def cell_oracle(cell: Cell) -> OracleCosts:
    """The closed-form :class:`OracleCosts` for a ``coll:*`` cell — what
    the property suite differences the executed counts against."""
    if not cell.workload.startswith("coll:"):
        raise ParameterError(
            f"only coll:* cells have closed-form oracles, not {cell.workload!r}"
        )
    kwargs = cell.run_kwargs()
    spec = OracleSpec(
        cell.p,
        max_message_words=kwargs["max_message_words"],
        machine=cell_machine(cell),
        node_size=kwargs["node_size"],
    )
    return BATTERY[cell.workload[5:]].oracle(spec, _shape(cell))


def execute_cell(cell: Cell, use_pool: bool = True) -> RunRecord:
    """Simulate one cell and return its RunRecord (not ledger-appended —
    the single-writer funnel owns all ledger and cache writes). The
    record's ``git_sha`` is left unset: :func:`~repro.sweep.run_sweep`
    stamps it on the records a ledger or cache keeps, so a run nobody
    keeps forks no ``git rev-parse``.

    ``use_pool=True`` runs through ``shared_pool().run`` (the pool's
    home CPU), ``use_pool=False`` through
    :func:`~repro.simmpi.run_spmd` (the caller's CPU at the call). Both
    run on the threads of the process-local
    :func:`~repro.simmpi.pool.shared_pool`, so the flag picks only the
    entry point. Conformance certifies the two bit-identical, and the
    fuzz suite re-checks it here.
    """
    program, prog_args, label = build_cell_program(cell)
    machine = cell_machine(cell)
    kwargs: dict[str, Any] = dict(cell.run_kwargs())
    if kwargs["node_size"] is None:
        kwargs.pop("node_size")
    if kwargs["max_message_words"] == math.inf:
        kwargs.pop("max_message_words")
    start = time.perf_counter()
    if use_pool:
        from repro.simmpi.pool import shared_pool

        result = shared_pool().run(
            cell.p, program, *prog_args, machine=machine, **kwargs
        )
    else:
        from repro.simmpi import run_spmd

        result = run_spmd(cell.p, program, *prog_args, machine=machine, **kwargs)
    wall = time.perf_counter() - start
    return RunRecord.from_result(
        result,
        workload=cell.workload,
        params=dict(cell.params),
        machine=machine,
        memory_words=cell.memory_words,
        label=cell.label or label,
        wall_seconds=wall,
        with_git_sha=False,
    )
