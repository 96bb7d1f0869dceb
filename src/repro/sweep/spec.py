"""Sweep planner: declarative specs expanded into deterministic cells.

A **cell** is the atom the sweep engine schedules, caches and records:
one fully-resolved simulation — workload, rank count, workload
parameters, the ten machine constants it will be priced with, and the
execution-mode flags that can change its counts. Everything a cell
carries is plain JSON data, so cells cross process boundaries (the
sharded executor pickles them to worker processes) and hash canonically
(the content-addressed run cache keys on them).

A :class:`SweepSpec` is the declarative face: workload x p-range (or,
for the 2.5D family, q x c-range so ``p = q^2 c`` walks the replication
band) x machine x mode flags. :meth:`SweepSpec.cells` is the planner —
expansion is deterministic, cells come out in a stable order, and each
cell's :attr:`~Cell.cell_id` is a readable slug plus a digest of its
canonical identity, so two plans of the same spec agree cell-for-cell
across processes, machines and git revisions.

Two workload families are plannable:

* **scenario cells** — the workloads of the scenario registry
  :data:`repro.scenarios.SCENARIOS` (``matmul25d``, ``cannon``,
  ``summa``, ``caps``, ``nbody``, ``fft``, ``lu2d``). A spec's
  ``params`` carry the registry knobs into every cell: ``c`` for
  nbody's replication walk (one spec per c, ``p_values=(r*c,)``) and
  ``all_to_all`` for FFT. Cells without a knob keep the ids they had
  before the knobs existed. A cell (and a spec, for each cell it plans)
  checks its n, knobs and layout against the scenario's record when it
  is built. The measured experiments of :mod:`repro.analysis.validation`
  are specs of this kind;
* **collective cells** — ``coll:<op>`` for each of the ten
  default-algorithm families of the conformance battery
  :data:`repro.conformance.battery.BATTERY`, used by the property-test
  harness to fuzz the executor and cache against the conformance
  oracles.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable

from repro.conformance.battery import BATTERY
from repro.exceptions import ParameterError
from repro.scenarios import SCENARIOS, get_scenario

__all__ = [
    "CELL_SCHEMA",
    "SPEC_SCHEMA",
    "COLLECTIVE_OPS",
    "SCENARIO_WORKLOADS",
    "Cell",
    "SweepSpec",
    "canonical_json",
    "collective_cell",
    "smoke_spec",
]

#: Schema tags for (de)serialized cells and specs.
CELL_SCHEMA = "repro_sweep_cell/v1"
SPEC_SCHEMA = "repro_sweep_spec/v1"

#: The scenario workloads a spec can sweep (the scenario registry's names).
SCENARIO_WORKLOADS = tuple(SCENARIOS)

#: The ten default-algorithm collectives a ``coll:<op>`` cell can run.
COLLECTIVE_OPS = tuple(op for op, coll in BATTERY.items() if coll.default)

#: The ten MachineParameters constants a cell pins (same order as the
#: ledger's MACHINE_FIELDS).
_MACHINE_FIELDS = (
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

#: Execution-mode flags that can influence a run's counts or payloads —
#: exactly these participate in the cell identity (and thus the cache
#: key). ``None`` entries mean "engine default".
_MODE_FIELDS = ("payload_mode", "fastpath", "max_message_words", "node_size")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, exact float reprs
    (json uses shortest-round-trip float formatting, so equal floats
    always serialize identically)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _machine_dict(machine: Any) -> dict[str, float]:
    """Normalize a machine (MachineParameters or dict) to the plain
    ten-constant dict a cell stores."""
    if isinstance(machine, dict):
        missing = [k for k in _MACHINE_FIELDS if k not in machine]
        if missing:
            raise ParameterError(
                f"machine dict is missing constants: {missing}"
            )
        return {k: float(machine[k]) for k in _MACHINE_FIELDS}
    return {k: float(getattr(machine, k)) for k in _MACHINE_FIELDS}


def resolve_machine_spec(machine: Any) -> dict[str, float]:
    """Resolve a spec's machine field — ``"default"``, ``"jaketown"``,
    a constants dict or a live MachineParameters — to the plain dict."""
    if machine is None or machine == "default":
        from repro.analysis.validation import default_machine

        return _machine_dict(default_machine())
    if machine == "jaketown":
        from repro.machines.catalog import JAKETOWN

        return _machine_dict(JAKETOWN)
    if isinstance(machine, str):
        raise ParameterError(
            f"unknown machine spec {machine!r}; expected 'default', "
            "'jaketown' or a dict of the ten model constants"
        )
    return _machine_dict(machine)


@dataclass(frozen=True)
class Cell:
    """One fully-resolved sweep cell: the unit of scheduling and caching.

    ``identity()`` is the canonical content that names the cell — the
    cache key hashes it together with the code fingerprint, and
    :attr:`cell_id` digests it (without the fingerprint) into a stable,
    human-scannable id. A cell is immutable, its dict fields too:
    :attr:`digest` and :attr:`cell_id` are computed once per cell, on
    first read.
    """

    workload: str
    p: int
    params: dict[str, Any] = field(default_factory=dict)
    machine: dict[str, float] = field(default_factory=dict)
    mode: dict[str, Any] = field(default_factory=dict)
    memory_words: float | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if not self.workload:
            raise ParameterError("cell needs a non-empty workload")
        if self.p < 1:
            raise ParameterError(f"cell needs p >= 1, got {self.p}")
        if self.workload.startswith("coll:"):
            op = self.workload[5:]
            if op not in COLLECTIVE_OPS:
                raise ParameterError(
                    f"unknown collective {op!r}; expected one of "
                    f"{COLLECTIVE_OPS}"
                )
        else:
            get_scenario(self.workload).check(self.p, **self.params)
        unknown_mode = sorted(set(self.mode) - set(_MODE_FIELDS))
        if unknown_mode:
            raise ParameterError(
                f"unknown mode flags {unknown_mode}; cells accept "
                f"{_MODE_FIELDS}"
            )

    def identity(self) -> dict[str, Any]:
        """The canonical JSON-able content that names this cell."""
        mode = {k: self.mode.get(k) for k in _MODE_FIELDS}
        if mode["max_message_words"] is not None:
            mode["max_message_words"] = float(mode["max_message_words"])
        return {
            "schema": CELL_SCHEMA,
            "workload": self.workload,
            "p": self.p,
            "params": dict(sorted(self.params.items())),
            "machine": {k: self.machine[k] for k in _MACHINE_FIELDS},
            "mode": mode,
            "memory_words": None
            if self.memory_words is None
            else float(self.memory_words),
            "label": self.label,
        }

    @cached_property
    def digest(self) -> str:
        """12-hex digest of the canonical identity (fingerprint-free, so
        it is stable across code changes)."""
        blob = canonical_json(self.identity()).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:12]

    @cached_property
    def cell_id(self) -> str:
        """Stable readable id: ``workload/p<NN>[...params]@digest``."""
        parts = [f"{k}{v}" for k, v in sorted(self.params.items())
                 if isinstance(v, (int, float, str))]
        slug = "-".join(parts)
        middle = f"p{self.p}" + (f"-{slug}" if slug else "")
        return f"{self.workload}/{middle}@{self.digest}"

    def run_kwargs(self) -> dict[str, Any]:
        """The engine kwargs this cell's mode flags resolve to."""
        mmw = self.mode.get("max_message_words")
        return {
            "payload_mode": self.mode.get("payload_mode") or "cow",
            "fastpath": bool(self.mode.get("fastpath", True)),
            "max_message_words": math.inf if mmw is None else float(mmw),
            "node_size": self.mode.get("node_size"),
        }

    # -- (de)serialization ------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        return self.identity()

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "Cell":
        if not isinstance(payload, dict) or payload.get("schema") != CELL_SCHEMA:
            raise ParameterError(
                f"not a {CELL_SCHEMA} cell: {type(payload).__name__}"
            )
        mode = {
            k: v
            for k, v in (payload.get("mode") or {}).items()
            if v is not None
        }
        return cls(
            workload=payload["workload"],
            p=int(payload["p"]),
            params=dict(payload.get("params") or {}),
            machine={k: float(v) for k, v in payload["machine"].items()},
            mode=mode,
            memory_words=payload.get("memory_words"),
            label=str(payload.get("label", "")),
        )


def collective_cell(
    op: str,
    p: int,
    machine: Any,
    words: int = 17,
    root: int | None = None,
    payload: str = "array",
    max_message_words: float | None = None,
    node_size: int | None = None,
    payload_mode: str = "cow",
    fastpath: bool = True,
) -> Cell:
    """One declarative collective cell (the fuzz harness's generator).

    ``root`` defaults to the last rank (exercises the vrank rotation,
    matching the conformance grid's convention); ``payload`` picks the
    bcast payload shape (``array``/``scalar``/``str``/``dict``/``tuple``
    — word conventions mirror the conformance grid's).
    """
    if op not in COLLECTIVE_OPS:
        raise ParameterError(
            f"unknown collective {op!r}; expected one of {COLLECTIVE_OPS}"
        )
    if BATTERY[op].pow2_only and p & (p - 1):
        raise ParameterError(f"{op} needs a power-of-two size, got p={p}")
    params: dict[str, Any] = {"words": int(words), "payload": payload}
    if BATTERY[op].rooted:
        params["root"] = (p - 1) if root is None else int(root)
        if not 0 <= params["root"] < p:
            raise ParameterError(f"root {params['root']} outside 0..{p - 1}")
    mode: dict[str, Any] = {"payload_mode": payload_mode, "fastpath": fastpath}
    if max_message_words is not None:
        mode["max_message_words"] = float(max_message_words)
    if node_size is not None:
        mode["node_size"] = int(node_size)
    return Cell(
        workload=f"coll:{op}",
        p=p,
        params=params,
        machine=_machine_dict(machine),
        mode=mode,
        label=f"{op}(p={p}, words={words})",
    )


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep: workload x p-range (or q x c-range) x machine
    x mode flags.

    For ``matmul25d`` give ``q`` and ``c_values`` — the planner expands
    ``p = q^2 c`` with the fixed-tile charged memory ``3 (n/q)^2`` (the
    canonical replication-band walk). Every other workload takes
    explicit ``p_values``.
    """

    workload: str
    n: int | None = None
    p_values: tuple[int, ...] = ()
    q: int | None = None
    c_values: tuple[int, ...] = ()
    machine: Any = "default"
    payload_mode: str = "cow"
    fastpath: bool = True
    max_message_words: float | None = None
    node_size: int | None = None
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        get_scenario(self.workload)
        if self.q is not None or self.c_values:
            if self.workload != "matmul25d":
                raise ParameterError(
                    "q/c_values expansion is the 2.5D replication walk "
                    "and only applies to matmul25d"
                )
            if not (self.q and self.c_values):
                raise ParameterError("q and c_values must be given together")
        elif not self.p_values:
            raise ParameterError(
                "spec needs p_values (or q + c_values for matmul25d)"
            )
        for p, params in self._grid():
            get_scenario(self.workload).check(p, **params)

    def _grid(self) -> list[tuple[int, dict[str, Any]]]:
        """Each cell's (p, params), in plan order."""
        if self.q is not None:
            return [
                (self.q * self.q * c, {"n": self.n, "q": self.q, "c": c, **self.params})
                for c in self.c_values
            ]
        return [(p, {**self.params, "n": self.n}) for p in self.p_values]

    def cells(self) -> list[Cell]:
        """Expand the spec into its deterministic, stably-ordered cells."""
        machine = resolve_machine_spec(self.machine)
        mode: dict[str, Any] = {
            "payload_mode": self.payload_mode,
            "fastpath": self.fastpath,
        }
        if self.max_message_words is not None:
            mode["max_message_words"] = float(self.max_message_words)
        if self.node_size is not None:
            mode["node_size"] = int(self.node_size)
        walk = self.q is not None
        tile_words = float(3 * (self.n // self.q) ** 2) if walk else None
        return [
            Cell(
                workload=self.workload,
                p=p,
                params=params,
                machine=machine,
                mode=dict(mode),
                memory_words=tile_words,
                label=f"{self.workload}(n={self.n}, "
                + (f"c={params['c']})" if walk else f"p={p})"),
            )
            for p, params in self._grid()
        ]

    # -- (de)serialization ------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": SPEC_SCHEMA,
            "workload": self.workload,
            "n": self.n,
            "p_values": list(self.p_values),
            "q": self.q,
            "c_values": list(self.c_values),
            "machine": self.machine
            if isinstance(self.machine, (str, dict))
            else _machine_dict(self.machine),
            "payload_mode": self.payload_mode,
            "fastpath": self.fastpath,
            "max_message_words": self.max_message_words,
            "node_size": self.node_size,
            "params": dict(self.params),
        }

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "SweepSpec":
        if not isinstance(payload, dict):
            raise ParameterError("sweep spec must be a JSON object")
        if payload.get("schema") != SPEC_SCHEMA:
            raise ParameterError(
                f"unknown sweep spec schema {payload.get('schema')!r} "
                f"(expected {SPEC_SCHEMA!r})"
            )
        if "workload" not in payload:
            raise ParameterError("sweep spec needs a workload")
        return cls(
            workload=payload["workload"],
            n=payload.get("n"),
            p_values=tuple(payload.get("p_values") or ()),
            q=payload.get("q"),
            c_values=tuple(payload.get("c_values") or ()),
            machine=payload.get("machine", "default"),
            payload_mode=payload.get("payload_mode", "cow"),
            fastpath=bool(payload.get("fastpath", True)),
            max_message_words=payload.get("max_message_words"),
            node_size=payload.get("node_size"),
            params=dict(payload.get("params") or {}),
        )


def smoke_spec(n: int = 48) -> SweepSpec:
    """The canonical observatory smoke sweep as a spec: fixed-tile 2.5D
    matmul at q = 6, c = 1, 2, 3 on the validation machine — the walk
    the drift tolerances and the power-flatness check are calibrated
    on."""
    return SweepSpec(workload="matmul25d", n=n, q=6, c_values=(1, 2, 3))


def plan_cells(specs: "SweepSpec | Iterable[SweepSpec]") -> list[Cell]:
    """Expand one spec or several into a single stably-ordered cell list."""
    if isinstance(specs, SweepSpec):
        return specs.cells()
    out: list[Cell] = []
    for spec in specs:
        out.extend(spec.cells())
    return out
