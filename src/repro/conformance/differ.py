"""Differential conformance runner: every execution mode vs the oracle.

The simulator can execute the same program seven ways — message path or
analytic fastpath, fresh-thread engine or persistent pool, copy-on-write
or deep-copy payload transport, with the tracing observer on or off. Each combination must produce **bit-identical** per-rank counts
(:meth:`~repro.simmpi.trace.TraceReport.counts_signature`), virtual
clocks, internode sub-tallies, and payload contents — identical to each
other *and* to the closed-form predictions of
:mod:`repro.conformance.oracles`.

The grid model:

* a :class:`Case` is one program at one size with fixed model
  parameters (machine, max message words, node grouping) plus its
  oracle prediction — or, for *error cases*, the exception every rank
  must raise;
* a *cell* is one execution of a case under one :data:`VARIANTS` entry;
* :func:`run_grid` executes every cell, compares each against the
  case's baseline (message path, engine, CoW) and the baseline against
  the oracle, and reports :class:`Divergence` records carrying a
  minimized reproducer.

Grids: :func:`smoke_cases` is the deterministic CI grid (all ten
collectives x power-of-two *and* non-power-of-two sizes, plus every
registry scenario); :func:`random_cases` is a seeded sweep over sizes
2..33 with randomized roots, payload shapes, message-size caps and node
groupings.

:func:`deliberately_perturbed` mis-meters the message path on purpose so
tests (and ``repro conformance --demo-divergence``) can prove the
harness actually detects a broken build instead of vacuously passing.
"""

from __future__ import annotations

import json
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.conformance.battery import BATTERY, Shape
from repro.conformance.oracles import (
    OracleCosts,
    OracleSpec,
    ScenarioOracle,
    oracle_scenario,
)
from repro.core.parameters import MachineParameters
from repro.exceptions import ParameterError, RankFailedError
from repro.scenarios import SCENARIOS, build_scenario

__all__ = [
    "Case",
    "CellResult",
    "Divergence",
    "ConformanceReport",
    "VARIANTS",
    "BASELINE_VARIANT",
    "MACHINE",
    "smoke_cases",
    "random_cases",
    "scenario_cases",
    "collective_cases",
    "error_cases",
    "grid_cases",
    "run_cell",
    "run_grid",
    "replay_cell",
    "deliberately_perturbed",
]


#: The conformance machine model: non-trivial alpha_t/beta_t/gamma_t so
#: virtual-clock divergences are visible, large memory so no cell ever
#: trips capacity checks.
MACHINE = MachineParameters(
    gamma_t=2e-9,
    beta_t=3e-8,
    alpha_t=5e-6,
    gamma_e=4e-9,
    beta_e=6e-8,
    alpha_e=2e-6,
    delta_e=7e-9,
    epsilon_e=1e-3,
    memory_words=float(2**30),
    max_message_words=float(2**16),
)

#: The seven execution modes every case runs under. ``trace`` worlds
#: force the message path internally (per-message observer, plus the
#: live mailbox-depth histogram); their cells prove observation never
#: perturbs the counts.
VARIANTS: tuple[tuple[str, dict], ...] = (
    ("message+engine+cow", dict(runner="engine", payload_mode="cow", fastpath=False)),
    ("message+engine+copy", dict(runner="engine", payload_mode="copy", fastpath=False)),
    ("message+pool+cow", dict(runner="pool", payload_mode="cow", fastpath=False)),
    ("fastpath+engine+cow", dict(runner="engine", payload_mode="cow", fastpath=True)),
    ("fastpath+engine+copy", dict(runner="engine", payload_mode="copy", fastpath=True)),
    ("fastpath+pool+cow", dict(runner="pool", payload_mode="cow", fastpath=True)),
    (
        "trace+engine+cow",
        dict(runner="engine", payload_mode="cow", fastpath=True, trace=True),
    ),
)

BASELINE_VARIANT = VARIANTS[0][0]


@dataclass(frozen=True)
class Case:
    """One program at one size, with its oracle prediction."""

    name: str
    size: int
    build: Callable[[], tuple]  # () -> (program, args)
    machine: MachineParameters | None = MACHINE
    max_message_words: float = math.inf
    node_size: int | None = None
    #: exact per-rank prediction for collectives (counts + vtimes)
    oracle: OracleCosts | None = None
    #: scenario-level prediction (exact flops, optionally full counts)
    scenario: ScenarioOracle | None = None
    #: (exception type name, message): every rank must raise exactly this
    expect_error: tuple[str, str] | None = None

    def run_kwargs(self) -> dict:
        return dict(
            machine=self.machine,
            max_message_words=self.max_message_words,
            node_size=self.node_size,
        )


@dataclass(frozen=True)
class CellResult:
    """What one cell produced, reduced to exactly the comparable parts."""

    signature: tuple | None = None
    vtimes: tuple | None = None
    internode: tuple | None = None
    payloads: tuple | None = None
    conserved: bool = True
    errors: tuple | None = None  # ((rank, type name, message), ...) sorted


@dataclass(frozen=True)
class Divergence:
    """One conformance violation: a cell that disagrees with its
    reference (the oracle, or the case's baseline cell)."""

    case: str
    variant: str
    reference: str  # "oracle" or the baseline variant label
    which: str  # counts | vtimes | internode | payloads | conservation | errors | flops
    detail: str
    reproducer: str

    def describe(self) -> str:
        return (
            f"case {self.case!r}, cell {self.variant!r} diverges from "
            f"{self.reference} on {self.which}: {self.detail}\n"
            f"  reproduce: {self.reproducer}"
        )


@dataclass
class ConformanceReport:
    """Outcome of a grid run."""

    grid: str
    cases: int
    cells: int
    sizes: tuple[int, ...]
    oracle_checked: int
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def non_pow2_sizes(self) -> tuple[int, ...]:
        return tuple(s for s in self.sizes if s & (s - 1))

    def first(self) -> Divergence | None:
        return self.divergences[0] if self.divergences else None

    def to_json(self) -> str:
        return json.dumps(
            {
                "grid": self.grid,
                "cases": self.cases,
                "cells": self.cells,
                "sizes": list(self.sizes),
                "non_pow2_sizes": list(self.non_pow2_sizes),
                "oracle_checked": self.oracle_checked,
                "ok": self.ok,
                "divergences": [
                    {
                        "case": d.case,
                        "variant": d.variant,
                        "reference": d.reference,
                        "which": d.which,
                        "detail": d.detail,
                        "reproducer": d.reproducer,
                    }
                    for d in self.divergences
                ],
            },
            indent=2,
        )

    def summary(self) -> str:
        verdict = "CONFORMANT" if self.ok else "DIVERGENT"
        line = (
            f"{verdict}: {self.cells} cells over {self.cases} cases "
            f"(sizes {', '.join(map(str, self.sizes))}; "
            f"{len(self.non_pow2_sizes)} non-power-of-two), "
            f"{self.oracle_checked} oracle-checked"
        )
        if not self.ok:
            line += "\nFIRST DIVERGENCE: " + self.first().describe()
            if len(self.divergences) > 1:
                line += f"\n({len(self.divergences) - 1} further divergence(s) recorded)"
        return line


# ----------------------------------------------------------------------
# payload fingerprinting
# ----------------------------------------------------------------------


def _fingerprint(obj: Any) -> Any:
    """Hashable, exact digest of a payload graph for bit-identity
    comparison across transports."""
    if obj is None:
        return ("none",)
    if isinstance(obj, np.ndarray):
        return ("nd", obj.shape, str(obj.dtype), obj.tobytes())
    if isinstance(obj, (bool, int, float, complex, str, bytes, np.generic)):
        return ("s", type(obj).__name__, repr(obj))
    if isinstance(obj, tuple):
        return ("t", tuple(_fingerprint(x) for x in obj))
    if isinstance(obj, list):
        return ("l", tuple(_fingerprint(x) for x in obj))
    if isinstance(obj, dict):
        return ("d", tuple(sorted((k, _fingerprint(v)) for k, v in obj.items())))
    return ("r", repr(obj))


# ----------------------------------------------------------------------
# cell execution
# ----------------------------------------------------------------------


def _execute(case: Case, variant_kwargs: dict):
    from repro.simmpi import run_spmd, shared_pool

    program, args = case.build()
    kwargs = case.run_kwargs()
    kwargs.update(
        {k: v for k, v in variant_kwargs.items() if k != "runner"}
    )
    if variant_kwargs.get("runner") == "pool":
        return shared_pool().run(case.size, program, *args, **kwargs)
    return run_spmd(case.size, program, *args, **kwargs)


def run_cell(case: Case, variant: str) -> CellResult:
    """Execute one (case, variant) cell and reduce it to comparables."""
    variant_kwargs = dict(VARIANTS)[variant]
    if case.expect_error is not None:
        try:
            _execute(case, variant_kwargs)
        except RankFailedError as exc:
            return CellResult(
                errors=tuple(
                    (r, type(e).__name__, str(e))
                    for r, e in sorted(exc.failures.items())
                )
            )
        return CellResult(errors=())
    out = _execute(case, variant_kwargs)
    report = out.report
    return CellResult(
        signature=report.counts_signature(),
        vtimes=tuple(r.vtime for r in report.ranks),
        internode=tuple(
            (
                r.words_sent_internode,
                r.messages_sent_internode,
                r.words_received_internode,
                r.messages_received_internode,
            )
            for r in report.ranks
        ),
        payloads=_fingerprint(list(out.results)),
        conserved=report.words_conserved(),
    )


def _reproducer(case: Case, variant: str, grid: str, seed: int | None) -> str:
    call = f"replay_cell({case.name!r}, {variant!r}, grid={grid!r}"
    if seed is not None:
        call += f", seed={seed}"
    call += ")"
    return (
        'PYTHONPATH=src python -c "from repro.conformance import '
        f"replay_cell; {call}\""
    )


def _diff_cells(
    case: Case,
    variant: str,
    got: CellResult,
    reference: str,
    want: CellResult,
    grid: str,
    seed: int | None,
) -> Divergence | None:
    """First field on which ``got`` disagrees with ``want``."""

    def diverge(which: str, detail: str) -> Divergence:
        return Divergence(
            case=case.name,
            variant=variant,
            reference=reference,
            which=which,
            detail=detail,
            reproducer=_reproducer(case, variant, grid, seed),
        )

    if case.expect_error is not None:
        if got.errors != want.errors:
            return diverge("errors", f"got {got.errors!r}, want {want.errors!r}")
        return None
    for which, g, w in (
        ("counts", got.signature, want.signature),
        ("vtimes", got.vtimes, want.vtimes),
        ("internode", got.internode, want.internode),
    ):
        if g != w:
            bad = next(i for i, (a, b) in enumerate(zip(g, w)) if a != b)
            return diverge(
                which, f"rank {bad}: got {g[bad]!r}, want {w[bad]!r}"
            )
    if want.payloads is not None and got.payloads != want.payloads:
        return diverge("payloads", "delivered payload contents differ")
    if not got.conserved:
        return diverge("conservation", "sent != received tallies")
    return None


def _check_oracle(
    case: Case, baseline: CellResult, grid: str, seed: int | None
) -> Divergence | None:
    """Baseline cell vs the closed-form prediction."""

    def diverge(which: str, detail: str) -> Divergence:
        return Divergence(
            case=case.name,
            variant=BASELINE_VARIANT,
            reference="oracle",
            which=which,
            detail=detail,
            reproducer=_reproducer(case, BASELINE_VARIANT, grid, seed),
        )

    if case.oracle is not None:
        oc = case.oracle
        for which, g, w in (
            ("counts", baseline.signature, oc.signature()),
            ("vtimes", baseline.vtimes, oc.vtimes),
            ("internode", baseline.internode, oc.internode_signature()),
        ):
            if g != w:
                bad = next(i for i, (a, b) in enumerate(zip(g, w)) if a != b)
                return diverge(
                    which, f"rank {bad}: got {g[bad]!r}, want {w[bad]!r}"
                )
    if case.scenario is not None:
        so = case.scenario
        got_flops = tuple(s[0] for s in baseline.signature)
        if got_flops != so.rank_flops:
            bad = next(
                i for i, (a, b) in enumerate(zip(got_flops, so.rank_flops)) if a != b
            )
            return diverge(
                "flops", f"rank {bad}: got {got_flops[bad]!r}, want {so.rank_flops[bad]!r}"
            )
        if so.per_rank is not None and baseline.signature != so.per_rank:
            bad = next(
                i
                for i, (a, b) in enumerate(zip(baseline.signature, so.per_rank))
                if a != b
            )
            return diverge(
                "counts",
                f"rank {bad}: got {baseline.signature[bad]!r}, "
                f"want {so.per_rank[bad]!r}",
            )
    return None


def run_grid(
    cases: Sequence[Case],
    grid: str = "custom",
    seed: int | None = None,
    fail_limit: int = 5,
    progress: Callable[[str], None] | None = None,
) -> ConformanceReport:
    """Execute every cell of ``cases`` x :data:`VARIANTS`; stop collecting
    after ``fail_limit`` divergences (the grid keeps its cell count
    honest by still counting skipped comparisons as unexecuted)."""
    report = ConformanceReport(
        grid=grid,
        cases=len(cases),
        cells=0,
        sizes=tuple(sorted({c.size for c in cases})),
        oracle_checked=0,
    )
    for case in cases:
        if progress is not None:
            progress(case.name)
        baseline = run_cell(case, BASELINE_VARIANT)
        report.cells += 1
        if case.expect_error is not None and case.oracle is None:
            # Error cases: the contract is the per-rank exception set.
            want_errors = tuple(
                (r, case.expect_error[0], case.expect_error[1])
                for r in range(case.size)
            )
            if baseline.errors != want_errors:
                report.divergences.append(
                    Divergence(
                        case=case.name,
                        variant=BASELINE_VARIANT,
                        reference="error contract",
                        which="errors",
                        detail=f"got {baseline.errors!r}, want {want_errors!r}",
                        reproducer=_reproducer(case, BASELINE_VARIANT, grid, seed),
                    )
                )
        else:
            div = _check_oracle(case, baseline, grid, seed)
            report.oracle_checked += case.oracle is not None or case.scenario is not None
            if div is not None:
                report.divergences.append(div)
        if not baseline.conserved if case.expect_error is None else False:
            report.divergences.append(
                Divergence(
                    case=case.name,
                    variant=BASELINE_VARIANT,
                    reference="conservation invariant",
                    which="conservation",
                    detail="sent != received tallies",
                    reproducer=_reproducer(case, BASELINE_VARIANT, grid, seed),
                )
            )
        for variant, _ in VARIANTS[1:]:
            cell = run_cell(case, variant)
            report.cells += 1
            div = _diff_cells(case, variant, cell, BASELINE_VARIANT, baseline, grid, seed)
            if div is not None:
                report.divergences.append(div)
            if len(report.divergences) >= fail_limit:
                return report
        if len(report.divergences) >= fail_limit:
            return report
    return report


def replay_cell(
    case_name: str,
    variant: str = BASELINE_VARIANT,
    grid: str = "smoke",
    seed: int | None = None,
    cells: int = 40,
) -> Divergence | None:
    """Minimized reproducer: re-run one named cell (plus its baseline and
    oracle check), print what diverged, and return the Divergence (None
    when the cell conforms). This is the command the harness embeds in
    every divergence report."""
    for case in grid_cases(grid, seed=seed, cells=cells):
        if case.name == case_name:
            break
    else:
        raise ParameterError(f"no case named {case_name!r} in grid {grid!r}")
    baseline = run_cell(case, BASELINE_VARIANT)
    div = None
    if case.expect_error is None:
        div = _check_oracle(case, baseline, grid, seed)
    if div is None and variant != BASELINE_VARIANT:
        cell = run_cell(case, variant)
        div = _diff_cells(case, variant, cell, BASELINE_VARIANT, baseline, grid, seed)
    print(div.describe() if div is not None else f"cell conforms: {case_name} / {variant}")
    return div


# ----------------------------------------------------------------------
# deliberate perturbation (harness self-test)
# ----------------------------------------------------------------------


@contextmanager
def deliberately_perturbed(extra_words: int = 1):
    """Deliberately mis-meter every message-path send by ``extra_words``
    words while the context is active.

    The fastpath's bulk tallies are untouched, so a perturbed build
    diverges from the oracle *and* from every fastpath cell — proving
    the harness detects a metering bug instead of passing vacuously.
    Never use outside tests/demos.
    """
    from repro.simmpi.counters import CostCounter

    original = CostCounter.add_send

    def crooked(self, words, messages, internode=False):
        original(self, words + extra_words, messages, internode=internode)

    CostCounter.add_send = crooked
    try:
        yield
    finally:
        CostCounter.add_send = original


# ----------------------------------------------------------------------
# grid builders
# ----------------------------------------------------------------------


def _spec(case_kwargs: dict, size: int) -> OracleSpec:
    return OracleSpec(
        size,
        max_message_words=case_kwargs.get("max_message_words", math.inf),
        machine=case_kwargs.get("machine", MACHINE),
        node_size=case_kwargs.get("node_size"),
    )


def _battery_case(name: str, shape: Shape, tag: str, kw: dict) -> Case:
    """One :data:`~repro.conformance.battery.BATTERY` family at ``shape``."""
    family = BATTERY[name]
    return Case(
        name=f"{name}/{tag}",
        size=shape.p,
        build=lambda: (family.program(shape), ()),
        oracle=family.oracle(_spec(kw, shape.p), shape),
        **kw,
    )


def collective_cases(
    sizes: Sequence[int],
    mmw: float = math.inf,
    node_size_of: Callable[[int], int | None] = lambda p: None,
    payload_kind: str = "array",
    root_of: Callable[[int], int] = lambda p: p - 1,
    words: int = 17,
) -> list[Case]:
    """Every battery family at each size (Bruck at powers of two only).
    Payload word counts vary per collective so W, S and chunking all
    move; roots default to the last rank to exercise the vrank
    rotation."""
    out: list[Case] = []
    for p in sizes:
        ns = node_size_of(p)
        kw = dict(max_message_words=mmw, node_size=ns)
        shape = Shape(p, words=words, kind=payload_kind, root=root_of(p))
        tag = f"p={p}/mmw={mmw}/ns={ns}"
        out += [
            _battery_case(name, shape, tag, kw)
            for name, family in BATTERY.items()
            if not (family.pow2_only and p & (p - 1))
        ]
    return out


def error_cases(sizes: Sequence[int]) -> list[Case]:
    """Bruck at non-power-of-two sizes: every rank, on *both* paths, must
    raise the identical CommunicatorError."""
    out = []
    for p in sizes:
        if p & (p - 1) == 0 or p == 1:
            continue
        from repro.simmpi import collectives as _c

        out.append(
            Case(
                name=f"bruck_non_pow2/p={p}",
                size=p,
                build=lambda _c=_c: (
                    lambda comm: _c.alltoall_bruck(
                        comm, [np.arange(2.0) for _ in range(comm.size)]
                    ),
                    (),
                ),
                expect_error=(
                    "CommunicatorError",
                    f"alltoall_bruck requires a power-of-two size, got {p}",
                ),
            )
        )
    return out


def scenario_cases() -> list[Case]:
    """Every registry scenario at its default (p, n), oracle-checked for
    exact per-rank flops (all seven) and full per-rank counts (summa,
    cannon, caps, nbody, fft)."""
    return [
        Case(
            name=f"scenario:{name}/p={s.p}/n={s.n}",
            size=s.p,
            build=lambda name=name, p=s.p, n=s.n: build_scenario(name, p, n)[:2],
            scenario=oracle_scenario(name, s.p, s.n),
        )
        for name, s in sorted(SCENARIOS.items())
    ]


def smoke_cases() -> list[Case]:
    """The deterministic CI grid: collectives at power-of-two and
    non-power-of-two sizes under varied message caps and node groupings,
    Bruck error-conformance cells, and all registry scenarios."""
    cases: list[Case] = []
    cases += collective_cases((3, 5, 7, 9), mmw=math.inf)
    cases += collective_cases(
        (4, 6, 8), mmw=4.0, node_size_of=lambda p: p // 2, root_of=lambda p: 1
    )
    cases += collective_cases(
        (12, 16), mmw=16.0, node_size_of=lambda p: 4, payload_kind="dict"
    )
    cases += error_cases((3, 5, 6, 7, 9, 12))
    cases += scenario_cases()
    return cases


def random_cases(seed: int, count: int = 40) -> list[Case]:
    """Seeded randomized sweep over the battery: sizes 2..33 (primes
    included by construction), random roots, payload shapes, word
    counts, message caps and node groupings. Same seed, same grid."""
    rng = random.Random(seed)
    cases: list[Case] = []
    for i in range(count):
        name = rng.choice(tuple(BATTERY))
        p = rng.randint(2, 33)
        if BATTERY[name].pow2_only and p & (p - 1):
            p = 1 << rng.randint(1, 5)  # 2..32
        root = rng.randrange(p)
        words = rng.randint(0, 40)
        mmw = rng.choice((math.inf, 4.0, 16.0, 64.0))
        divisors = [d for d in range(1, p + 1) if p % d == 0]
        ns = rng.choice([None] + divisors)
        kw = dict(max_message_words=mmw, node_size=ns)
        tag = f"seed={seed}/i={i}/p={p}/root={root}/w={words}/mmw={mmw}/ns={ns}"
        if name == "bcast":
            kind = rng.choice(("array", "scalar", "str", "dict", "tuple", "none"))
            shape = Shape(p, words=words, kind=kind, root=root)
        else:
            shape = Shape(
                p,
                words=max(1, words),
                root=root,
                total=max(1, words),
                ragged=tuple(1 + (r + words) % 5 for r in range(p)),
                block=words % 6,
            )
        cases.append(_battery_case(name, shape, tag, kw))
    return cases


def grid_cases(
    grid: str, seed: int | None = None, cells: int = 40
) -> list[Case]:
    """Resolve a grid name to its case list. ``smoke`` is deterministic;
    ``random`` needs a seed; ``full`` is smoke plus a seeded sweep plus
    the far end of the size range (up to 33 ranks)."""
    if grid == "smoke":
        return smoke_cases()
    if grid == "random":
        return random_cases(seed if seed is not None else 0, cells)
    if grid == "full":
        cases = smoke_cases()
        cases += collective_cases((17, 24, 32, 33), mmw=8.0)
        cases += error_cases((17, 33))
        cases += random_cases(seed if seed is not None else 0, cells)
        return cases
    raise ParameterError(f"unknown grid {grid!r} (smoke, random, full)")
