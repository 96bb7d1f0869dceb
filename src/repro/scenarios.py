"""The scenario registry: the seven workloads every face of the repo runs.

Each workload (2.5D matmul, Cannon, SUMMA, CAPS, n-body, FFT, 2D LU) is
one :class:`Scenario` record in :data:`SCENARIOS`, and every face reads
it: the CLI's ``trace``, ``profile``, ``power`` and ``observe``, the
sweep planner (a cell checks its n, knobs and layout when it is built,
so a bad layout fails once, before anything runs, with the rank
program's own text), the conformance grid and
:func:`~repro.conformance.oracles.oracle_scenario`. All build through
:func:`build_scenario` (same rng seed, same inputs). ``c`` walks the
replication factor of ``matmul25d`` and ``nbody``; ``all_to_all`` picks
FFT's transpose.

Adding a scenario is one record here, next to its algorithm module
(rank program, layout check) and its closed form in
:mod:`repro.conformance.oracles`, both imported on first use.
"""

from __future__ import annotations

import importlib
import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from repro.exceptions import ParameterError

__all__ = ["FAULT_SCENARIOS", "SCENARIOS", "Scenario", "build_scenario", "get_scenario", "load",
           "pick_25d_c"]

#: Scenarios with a replica-recovery variant ``repro faults`` can crash.
FAULT_SCENARIOS = ("matmul25d",)


def load(ref: str) -> Callable:
    """The function a ``module:name`` ref names, imported on first use."""
    module, _, name = ref.partition(":")
    return getattr(importlib.import_module(module), name)


def _is_int(value: Any) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class Scenario:
    """One workload: its default (p, n), the layout rule ``--help``
    prints, an input builder ``build(n, rng, **knobs) -> (program,
    args, label)``, and refs to the layout check its rank program runs
    and to its closed-form oracle. ``knobs`` maps each knob to its type;
    ``defaults`` fills an unset knob from p, and ``derived`` names the
    layout's return value where a run records it (the 2.5D grid side q),
    which a caller may also pass, to be checked against it."""

    name: str
    p: int
    n: int
    rule: str
    build: Callable[..., tuple[Callable, tuple, str]]
    layout: str
    oracle: str
    knobs: Mapping[str, type] = field(default_factory=dict)
    defaults: Mapping[str, Callable[[int], Any]] = field(default_factory=dict)
    derived: str | None = None

    def size(self, p: int | None = None, n: int | None = None) -> tuple[int, int]:
        """(p, n), the defaults standing in for None."""
        return (self.p if p is None else p, self.n if n is None else n)

    def check(self, p: int, n: Any = None, **knobs: Any) -> dict[str, Any]:
        """Check (p, n), the knobs' names and types and the layout, with
        the rank program's own text; return the knobs the run resolves
        (defaults and ``derived`` included). None leaves a knob unset."""
        if not (_is_int(p) and _is_int(n) and p >= 1 and n >= 1):
            raise ParameterError(
                f"scenario {self.name!r} needs integers p, n >= 1, got p={p!r}, n={n!r}"
            )
        run = {}
        for key, value in knobs.items():
            kind = self.knobs.get(key)
            if value is None or key == self.derived:
                continue
            if kind is None:
                raise ParameterError(f"scenario {self.name!r} takes no {key}")
            if not (_is_int(value) if kind is int else isinstance(value, kind)):
                raise ParameterError(
                    f"scenario {self.name!r}: {key} must be {kind.__name__}, got {value!r}"
                )
            run[key] = kind(value)
        run.update({k: default(p) for k, default in self.defaults.items() if k not in run})
        value = load(self.layout)(p, n, **run)
        if knobs.get(self.derived) not in (None, value):
            raise ParameterError(
                f"{self.derived}={knobs[self.derived]!r} does not match the "
                f"layout's {self.derived}={value} (p={p})"
            )
        return run if self.derived is None else {**run, self.derived: value}


def pick_25d_c(p: int) -> int:
    """Largest valid replication factor for p = q^2 c (c | q, c <= q)."""
    for c in range(int(round(p ** (1 / 3))), 0, -1):
        if p % c:
            continue
        q = math.isqrt(p // c)
        if q * q * c == p and q % c == 0:
            return c
    raise ParameterError(
        f"p={p} does not factor as q^2 c with c | q (try p = 4, 8, 16, 32...)"
    )


def _pair(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))


def _matmul25d(n, rng, c):
    from repro.algorithms.matmul25d import matmul_25d
    return matmul_25d, (*_pair(n, rng), c), f"matmul25d(n={n}, c={c})"


def _cannon(n, rng):
    from repro.algorithms.cannon import cannon_matmul
    return cannon_matmul, _pair(n, rng), f"cannon(n={n})"


def _summa(n, rng):
    from repro.algorithms.summa import summa_matmul
    return summa_matmul, _pair(n, rng), f"summa(n={n})"


def _caps(n, rng):
    from repro.algorithms.caps import caps_matmul
    return caps_matmul, _pair(n, rng), f"caps(n={n})"


def _nbody(n, rng, c=None):
    from repro.algorithms.nbody import GRAVITY, nbody_replicated, nbody_ring
    pos, q = rng.standard_normal((n, 3)), rng.uniform(0.5, 2.0, n)
    if c is None:
        return nbody_ring, (pos, q), f"nbody(n={n})"
    return nbody_replicated, (pos, q, c, GRAVITY), f"nbody(n={n}, c={c})"


def _fft(n, rng, all_to_all=None):
    from repro.algorithms.fft import fft_parallel
    x = rng.standard_normal(n)
    return fft_parallel, (x,) if all_to_all is None else (x, all_to_all), f"fft(n={n})"


def _lu2d(n, rng):
    from repro.algorithms.lu import lu_2d
    return lu_2d, (rng.standard_normal((n, n)) + n * np.eye(n),), f"lu2d(n={n})"


_A, _O = "repro.algorithms.", "repro.conformance.oracles:"
_SQUARE = "p a perfect square; sqrt(p) | n"

#: workload name -> its record, in ``--help`` order.
SCENARIOS: dict[str, Scenario] = {s.name: s for s in (
    Scenario("matmul25d", 8, 16, "p = q^2 c with c | q (e.g. 4, 8, 32); q | n", _matmul25d,
             _A + "matmul25d:layout_25d", _O + "_matmul25d_oracle",
             knobs={"c": int}, defaults={"c": pick_25d_c}, derived="q"),
    Scenario("cannon", 4, 16, _SQUARE, _cannon, _A + "summa:square_layout", _O + "_cannon_oracle"),
    Scenario("summa", 4, 16, _SQUARE, _summa, _A + "summa:square_layout", _O + "_summa_oracle"),
    Scenario("caps", 7, 14, "p = 7^k; n = 2^depth * 7 * t (e.g. n=14 at p=7)", _caps,
             _A + "caps:caps_layout", _O + "_caps_oracle"),
    # The ring splits any n over any p. Its oracle is exact only for
    # p | n, and the c-team form has none yet.
    Scenario("nbody", 4, 64, "ring: any p, n; c teams: c | p, c | r = p/c, r | n", _nbody,
             _A + "nbody:team_layout", _O + "_nbody_oracle", knobs={"c": int}),
    Scenario("fft", 4, 1024, "p and n powers of two with p^2 | n", _fft,
             _A + "fft:fft_layout", _O + "_fft_oracle", knobs={"all_to_all": str}),
    Scenario("lu2d", 4, 48, _SQUARE, _lu2d, _A + "summa:square_layout", _O + "_lu2d_oracle"),
)}


def get_scenario(name: str) -> Scenario:
    """The record of scenario ``name``, or a ParameterError naming the
    valid ones."""
    try:
        return SCENARIOS[name]
    except (KeyError, TypeError):
        raise ParameterError(
            f"unknown scenario {name!r}; valid scenarios: {', '.join(sorted(SCENARIOS))}"
        ) from None


def build_scenario(workload: str, p: int, n: int, **knobs: Any) -> tuple[Callable, tuple, str]:
    """Resolve a scenario name to ``(program, args, label)`` for run_spmd.

    ``knobs`` are the record's, None leaving one unset: ``c`` is a
    replication factor (for matmul25d None picks the largest valid one,
    :func:`pick_25d_c`; for nbody a ``c`` runs the c-team
    :func:`~repro.algorithms.nbody.nbody_replicated` instead of the
    ring), ``all_to_all`` is FFT's transpose (``"naive"`` or
    ``"bruck"``, the default); a 2.5D cell's ``q`` is checked too.
    Raises one ParameterError for an unknown name, an unknown or
    mistyped knob, or a layout the rank program rejects (with its text).
    """
    scenario = get_scenario(workload)
    run = scenario.check(p, n, **knobs)
    run.pop(scenario.derived, None)
    return scenario.build(n, np.random.default_rng(0), **run)
