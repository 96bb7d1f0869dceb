"""The scenario registry: the seven workloads every face of the repo runs.

One table names the scenarios (2.5D matmul, Cannon, SUMMA, CAPS, n-body,
FFT, 2D LU) with their default sizes, and one builder turns a name and a size
into the rank program the simulator runs. The CLI's ``trace``,
``profile``, ``power`` and ``observe`` commands, the sweep engine's
scenario cells and the conformance grid's scenario cases all build
through :func:`build_scenario` (same rng seed, same inputs), so a sweep
cell prices exactly the run ``repro trace`` shows and the conformance
oracle checks. The measured experiments (``repro validate``, ``repro
report``, the ``bench_sim_*`` benches) are sweep specs over this table
too: ``c`` walks the replication factor of ``matmul25d`` and ``nbody``,
and ``all_to_all`` picks FFT's transpose.

Adding a scenario means a :data:`SCENARIOS` row, a branch in
:func:`build_scenario` and a closed form in
:data:`repro.conformance.oracles.SCENARIO_ORACLES`.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.exceptions import ParameterError

__all__ = ["FAULT_SCENARIOS", "SCENARIOS", "build_scenario", "pick_25d_c"]

#: workload -> (default p, default n, p/n constraint text for --help).
SCENARIOS = {
    "matmul25d": (8, 16, "p = q^2 c with c | q (e.g. 4, 8, 32); q | n"),
    "cannon": (4, 16, "p a perfect square; sqrt(p) | n"),
    "summa": (4, 16, "p a perfect square; sqrt(p) | n"),
    "caps": (7, 14, "p = 7^k; n = 2^depth * 7 * t (e.g. n=14 at p=7)"),
    "nbody": (4, 64, "p | n"),
    "fft": (4, 1024, "p and n powers of two with p^2 | n"),
    "lu2d": (4, 48, "p a perfect square; sqrt(p) | n"),
}

#: Scenarios with a replica-recovery variant ``repro faults`` can crash.
FAULT_SCENARIOS = ("matmul25d",)


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


def build_scenario(
    workload: str,
    p: int,
    n: int,
    c: int | None = None,
    all_to_all: str | None = None,
) -> tuple[Callable, tuple, str]:
    """Resolve a scenario name to ``(program, args, label)`` for run_spmd.

    ``c`` is a replication factor. For matmul25d ``None`` picks the
    largest valid one (:func:`pick_25d_c`); for nbody a ``c`` runs the
    c-team :func:`~repro.algorithms.nbody.nbody_replicated` instead of
    the ring. ``all_to_all`` is FFT's transpose (``"naive"`` or
    ``"bruck"``, the default). Raises ParameterError for an unknown
    name, a knob given to a scenario that has none, or a (p, n) that
    violates the layout constraints (messages name the constraint,
    mirroring ``repro trace --help``).
    """
    if workload not in SCENARIOS:
        raise ParameterError(
            f"unknown scenario {workload!r}; valid scenarios: "
            f"{', '.join(sorted(SCENARIOS))}"
        )
    if c is not None and workload not in ("matmul25d", "nbody"):
        raise ParameterError(f"scenario {workload!r} takes no replication factor")
    if all_to_all is not None and workload != "fft":
        raise ParameterError(f"scenario {workload!r} takes no all_to_all")
    rng = np.random.default_rng(0)
    if workload in ("matmul25d", "cannon", "summa", "caps"):
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        if workload == "matmul25d":
            from repro.algorithms.matmul25d import grid_for_25d, matmul_25d

            c = pick_25d_c(p) if c is None else int(c)
            grid_for_25d(p, c)  # validates; matmul_25d rechecks n % q
            return matmul_25d, (a, b, c), f"matmul25d(n={n}, c={c})"
        if workload == "cannon":
            from repro.algorithms.cannon import cannon_matmul

            return cannon_matmul, (a, b), f"cannon(n={n})"
        if workload == "summa":
            from repro.algorithms.summa import summa_matmul

            return summa_matmul, (a, b), f"summa(n={n})"
        from repro.algorithms.caps import caps_matmul

        return caps_matmul, (a, b), f"caps(n={n})"
    if workload == "nbody":
        from repro.algorithms.nbody import GRAVITY, nbody_replicated, nbody_ring

        pos = rng.standard_normal((n, 3))
        q = rng.uniform(0.5, 2.0, n)
        if c is None:
            return nbody_ring, (pos, q), f"nbody(n={n})"
        c = int(c)
        return nbody_replicated, (pos, q, c, GRAVITY), f"nbody(n={n}, c={c})"
    if workload == "lu2d":
        from repro.algorithms.lu import lu_2d

        a = rng.standard_normal((n, n)) + n * np.eye(n)
        return lu_2d, (a,), f"lu2d(n={n})"
    from repro.algorithms.fft import fft_parallel

    x = rng.standard_normal(n)
    args = (x,) if all_to_all is None else (x, all_to_all)
    return fft_parallel, args, f"fft(n={n})"
