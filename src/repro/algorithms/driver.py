"""The paper's prescription as a driver: use all the memory you have.

The headline theorem is actionable: *given p processors with M words
each, pick the replication factor c as large as the memory allows (up
to p^(1/3)) and run the 2.5D algorithm* — runtime falls by c relative
to the 2D baseline at no extra energy. :func:`choose_replication`
computes that c under the algorithm's layout constraints, and
:func:`matmul` dispatches a multiplication accordingly (including the
CAPS route when the processor count is a power of 7 and a fast
multiply is requested).
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.caps import caps_assemble, caps_matmul, is_power_of_7
from repro.algorithms.matmul25d import grid_for_25d, layout_25d, matmul_25d
from repro.exceptions import ParameterError
from repro.simmpi.comm import Comm

__all__ = ["choose_replication", "matmul", "replication_speedup_model"]


def _modeled_words(n: int, q: int, c: int) -> float:
    """Implementation-aware per-rank word model for the 2.5D algorithm:
    2 q/c tile moves for the Cannon rounds (alignment included) plus
    ~3.5 tiles of replication traffic (scatter-allgather broadcast of A
    and B, reduce-scatter+gather of C) when c > 1."""
    tile = (n / q) ** 2
    return tile * (2.0 * q / c + (3.5 if c > 1 else 0.0))


def choose_replication(
    n: int, p: int, memory_words: float, objective: str = "min_words"
) -> int:
    """Pick the 2.5D replication factor for (n, p, M).

    Admissibility: p/c a perfect square q^2 with c | q (equal Cannon
    rounds per layer) and c <= q (3D limit); q | n; three resident
    tiles, 3 (n/q)^2 words, within ``memory_words``.

    objective:
      * "min_words" (default) — minimize the *implementation's* per-rank
        traffic model (:func:`_modeled_words`). This is not always the
        largest c: at a fixed p the asymptotic W ~ n^2/sqrt(cp) ignores
        the replication collectives' constant (~3.5 tiles), which at the
        3D corner q = c can exceed the Cannon savings. The benchmark
        harness measures exactly this effect (`bench_driver_policy`).
      * "max_replication" — the paper's literal prescription: the
        largest admissible c ("use all available memory to replicate
        data"). Optimal when *strong scaling* (growing p at fixed tile
        size), which is the regime the theorem speaks about.
    """
    if n <= 0 or p <= 0:
        raise ParameterError(f"need n, p > 0, got n={n}, p={p}")
    if memory_words <= 0:
        raise ParameterError(f"memory_words must be > 0, got {memory_words!r}")
    if objective not in ("min_words", "max_replication"):
        raise ParameterError(
            f"objective must be 'min_words' or 'max_replication', got {objective!r}"
        )
    candidates: list[tuple[int, int]] = []
    for c in range(1, p + 1):
        try:
            q = layout_25d(p, n, c)
        except ParameterError:
            continue
        tile_words = 3.0 * (n / q) ** 2
        if tile_words > memory_words:
            continue
        candidates.append((c, q))
    if not candidates:
        raise ParameterError(
            f"no admissible 2.5D layout for n={n}, p={p} within "
            f"{memory_words} words/rank (p must contain a q^2 c factorization "
            "with c | q, q | n, and 3 (n/q)^2 <= memory)"
        )
    if objective == "max_replication":
        return max(c for c, _ in candidates)
    return min(candidates, key=lambda cq: (_modeled_words(n, cq[1], cq[0]), -cq[0]))[0]


def replication_speedup_model(n: int, p: int, memory_words: float) -> float:
    """Asymptotic bandwidth speedup sqrt(c) of the paper's prescription
    (largest admissible c) over the 2D baseline — Eq. (7)'s factor,
    which governs the strong-scaling regime."""
    c = choose_replication(n, p, memory_words, objective="max_replication")
    return math.sqrt(c)


def matmul(
    comm: Comm,
    a: np.ndarray,
    b: np.ndarray,
    memory_words: float = math.inf,
    fast: bool = False,
) -> np.ndarray | None:
    """Multiply with the best algorithm for this communicator.

    Parameters
    ----------
    comm:
        The ranks to run on.
    a, b:
        Global square operands.
    memory_words:
        Per-rank memory budget steering the replication choice
        (default: unbounded — maximal replication).
    fast:
        Prefer CAPS (Strassen) when the communicator size is a power of
        7 and the operand order satisfies its divisibility rules.

    Returns
    -------
    The assembled **global** product on every rank (the driver gathers
    the distributed result — convenience over a raw layout; use the
    per-algorithm entry points for layout control).
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise ParameterError(
            f"need equal square operands, got {a.shape} and {b.shape}"
        )
    n = a.shape[0]
    p = comm.size

    if fast and is_power_of_7(p) and p > 1:
        try:
            local = caps_matmul(comm, a, b)
        except ParameterError:
            pass
        else:
            parts = comm.allgather(local)
            return caps_assemble(parts, n, p, 0)

    if p == 1:
        comm.add_flops(2.0 * float(n) ** 3)
        return a @ b

    c = choose_replication(n, p, memory_words)
    q = grid_for_25d(p, c)
    tile = matmul_25d(comm, a, b, c=c)
    # Assemble: front-layer ranks contribute their tiles; everyone
    # gathers (metered — assembly is part of what the driver promises).
    parts = comm.allgather(tile)
    grid = [[parts[(i * q + j) * c] for j in range(q)] for i in range(q)]
    return np.block(grid)
