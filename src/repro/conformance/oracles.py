"""Closed-form per-rank cost oracles for the simmpi collectives and the
registry scenarios.

The collective oracles live in :mod:`repro.simmpi.closedform`, which
the analytic fast path meters through; they are re-exported here. The
simulator's message path re-enacts every envelope and shares no
metering code with them, so it is the independent witness the
conformance grid checks both the oracles and the fast path against.
The scenario oracles below give each registry scenario's exact per-rank
flops and, where one exists, its full per-rank traffic; the scenario's
record checks the layout before its oracle runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from repro.exceptions import ParameterError
from repro.scenarios import get_scenario, load
from repro.simmpi import closedform
from repro.simmpi.closedform import *  # noqa: F403 - the collective oracles

__all__ = [
    *closedform.__all__,
    "ScenarioOracle",
    "oracle_scenario",
]


# ----------------------------------------------------------------------
# scenario oracles
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioOracle:
    """Closed-form expectations for one registry scenario.

    ``per_rank`` carries exact (flops, words_sent, messages_sent,
    words_received, messages_received) tuples when the scenario's full
    traffic has a closed form; otherwise it is None and only
    ``rank_flops`` (always exact) applies. Virtual clocks of scenarios
    are checked differentially across execution modes, not against the
    oracle (their schedules interleave compute and communication in
    data-dependent order).
    """

    name: str
    size: int
    rank_flops: tuple[float, ...]
    per_rank: tuple[tuple, ...] | None = None
    notes: str = ""

    @property
    def total_flops(self) -> float:
        return sum(self.rank_flops)


def _summa_oracle(p: int, n: int, mc) -> ScenarioOracle:
    """SUMMA on a q x q grid: per rank F = 2 n^3 / p exactly; over the q
    outer-product steps the roots cycle, so *every* rank plays every
    binomial-tree role exactly once per operand: q-1 tile sends and q-1
    tile receives of b^2 words for A and again for B."""
    q = math.isqrt(p)
    b2 = (n // q) ** 2
    flops = 2.0 * float(n) ** 3 / p
    sig = (flops, 2 * (q - 1) * b2, 2 * (q - 1) * mc(b2), 2 * (q - 1) * b2,
           2 * (q - 1) * mc(b2))
    return ScenarioOracle(
        name="summa", size=p, rank_flops=(flops,) * p, per_rank=(sig,) * p,
        notes="uniform: roots cycle, so binomial roles average out exactly",
    )


def _cannon_oracle(p: int, n: int, mc) -> ScenarioOracle:
    """Cannon on a periodic q x q grid: rank (i, j) skews A iff i != 0
    and B iff j != 0 (one b^2-word sendrecv each), then q-1 multiply
    steps each shift both tiles. Receives mirror sends exactly (every
    shift is a cyclic rotation)."""
    q = math.isqrt(p)
    b2 = (n // q) ** 2
    flops = 2.0 * float(n) ** 3 / p
    per = []
    for r in range(p):
        i, j = divmod(r, q)
        sends = (1 if i else 0) + (1 if j else 0) + 2 * (q - 1)
        per.append((flops, sends * b2, sends * mc(b2), sends * b2, sends * mc(b2)))
    return ScenarioOracle(
        name="cannon", size=p, rank_flops=(flops,) * p, per_rank=tuple(per)
    )


def _matmul25d_oracle(p: int, n: int, mc, c: int) -> ScenarioOracle:
    """2.5D matmul: per rank F = 2 n^3 / p exactly (the fiber reduction
    uses the unmetered built-in sum). W/S have no per-rank closed form
    (replication composites carry metadata and the alignment shifts are
    coordinate-dependent), so traffic is checked differentially."""
    flops = 2.0 * float(n) ** 3 / p
    return ScenarioOracle(
        name="matmul25d", size=p, rank_flops=(flops,) * p, per_rank=None,
        notes="flops-only: replication/reduction composites carry metadata",
    )


def _caps_oracle(
    p: int, n: int, mc, cutoff: int = 32, local_strassen: bool = True
) -> ScenarioOracle:
    """CAPS on p = 7^k ranks, all-BFS: at recursion level d every rank
    holds n_d^2 / p_d local elements (n_d = n/2^d, p_d = p/7^d) and
    pays 10 sz + 8 sz combination flops (sz = n_d^2 / (4 p_d)), 7
    forward sends of 2 sz words (the (T_i, S_i) pair, one of them to
    itself) and 7 backward sends of sz words; the base case is one
    sequential Strassen (or classical) multiply of order n / 2^k."""
    from repro.algorithms.caps import caps_depth
    from repro.algorithms.strassen import strassen_flop_count

    k = caps_depth(p, 0)
    flops = 0.0
    ws = ms = 0
    for d in range(k):
        n_d = n >> d
        p_d = p // (7 ** d)
        sz = (n_d * n_d) // (4 * p_d)
        flops += 18.0 * sz
        ws += 7 * (2 * sz) + 7 * sz
        ms += 7 * mc(2 * sz) + 7 * mc(sz)
    n_base = n >> k
    if local_strassen:
        flops += strassen_flop_count(n_base, cutoff)
    else:
        flops += 2.0 * float(n_base) ** 3
    sig = (flops, ws, ms, ws, ms)
    return ScenarioOracle(
        name="caps", size=p, rank_flops=(flops,) * p, per_rank=(sig,) * p,
        notes="uniform: the cyclic-by-index layout makes every rank identical",
    )


def _nbody_oracle(p: int, n: int, mc, dims: int = 3,
                  flops_per_pair: float = 20.0) -> ScenarioOracle:
    """Ring n-body (p | n): every rank owns w = n/p particles and
    evaluates f w n flops; each of the p-1 ring steps shifts the
    travelling positions (dims * w words) and charges (w words) — two
    sendrecv hops per step, received traffic mirroring sent."""
    if n % p:
        raise ParameterError(f"nbody oracle needs p | n, got n={n}, p={p}")
    w = n // p
    flops = flops_per_pair * w * n
    ws = (p - 1) * (dims * w + w)
    ms = (p - 1) * (mc(dims * w) + mc(w))
    sig = (flops, ws, ms, ws, ms)
    return ScenarioOracle(
        name="nbody", size=p, rank_flops=(flops,) * p, per_rank=(sig,) * p
    )


def _fft_oracle(p: int, n: int, mc, all_to_all: str = "bruck") -> ScenarioOracle:
    """Parallel transpose FFT: per rank F = 5 (n/p) log2 n butterfly
    flops plus 6 (n/p) twiddle flops; the only traffic is the global
    transpose — an all-to-all of n/p^2-word blocks, Bruck (log2 p
    messages of (p/2)(n/p^2) words) or naive (p-1 messages of n/p^2)."""
    w = n // p
    flops = 5.0 * w * math.log2(n) + 6.0 * w
    block = n // (p * p)
    if all_to_all == "bruck":
        rounds = int(math.log2(p))
        per_round = (p // 2) * block
        ws = rounds * per_round
        ms = rounds * mc(per_round)
    else:
        ws = (p - 1) * block
        ms = (p - 1) * mc(block)
    sig = (flops, ws, ms, ws, ms)
    return ScenarioOracle(
        name="fft", size=p, rank_flops=(flops,) * p, per_rank=(sig,) * p
    )


def _lu2d_oracle(p: int, n: int, mc) -> ScenarioOracle:
    """2D block LU on a q x q grid, tiles of order b = n/q: rank (i, j)
    updates its tile (2 b^3 flops) at each of the min(i, j) steps before
    its own panel step. At that step a diagonal rank factors its tile,
    sum over m = 1..b of 2 m (m-1) flops, and an off-diagonal rank does
    one triangular solve (b^3). Traffic is broadcast trees over
    row/column sub-communicators whose active extent shrinks with the
    step, so it is checked differentially."""
    q = math.isqrt(p)
    b = n // q
    factor = float(sum(2 * m * (m - 1) for m in range(1, b + 1)))
    flops = []
    for r in range(p):
        i, j = divmod(r, q)
        own = factor if i == j else float(b) ** 3
        flops.append(2.0 * float(b) ** 3 * min(i, j) + own)
    return ScenarioOracle(
        name="lu2d", size=p, rank_flops=tuple(flops), per_rank=None,
        notes="flops-only: broadcast extents shrink with the step",
    )


def oracle_scenario(
    name: str,
    p: int,
    n: int,
    max_message_words: float = math.inf,
    **kwargs,
) -> ScenarioOracle:
    """Closed-form expectations for registry scenario ``name`` at (p, n).

    The scenario's knobs (``c=`` for matmul25d, whose default is the
    record's, ``all_to_all=`` for fft) are checked with the layout
    first, as a cell checks them. ``caps`` also takes ``cutoff=``/
    ``local_strassen=`` and ``nbody`` ``dims=``/``flops_per_pair=``.
    """
    scenario = get_scenario(name)
    run = scenario.check(p, n, **{k: kwargs.pop(k) for k in scenario.knobs if k in kwargs})
    run.pop(scenario.derived, None)
    spec = OracleSpec(p, max_message_words=max_message_words)
    return load(scenario.oracle)(p, n, spec.messages, **run, **kwargs)
