"""Closed-form per-rank cost oracles for the simmpi collectives and the
registry scenarios.

The simulator produces F/W/S/M counts four independent ways (message
path, analytic fastpath, engine vs pool substrate, copy vs CoW payload
transport). All four are *implementations*; this module is the
*specification*: each oracle derives a collective's per-rank counts and
virtual clocks directly from its documented cost contract (the table in
:mod:`repro.simmpi.collectives` and each algorithm's docstring), in
plain Python, sharing no metering code with the simulator.

Conventions (the paper's, as adopted by the simulator):

* one word = one scalar element; ``None`` payloads are 0 words; strings
  are ceil(len/8) words (min 1); containers sum over their elements;
* a ``words``-word payload costs ``ceil(words / m)`` messages against
  the model's maximum message size m, minimum 1 (a zero-word
  synchronization still costs one message);
* with a machine model, a send advances the sender's virtual clock by
  ``alpha_t * messages + beta_t * words`` (exactly that operand order,
  for bit-identical floats) and a receive synchronizes the receiver's
  clock to the message's departure time;
* W and S charge the *sender*; receive-side tallies are tracked too and
  must conserve (total sent == total received);
* with a two-level ``node_size``, traffic between ranks in different
  ``node_size``-blocks is additionally tallied internode.

Every oracle returns an :class:`OracleCosts` whose ``signature()``
matches :meth:`repro.simmpi.trace.TraceReport.counts_signature` and
whose ``vtimes`` match the per-rank virtual clocks — bit-identical, not
approximately.

Non-power-of-two sizes are first-class: the binomial trees take their
remainder rounds (a vrank v sends at exactly the masks ``2^j`` with
``v < 2^j < p - v``), recursive doubling folds the ``p - 2^floor(log2 p)``
excess ranks in and out, the ring reduce-scatter uses numpy
``array_split`` chunking (first ``n mod p`` chunks one element larger),
and Bruck's all-to-all refuses non-powers-of-two outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.exceptions import ParameterError

__all__ = [
    "OracleSpec",
    "RankCosts",
    "OracleCosts",
    "ScenarioOracle",
    "oracle_barrier",
    "oracle_bcast",
    "oracle_reduce",
    "oracle_allreduce",
    "oracle_allreduce_recursive_doubling",
    "oracle_reduce_scatter",
    "oracle_reduce_scatter_gather",
    "oracle_allgather",
    "oracle_gather",
    "oracle_scatter",
    "oracle_alltoall",
    "oracle_alltoall_bruck",
    "oracle_bcast_scatter_allgather",
    "oracle_scenario",
    "COLLECTIVE_ORACLES",
    "SCENARIO_ORACLES",
    "string_words",
    "chunk_sizes",
    "binomial_send_masks",
]


# ----------------------------------------------------------------------
# specification primitives
# ----------------------------------------------------------------------


def string_words(text: str) -> int:
    """Model words of a str payload: ceil(len/8), minimum 1."""
    return max(1, math.ceil(len(text) / 8))


def chunk_sizes(total_words: int, parts: int) -> list[int]:
    """The numpy ``array_split`` convention: the first ``total mod parts``
    chunks get one extra element."""
    base, extra = divmod(total_words, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def binomial_send_masks(vrank: int, size: int) -> list[int]:
    """The doubling-tree rounds in which virtual rank ``vrank`` *sends*:
    exactly the masks ``2^j`` with ``vrank < 2^j`` and
    ``vrank + 2^j < size`` (the root sends in every round; a leaf in
    none). This is the closed form of the remainder-round behavior at
    non-power-of-two sizes."""
    out = []
    mask = 1
    while mask < size:
        if vrank < mask and vrank + mask < size:
            out.append(mask)
        mask <<= 1
    return out


@dataclass(frozen=True)
class OracleSpec:
    """The run parameters a cost oracle needs.

    ``machine`` may be any object carrying ``alpha_t``/``beta_t`` (e.g.
    :class:`repro.core.parameters.MachineParameters`); when None the
    virtual clocks stay at their entry values.
    """

    size: int
    max_message_words: float = math.inf
    machine: object | None = None
    node_size: int | None = None

    def __post_init__(self):
        if self.size < 1:
            raise ParameterError(f"oracle needs size >= 1, got {self.size}")
        if self.node_size is not None and (
            self.node_size < 1 or self.size % self.node_size
        ):
            raise ParameterError(
                f"node_size {self.node_size} must divide size {self.size}"
            )

    def messages(self, words: int) -> int:
        """ceil(words/m), minimum 1 (zero-word sync = 1 message)."""
        if words <= 0:
            return 1
        if math.isinf(self.max_message_words):
            return 1
        return int(math.ceil(words / float(self.max_message_words)))

    def internode(self, a: int, b: int) -> bool:
        if self.node_size is None:
            return False
        return a // self.node_size != b // self.node_size


@dataclass(frozen=True)
class RankCosts:
    """One rank's oracle prediction, field-compatible with the
    corresponding :class:`~repro.simmpi.counters.CounterSnapshot`
    fields."""

    flops: float = 0.0
    words_sent: int = 0
    messages_sent: int = 0
    words_received: int = 0
    messages_received: int = 0
    words_sent_internode: int = 0
    messages_sent_internode: int = 0
    words_received_internode: int = 0
    messages_received_internode: int = 0
    vtime: float = 0.0


@dataclass(frozen=True)
class OracleCosts:
    """Per-rank oracle predictions for one collective (or a sequence of
    them, via :meth:`then`)."""

    ranks: tuple[RankCosts, ...]

    @property
    def size(self) -> int:
        return len(self.ranks)

    def signature(self) -> tuple:
        """Same layout as ``TraceReport.counts_signature()``."""
        return tuple(
            (
                r.flops,
                r.words_sent,
                r.messages_sent,
                r.words_received,
                r.messages_received,
            )
            for r in self.ranks
        )

    @property
    def vtimes(self) -> tuple[float, ...]:
        return tuple(r.vtime for r in self.ranks)

    def internode_signature(self) -> tuple:
        return tuple(
            (
                r.words_sent_internode,
                r.messages_sent_internode,
                r.words_received_internode,
                r.messages_received_internode,
            )
            for r in self.ranks
        )

    def then(self, other: "OracleCosts") -> "OracleCosts":
        """Sequential composition: counts add; the later stage's clocks
        win (it must have been computed with this stage's exit vtimes as
        its entry)."""
        if other.size != self.size:
            raise ParameterError(
                f"cannot compose oracles of sizes {self.size} and {other.size}"
            )
        return OracleCosts(
            tuple(
                RankCosts(
                    flops=a.flops + b.flops,
                    words_sent=a.words_sent + b.words_sent,
                    messages_sent=a.messages_sent + b.messages_sent,
                    words_received=a.words_received + b.words_received,
                    messages_received=a.messages_received + b.messages_received,
                    words_sent_internode=a.words_sent_internode
                    + b.words_sent_internode,
                    messages_sent_internode=a.messages_sent_internode
                    + b.messages_sent_internode,
                    words_received_internode=a.words_received_internode
                    + b.words_received_internode,
                    messages_received_internode=a.messages_received_internode
                    + b.messages_received_internode,
                    vtime=b.vtime,
                )
                for a, b in zip(self.ranks, other.ranks)
            )
        )


class _Tally:
    """Mutable per-rank accumulator the oracle replays send/recv events
    into. Independent re-implementation of the metering conventions —
    shares no code with :mod:`repro.simmpi.counters`."""

    def __init__(self, spec: OracleSpec, entry: Sequence[float] | None = None):
        p = spec.size
        self.spec = spec
        self.ws = [0] * p
        self.ms = [0] * p
        self.wr = [0] * p
        self.mr = [0] * p
        self.wsi = [0] * p
        self.msi = [0] * p
        self.wri = [0] * p
        self.mri = [0] * p
        self.flops = [0.0] * p
        if entry is None:
            self.t = [0.0] * p
        else:
            if len(entry) != p:
                raise ParameterError(
                    f"entry vtimes length {len(entry)} != size {p}"
                )
            self.t = [float(x) for x in entry]

    def cost(self, words: int, msgs: int) -> float:
        m = self.spec.machine
        if m is None:
            return 0.0
        # Same operand order as Comm.send, for float bit-identity.
        return m.alpha_t * msgs + m.beta_t * words

    def send(self, src: int, dst: int, words: int) -> float:
        """Meter a send on ``src`` and the matching receive tallies on
        ``dst``; advance the sender's clock and return the departure
        time. The *receiver's* clock sync is the caller's job (it
        happens at the receiver's program point, via :meth:`sync`)."""
        msgs = self.spec.messages(words)
        inter = self.spec.internode(src, dst)
        self.ws[src] += words
        self.ms[src] += msgs
        self.wr[dst] += words
        self.mr[dst] += msgs
        if inter:
            self.wsi[src] += words
            self.msi[src] += msgs
            self.wri[dst] += words
            self.mri[dst] += msgs
        self.t[src] += self.cost(words, msgs)
        return self.t[src]

    def sync(self, rank: int, departure: float) -> None:
        if departure > self.t[rank]:
            self.t[rank] = departure

    def add_flops(self, rank: int, count: float) -> None:
        self.flops[rank] += count
        m = self.spec.machine
        if m is not None:
            self.t[rank] += m.gamma_t * count

    def finish(self) -> OracleCosts:
        return OracleCosts(
            tuple(
                RankCosts(
                    flops=self.flops[r],
                    words_sent=self.ws[r],
                    messages_sent=self.ms[r],
                    words_received=self.wr[r],
                    messages_received=self.mr[r],
                    words_sent_internode=self.wsi[r],
                    messages_sent_internode=self.msi[r],
                    words_received_internode=self.wri[r],
                    messages_received_internode=self.mri[r],
                    vtime=self.t[r],
                )
                for r in range(self.spec.size)
            )
        )


def _check_root(root: int, size: int) -> None:
    if not 0 <= root < size:
        raise ParameterError(f"root {root} out of range for size {size}")


def _uniform(words, size: int) -> list[int]:
    if isinstance(words, int):
        return [words] * size
    out = [int(w) for w in words]
    if len(out) != size:
        raise ParameterError(f"need {size} word counts, got {len(out)}")
    return out


# ----------------------------------------------------------------------
# collective oracles
# ----------------------------------------------------------------------


def oracle_barrier(spec: OracleSpec, entry=None) -> OracleCosts:
    """Dissemination barrier: ceil(log2 p) rounds; in round j rank r
    sends 0 words to (r + 2^j) mod p and waits on (r - 2^j) mod p."""
    p = spec.size
    tally = _Tally(spec, entry)
    if p == 1:
        return tally.finish()
    step = 1
    while step < p:
        deps = [tally.send(r, (r + step) % p, 0) for r in range(p)]
        for r in range(p):
            tally.sync(r, deps[(r - step) % p])
        step <<= 1
    return tally.finish()


def oracle_bcast(spec: OracleSpec, words: int, root: int = 0, entry=None) -> OracleCosts:
    """Binomial broadcast of a ``words``-word payload: in the round with
    mask 2^j, virtual rank v < 2^j sends to v + 2^j when that exists.
    Every rank's send rounds are :func:`binomial_send_masks`."""
    p = spec.size
    _check_root(root, p)
    tally = _Tally(spec, entry)
    if p == 1:
        return tally.finish()

    def world(v: int) -> int:
        return (v + root) % p

    mask = 1
    while mask < p:
        for v in range(min(mask, p - mask)):
            dep = tally.send(world(v), world(v + mask), words)
            tally.sync(world(v + mask), dep)
        mask <<= 1
    return tally.finish()


def oracle_reduce(spec: OracleSpec, words: int, root: int = 0, entry=None) -> OracleCosts:
    """Binomial folding-tree reduction: virtual rank v sends its
    accumulator (``words`` words) at its lowest set bit and is done;
    below that bit it receives from v + 2^j when that exists. The
    built-in sum op meters no flops."""
    p = spec.size
    _check_root(root, p)
    tally = _Tally(spec, entry)
    if p == 1:
        return tally.finish()

    def world(v: int) -> int:
        return (v + root) % p

    mask = 1
    while mask < p:
        for v in range(p):
            if v & (mask - 1):
                continue  # already sent in an earlier round
            if v & mask:
                dep = tally.send(world(v), world(v - mask), words)
                tally.sync(world(v - mask), dep)
        mask <<= 1
    return tally.finish()


def oracle_allreduce(spec: OracleSpec, words: int, entry=None) -> OracleCosts:
    """Default allreduce = binomial reduce to rank 0, then binomial
    broadcast of the combined value from rank 0."""
    first = oracle_reduce(spec, words, root=0, entry=entry)
    second = oracle_bcast(spec, words, root=0, entry=first.vtimes)
    return first.then(second)


def oracle_allreduce_recursive_doubling(
    spec: OracleSpec, words: int, entry=None
) -> OracleCosts:
    """Recursive-doubling allreduce with non-power-of-two fold/unfold:
    with k = 2^floor(log2 p) and extra = p - k, ranks >= k fold their
    value into rank - k up front and receive the result at the end;
    the k survivors run log2 k pairwise exchange rounds (each rank
    sends, then receives — both directions ``words`` words)."""
    p = spec.size
    tally = _Tally(spec, entry)
    if p == 1:
        return tally.finish()
    k = 1
    while k * 2 <= p:
        k *= 2
    extra = p - k
    # Fold: every excess rank sends down, then blocks for the unfold.
    fold_deps = {}
    for me in range(k, p):
        fold_deps[me - k] = tally.send(me, me - k, words)
    for me in range(extra):
        tally.sync(me, fold_deps[me])
    # Doubling rounds among ranks [0, k): sendrecv = send then recv.
    mask = 1
    while mask < k:
        deps = {me: tally.send(me, me ^ mask, words) for me in range(k)}
        for me in range(k):
            tally.sync(me, deps[me ^ mask])
        mask <<= 1
    # Unfold: survivors hand the result back up.
    for me in range(extra):
        dep = tally.send(me, me + k, words)
        tally.sync(me + k, dep)
    return tally.finish()


def oracle_reduce_scatter(
    spec: OracleSpec, total_words: int, entry=None
) -> OracleCosts:
    """Ring reduce-scatter of a ``total_words``-element array: p-1
    rounds each shipping one ``array_split`` chunk to the right
    neighbor, plus one ownership-rotation hop — S = p sends per rank.
    In round s rank r sends chunk (r - s + 1) mod p and receives chunk
    (r - s) mod p; the rotation ships chunk (r + 1) mod p."""
    p = spec.size
    tally = _Tally(spec, entry)
    if p == 1:
        return tally.finish()
    sizes = chunk_sizes(total_words, p)
    for s in range(1, p):
        deps = [tally.send(r, (r + 1) % p, sizes[(r - s + 1) % p]) for r in range(p)]
        for r in range(p):
            tally.sync(r, deps[(r - 1) % p])
    deps = [tally.send(r, (r + 1) % p, sizes[(r + 1) % p]) for r in range(p)]
    for r in range(p):
        tally.sync(r, deps[(r - 1) % p])
    return tally.finish()


def oracle_reduce_scatter_gather(
    spec: OracleSpec, total_words: int, root: int = 0, entry=None
) -> OracleCosts:
    """The large-message reduce: ring reduce-scatter (p-1 rounds, no
    rotation hop) followed by a direct gather of the owned chunks at the
    root — each non-root ships ``(owned index, chunk)``, one extra word
    for the index."""
    p = spec.size
    _check_root(root, p)
    tally = _Tally(spec, entry)
    if p == 1:
        return tally.finish()
    sizes = chunk_sizes(total_words, p)
    for s in range(1, p):
        deps = [tally.send(r, (r + 1) % p, sizes[(r - s + 1) % p]) for r in range(p)]
        for r in range(p):
            tally.sync(r, deps[(r - 1) % p])
    for r in range(p):
        if r != root:
            dep = tally.send(r, root, 1 + sizes[(r + 1) % p])
            tally.sync(root, dep)
    return tally.finish()


def oracle_allgather(spec: OracleSpec, words, entry=None) -> OracleCosts:
    """Ring allgather of per-rank blocks (``words`` an int for uniform
    blocks or a per-rank list): p-1 rounds, in round s rank r forwards
    block (r - s) mod p and receives block (r - s - 1) mod p."""
    p = spec.size
    w = _uniform(words, p)
    tally = _Tally(spec, entry)
    for s in range(p - 1):
        deps = [tally.send(r, (r + 1) % p, w[(r - s) % p]) for r in range(p)]
        for r in range(p):
            tally.sync(r, deps[(r - 1) % p])
    return tally.finish()


def oracle_gather(spec: OracleSpec, words, root: int = 0, entry=None) -> OracleCosts:
    """Direct gather: every non-root sends its block straight to the
    root (p-1 receives there, order-independent clock sync)."""
    p = spec.size
    _check_root(root, p)
    w = _uniform(words, p)
    tally = _Tally(spec, entry)
    for r in range(p):
        if r != root:
            dep = tally.send(r, root, w[r])
            tally.sync(root, dep)
    return tally.finish()


def oracle_scatter(spec: OracleSpec, words, root: int = 0, entry=None) -> OracleCosts:
    """Direct scatter: the root sends block r to rank r in ascending
    rank order (its clock advances per send, so later destinations see
    later departures)."""
    p = spec.size
    _check_root(root, p)
    w = _uniform(words, p)
    tally = _Tally(spec, entry)
    for r in range(p):
        if r != root:
            dep = tally.send(root, r, w[r])
            tally.sync(r, dep)
    return tally.finish()


def oracle_alltoall(spec: OracleSpec, words, entry=None) -> OracleCosts:
    """Cyclic pairwise all-to-all: p-1 rounds, in round k rank r sends
    its block for (r + k) mod p and receives from (r - k) mod p. The
    rank's own block never touches the network. ``words`` is an int
    (uniform blocks) or a p x p nested list ``words[src][dst]``."""
    p = spec.size
    if isinstance(words, int):
        w = [[words] * p for _ in range(p)]
    else:
        w = [list(row) for row in words]
        if len(w) != p or any(len(row) != p for row in w):
            raise ParameterError(f"need a {p}x{p} block-words matrix")
    tally = _Tally(spec, entry)
    for k in range(1, p):
        deps = [tally.send(r, (r + k) % p, w[r][(r + k) % p]) for r in range(p)]
        for r in range(p):
            tally.sync(r, deps[(r - k) % p])
    return tally.finish()


def oracle_alltoall_bruck(spec: OracleSpec, block_words: int, entry=None) -> OracleCosts:
    """Bruck all-to-all of uniform ``block_words``-word blocks: log2 p
    rounds; in the round with mask 2^j every rank ships the p/2 blocks
    whose relative-destination index has bit j set — one message of
    (p/2) * block_words words to (r + 2^j) mod p. Requires p = 2^j."""
    p = spec.size
    if p & (p - 1):
        raise ParameterError(
            f"alltoall_bruck requires a power-of-two size, got {p}"
        )
    tally = _Tally(spec, entry)
    if p == 1:
        return tally.finish()
    per_round = (p // 2) * block_words
    mask = 1
    while mask < p:
        deps = [tally.send(r, (r + mask) % p, per_round) for r in range(p)]
        for r in range(p):
            tally.sync(r, deps[(r - mask) % p])
        mask <<= 1
    return tally.finish()


def oracle_bcast_scatter_allgather(
    spec: OracleSpec,
    total_words: int,
    root: int = 0,
    meta_words: int | None = None,
    entry=None,
) -> OracleCosts:
    """The van de Geijn large-message broadcast: a tiny metadata
    binomial bcast, a direct scatter of the p ``array_split`` chunks,
    then a ring allgather reassembling them.

    ``meta_words`` defaults to the 2-D float64 case the algorithms use:
    a (shape tuple, dtype string, per-chunk lengths) triple = 2 + 1 + p
    words.
    """
    p = spec.size
    _check_root(root, p)
    if meta_words is None:
        meta_words = 2 + string_words("float64") + p
    sizes = chunk_sizes(total_words, p)
    first = oracle_bcast(spec, meta_words, root=root, entry=entry)
    second = oracle_scatter(spec, sizes, root=root, entry=first.vtimes)
    third = oracle_allgather(spec, sizes, entry=second.vtimes)
    return first.then(second).then(third)


#: Default-algorithm collective oracles, keyed like the fastpath
#: resolver registry. Each takes (spec, payload spec..., entry=None).
COLLECTIVE_ORACLES: dict[str, Callable[..., OracleCosts]] = {
    "barrier": oracle_barrier,
    "bcast": oracle_bcast,
    "reduce": oracle_reduce,
    "allreduce": oracle_allreduce,
    "reduce_scatter": oracle_reduce_scatter,
    "allgather": oracle_allgather,
    "gather": oracle_gather,
    "scatter": oracle_scatter,
    "alltoall": oracle_alltoall,
    "alltoall_bruck": oracle_alltoall_bruck,
}


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
    if q * q != p:
        raise ParameterError(f"summa needs a square p, got {p}")
    if n % q:
        raise ParameterError(f"summa needs q | n, got n={n}, q={q}")
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
    if q * q != p:
        raise ParameterError(f"cannon needs a square p, got {p}")
    if n % q:
        raise ParameterError(f"cannon needs q | n, got n={n}, q={q}")
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
    q = math.isqrt(p // c)
    if q * q * c != p or (n % max(q, 1)):
        raise ParameterError(f"matmul25d needs p = q^2 c and q | n, got p={p} n={n}")
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
    from repro.algorithms.strassen import strassen_flop_count

    k = 0
    q = p
    while q > 1:
        if q % 7:
            raise ParameterError(f"caps needs p = 7^k, got {p}")
        q //= 7
        k += 1
    flops = 0.0
    ws = ms = 0
    for d in range(k):
        n_d = n >> d
        p_d = p // (7 ** d)
        if (n_d * n_d) % (4 * p_d):
            raise ParameterError(
                f"caps share not divisible at level {d} (n={n}, p={p})"
            )
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
    if n & (n - 1) or p & (p - 1) or n < p * p:
        raise ParameterError(f"fft oracle needs powers of two with p^2 | n, got p={p} n={n}")
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


#: Scenario-name -> oracle builder, covering the full
#: :data:`repro.scenarios.SCENARIOS` registry.
SCENARIO_ORACLES: dict[str, Callable[..., ScenarioOracle]] = {
    "summa": _summa_oracle,
    "cannon": _cannon_oracle,
    "matmul25d": _matmul25d_oracle,
    "caps": _caps_oracle,
    "nbody": _nbody_oracle,
    "fft": _fft_oracle,
}


def oracle_scenario(
    name: str,
    p: int,
    n: int,
    max_message_words: float = math.inf,
    **kwargs,
) -> ScenarioOracle:
    """Closed-form expectations for registry scenario ``name`` at (p, n).

    ``matmul25d`` takes ``c=`` (replication factor), ``caps`` takes
    ``cutoff=``/``local_strassen=``, ``nbody`` takes ``dims=``/
    ``flops_per_pair=``, ``fft`` takes ``all_to_all=``.
    """
    try:
        builder = SCENARIO_ORACLES[name]
    except KeyError:
        raise ParameterError(
            f"no scenario oracle for {name!r}; have "
            f"{', '.join(sorted(SCENARIO_ORACLES))}"
        ) from None
    spec = OracleSpec(p, max_message_words=max_message_words)
    return builder(p, n, spec.messages, **kwargs)
