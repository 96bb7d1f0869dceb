"""Closed-form per-rank costs of the default collectives: the oracles.

Each oracle derives a collective's per-rank counts and virtual clocks
from its documented cost contract (the table in
:mod:`repro.simmpi.collectives` and each algorithm's docstring). The
analytic fast path (:mod:`repro.simmpi.fastpath`) meters every
collective it resolves through these functions, and
:mod:`repro.conformance` checks them, cell by cell, against the message
path, which re-enacts every envelope and shares no metering code with
this module. This module imports nothing from the simulator runtime,
so the fast path can import it at module load without a cycle.

Conventions (the paper's, as adopted by the simulator):

* one word = one scalar element; ``None`` payloads are 0 words; strings
  are ceil(len/8) words (min 1); containers sum over their elements;
* a ``words``-word payload costs ``ceil(words / m)`` messages against
  the model's maximum message size m, minimum 1 (a zero-word
  synchronization still costs one message);
* with a machine model, a send advances the sender's virtual clock by
  ``alpha_t * messages + beta_t * words`` (exactly that operand order,
  for bit-identical floats) and a receive synchronizes the receiver's
  clock to the message's departure time; without one the clocks stay
  at their entry values;
* W and S charge the *sender*; receive-side tallies are tracked too and
  must conserve (total sent == total received);
* with a two-level ``node_size``, traffic between ranks whose world
  ranks lie in different ``node_size``-blocks is additionally tallied
  internode.

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
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.exceptions import ParameterError

__all__ = [
    "OracleSpec",
    "RankCosts",
    "OracleCosts",
    "Tally",
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
    "COLLECTIVE_ORACLES",
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
    virtual clocks stay at their entry values. ``ranks`` are the world
    ranks of the group (default ``0..size-1``, the whole world); they
    place a sub-communicator's ranks on their nodes.
    """

    size: int
    max_message_words: float = math.inf
    machine: object | None = None
    node_size: int | None = None
    ranks: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.size < 1:
            raise ParameterError(f"oracle needs size >= 1, got {self.size}")
        if self.ranks is not None and len(self.ranks) != self.size:
            raise ParameterError(
                f"need {self.size} world ranks, got {len(self.ranks)}"
            )
        if self.node_size is not None and (
            self.node_size < 1 or (self.ranks is None and self.size % self.node_size)
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


class RankCosts(NamedTuple):
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
        return tuple(r[:5] for r in self.ranks)

    @property
    def vtimes(self) -> tuple[float, ...]:
        return tuple(r.vtime for r in self.ranks)

    def internode_signature(self) -> tuple:
        return tuple(r[5:9] for r in self.ranks)

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
                RankCosts(*(x + y for x, y in zip(a[:-1], b[:-1])), b.vtime)
                for a, b in zip(self.ranks, other.ranks)
            )
        )


class Tally:
    """Per-rank accumulator the oracles replay their send/receive
    pattern into: :meth:`ring` meters whole ring steps in numpy,
    :meth:`send`/:meth:`sync` one tree edge at a time."""

    def __init__(self, spec: OracleSpec, entry: Sequence[float] | None = None):
        p = spec.size
        self.spec = spec
        self.p = p
        # words/messages sent/received, then the same four internode
        self.ws, self.ms, self.wr, self.mr, self.wsi, self.msi, self.wri, self.mri = (
            np.zeros((8, p), dtype=np.int64)
        )
        if entry is None:
            self.t = np.zeros(p)
        else:
            if len(entry) != p:
                raise ParameterError(f"entry vtimes length {len(entry)} != size {p}")
            self.t = np.array(entry, dtype=np.float64)
        self.nodes = None
        if spec.node_size is not None:
            ranks = np.arange(p) if spec.ranks is None else np.array(spec.ranks)
            self.nodes = ranks // spec.node_size

    def _messages(self, words: np.ndarray) -> np.ndarray:
        mmw = self.spec.max_message_words
        if math.isinf(mmw):
            return np.broadcast_to(np.int64(1), words.shape)
        return np.maximum(np.ceil(words / float(mmw)).astype(np.int64), 1)

    def ring(self, words, shifts) -> None:
        """Meter ring steps: in step k every rank r sends ``words[k][r]``
        words to ``(r + shifts[k]) % p`` and then waits for the message
        from ``(r - shifts[k]) % p``. ``words`` broadcasts to
        (steps, p); a scalar ``shifts`` is a single step."""
        p = self.p
        shifts = np.atleast_1d(np.asarray(shifts, dtype=np.int64))
        W = np.broadcast_to(np.asarray(words, dtype=np.int64), (len(shifts), p))
        M = self._messages(W)
        idx = np.arange(p)
        left = (idx - shifts[:, None]) % p  # whom r hears from, per step
        step = np.arange(len(shifts))[:, None]
        self.ws += W.sum(axis=0)
        self.ms += M.sum(axis=0)
        self.wr += W[step, left].sum(axis=0)
        self.mr += M[step, left].sum(axis=0)
        if self.nodes is not None:
            cross = self.nodes != self.nodes[(idx + shifts[:, None]) % p]
            Wi = np.where(cross, W, 0)
            Mi = np.where(cross, M, 0)
            self.wsi += Wi.sum(axis=0)
            self.msi += Mi.sum(axis=0)
            self.wri += Wi[step, left].sum(axis=0)
            self.mri += Mi[step, left].sum(axis=0)
        machine = self.spec.machine
        if machine is not None:
            # alpha*msgs + beta*words, Comm.send's order: identical floats
            cost = machine.alpha_t * M
            cost += machine.beta_t * W
            t = self.t
            for k in range(len(shifts)):
                dep = t + cost[k]
                t = np.maximum(dep, dep[left[k]])
            self.t = t

    def send(self, src: int, dst: int, words: int) -> float:
        """Meter one message ``src -> dst``; advance the sender's clock
        and return the departure time. The *receiver's* clock sync is
        the caller's job (it happens at the receiver's program point,
        via :meth:`sync`)."""
        msgs = self.spec.messages(words)
        self.ws[src] += words
        self.ms[src] += msgs
        self.wr[dst] += words
        self.mr[dst] += msgs
        if self.nodes is not None and self.nodes[src] != self.nodes[dst]:
            self.wsi[src] += words
            self.msi[src] += msgs
            self.wri[dst] += words
            self.mri[dst] += msgs
        machine = self.spec.machine
        if machine is not None:
            self.t[src] += machine.alpha_t * msgs + machine.beta_t * words
        return self.t[src]

    def sync(self, rank: int, departure: float) -> None:
        if self.spec.machine is not None and departure > self.t[rank]:
            self.t[rank] = departure

    def finish(self) -> OracleCosts:
        counts = (self.ws, self.ms, self.wr, self.mr, self.wsi, self.msi, self.wri, self.mri)
        columns = [[0.0] * self.p, *(c.tolist() for c in counts), self.t.tolist()]
        return OracleCosts(tuple(map(RankCosts._make, zip(*columns))))


def _check_root(root: int, size: int) -> None:
    if not 0 <= root < size:
        raise ParameterError(f"root {root} out of range for size {size}")


def _counts(words, shape: tuple[int, ...]) -> np.ndarray:
    """Word counts of ``shape``: an int (the same everywhere) or an
    array of that shape (one per rank, or ``words[src][dst]``)."""
    out = np.asarray(words, dtype=np.int64)
    if out.ndim == 0:
        return np.full(shape, out)
    if out.shape != shape:
        raise ParameterError(f"need word counts of shape {shape}, got {out.shape}")
    return out


# ----------------------------------------------------------------------
# collective oracles
# ----------------------------------------------------------------------


def oracle_barrier(spec: OracleSpec, entry=None) -> OracleCosts:
    """Dissemination barrier: ceil(log2 p) rounds; in round j rank r
    sends 0 words to (r + 2^j) mod p and waits on (r - 2^j) mod p."""
    p = spec.size
    tally = Tally(spec, entry)
    tally.ring(0, [1 << j for j in range((p - 1).bit_length())])
    return tally.finish()


def oracle_bcast(spec: OracleSpec, words: int, root: int = 0, entry=None) -> OracleCosts:
    """Binomial broadcast of a ``words``-word payload: in the round with
    mask 2^j, virtual rank v < 2^j sends to v + 2^j when that exists.
    Every rank's send rounds are :func:`binomial_send_masks`."""
    p = spec.size
    _check_root(root, p)
    tally = Tally(spec, entry)
    mask = 1
    while mask < p:
        for v in range(min(mask, p - mask)):
            dst = (v + mask + root) % p
            tally.sync(dst, tally.send((v + root) % p, dst, words))
        mask <<= 1
    return tally.finish()


def oracle_reduce(spec: OracleSpec, words, root: int = 0, entry=None) -> OracleCosts:
    """Binomial folding-tree reduction: virtual rank v sends its
    accumulator at its lowest set bit and is done; below that bit it
    receives from v + 2^j when that exists. ``words`` is an int (every
    accumulator the same size) or, per rank, the size of the
    accumulator it sends — built-in ops broadcast, so a rank that folds
    in a larger operand sends more. The built-in sum op meters no
    flops."""
    p = spec.size
    _check_root(root, p)
    w = _counts(words, (p,)).tolist()
    tally = Tally(spec, entry)
    mask = 1
    while mask < p:
        for v in range(mask, p, mask << 1):
            src, dst = (v + root) % p, (v - mask + root) % p
            tally.sync(dst, tally.send(src, dst, w[src]))
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
    tally = Tally(spec, entry)
    k = 1 << (p.bit_length() - 1)
    # Fold: every excess rank sends down, then blocks for the unfold.
    for me in range(k, p):
        tally.sync(me - k, tally.send(me, me - k, words))
    # Doubling rounds among ranks [0, k): sendrecv = send then recv.
    mask = 1
    while mask < k:
        deps = [tally.send(me, me ^ mask, words) for me in range(k)]
        for me in range(k):
            tally.sync(me, deps[me ^ mask])
        mask <<= 1
    # Unfold: survivors hand the result back up.
    for me in range(p - k):
        tally.sync(me + k, tally.send(me, me + k, words))
    return tally.finish()


def _ring_reduce_scatter(tally: Tally, total_words) -> np.ndarray:
    """Meter the p-1 ring steps of a reduce-scatter and return the size
    of the chunk each rank r ends up owning, chunk (r + 1) mod p.

    Chunk c starts on rank c; at step s rank r ships chunk
    (r - s + 1) mod p to the right, and the receiver folds it into its
    own copy of that chunk. ``total_words`` is an int or each rank's
    own array size, split by ``array_split``. The built-in sum
    broadcasts, so a chunk travels at size 1 until it is folded with a
    rank whose own copy is not size 1, and at that size from then on.
    """
    p = tally.p
    idx = np.arange(p)
    totals = _counts(total_words, (p,))
    holder = totals[(idx + idx[:, None]) % p]  # [j, c]: total of chunk c's j-th rank
    own = holder // p + (idx < holder % p)
    sized = own != 1
    size = np.where(
        np.logical_or.accumulate(sized, axis=0),
        np.maximum.accumulate(np.where(sized, own, -1), axis=0),
        1,
    )
    s = np.arange(1, p)[:, None]
    tally.ring(size[s - 1, (idx - s + 1) % p], np.ones(p - 1, dtype=np.int64))
    return size[p - 1, (idx + 1) % p]


def oracle_reduce_scatter(spec: OracleSpec, total_words, entry=None) -> OracleCosts:
    """Ring reduce-scatter of a ``total_words``-element array (an int,
    or each rank's own size): p-1 rounds each shipping one
    ``array_split`` chunk to the right neighbor, plus one
    ownership-rotation hop — S = p sends per rank. In round s rank r
    sends chunk (r - s + 1) mod p and receives chunk (r - s) mod p; the
    rotation ships chunk (r + 1) mod p."""
    tally = Tally(spec, entry)
    if spec.size > 1:  # a lone rank keeps its array: no ring, no rotation
        tally.ring(_ring_reduce_scatter(tally, total_words), 1)
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
    tally = Tally(spec, entry)
    owned = _ring_reduce_scatter(tally, total_words).tolist()
    for r in range(p):
        if r != root:
            tally.sync(root, tally.send(r, root, 1 + owned[r]))
    return tally.finish()


def oracle_allgather(spec: OracleSpec, words, entry=None) -> OracleCosts:
    """Ring allgather of per-rank blocks (``words`` an int for uniform
    blocks or a per-rank list): p-1 rounds, in round s rank r forwards
    block (r - s) mod p and receives block (r - s - 1) mod p."""
    p = spec.size
    w = _counts(words, (p,))
    tally = Tally(spec, entry)
    s = np.arange(p - 1)[:, None]
    tally.ring(w[(np.arange(p) - s) % p], np.ones(p - 1, dtype=np.int64))
    return tally.finish()


def oracle_gather(spec: OracleSpec, words, root: int = 0, entry=None) -> OracleCosts:
    """Direct gather: every non-root sends its block straight to the
    root (p-1 receives there, order-independent clock sync)."""
    p = spec.size
    _check_root(root, p)
    w = _counts(words, (p,)).tolist()
    tally = Tally(spec, entry)
    for r in range(p):
        if r != root:
            tally.sync(root, tally.send(r, root, w[r]))
    return tally.finish()


def oracle_scatter(spec: OracleSpec, words, root: int = 0, entry=None) -> OracleCosts:
    """Direct scatter: the root sends block r to rank r in ascending
    rank order (its clock advances per send, so later destinations see
    later departures)."""
    p = spec.size
    _check_root(root, p)
    w = _counts(words, (p,)).tolist()
    tally = Tally(spec, entry)
    for r in range(p):
        if r != root:
            tally.sync(r, tally.send(root, r, w[r]))
    return tally.finish()


def oracle_alltoall(spec: OracleSpec, words, entry=None) -> OracleCosts:
    """Cyclic pairwise all-to-all: p-1 rounds, in round k rank r sends
    its block for (r + k) mod p and receives from (r - k) mod p. The
    rank's own block never touches the network. ``words`` is an int
    (uniform blocks) or a p x p matrix ``words[src][dst]``."""
    p = spec.size
    w = _counts(words, (p, p))
    tally = Tally(spec, entry)
    idx = np.arange(p)
    k = np.arange(1, p)
    tally.ring(w[idx, (idx + k[:, None]) % p], k)
    return tally.finish()


def oracle_alltoall_bruck(spec: OracleSpec, block_words, entry=None) -> OracleCosts:
    """Bruck all-to-all: log2 p rounds; in the round with mask 2^j every
    rank ships, in one message to (r + 2^j) mod p, the blocks whose
    relative-destination slot has bit j set — (p/2) * block_words words
    for uniform blocks. ``block_words`` is an int or a p x p matrix
    ``words[src][dst]``; ragged blocks are followed through the slot
    rotation (slot j of rank r starts with its block for (r + j) mod p
    and takes over what the rank 2^j to its left shipped). Requires
    p = 2^j."""
    p = spec.size
    if p & (p - 1):
        raise ParameterError(
            f"alltoall_bruck requires a power-of-two size, got {p}"
        )
    w = _counts(block_words, (p, p))
    idx = np.arange(p)
    slots = w[idx[:, None], (idx[:, None] + idx) % p]
    masks = [1 << j for j in range((p - 1).bit_length())]
    shipped = np.empty((len(masks), p), dtype=np.int64)
    for j, mask in enumerate(masks):
        ship = (idx & mask) != 0
        shipped[j] = slots[:, ship].sum(axis=1)
        slots[:, ship] = np.roll(slots[:, ship], mask, axis=0)
    tally = Tally(spec, entry)
    tally.ring(shipped, masks)
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
