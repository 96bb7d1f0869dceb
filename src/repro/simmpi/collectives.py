"""Collective communication algorithms, built on metered point-to-point.

Every collective here is implemented with real message-passing
algorithms so the simulator's word/message tallies reflect what a
production MPI would do:

=============== ======================= =============================
collective      algorithm               per-rank cost (k-word payload)
=============== ======================= =============================
barrier         dissemination           S = ceil(log2 p), W = 0
bcast           binomial doubling tree  S <= log2 p, W <= k log2 p (root k)
reduce          binomial folding tree   S <= log2 p, W <= k log2 p
allreduce       reduce + bcast          2x the above
reduce_scatter  ring + ownership rotate S = p, W ~ k (p sends of k/p)
allgather       ring                    S = p-1, W = (p-1) k
gather          direct to root          1 send / p-1 recvs
scatter         direct from root        p-1 sends / 1 recv
alltoall        cyclic pairwise         S = p-1, W = (p-1) k
alltoall_bruck  Bruck (p = 2^j)         S = log2 p, W = (p/2) k log2 p
=============== ======================= =============================

(k here is the per-destination block size for the all-to-alls.)

When the world runs without per-message observers (no tracing, no
fault plan) a collective called with its default algorithm
and the built-in :func:`sum_op` dispatches to the analytic fast path
(:mod:`repro.simmpi.fastpath`) instead of the envelope simulation
below — same counts, virtual clocks and payloads, resolved once per
communicator instead of once per envelope. Non-default algorithms,
custom reduce ops, and worlds created with ``fastpath=False`` always
take the message path.

The two all-to-all variants realize the FFT trade-off of Section IV: the
cyclic pairwise exchange is the "naive" W = n/p, S = p choice and Bruck
is the "tree-based" W = n log p / p, S = log p choice.

Reduction operators receive ``(accumulator, incoming)`` and must return
the combined value; the built-in :func:`sum_op` adds ndarrays and
scalars without metering flops — reduction arithmetic is free in the
model, matching the paper's cost table (communication only). The
closed forms in this table are executable in
:mod:`repro.simmpi.closedform`; the fast path takes its costs from
them, and the envelope simulation below is the independent witness
the ``repro conformance`` differential harness checks both against,
cell by cell.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.exceptions import CommunicatorError
from repro.simmpi import fastpath as _fastpath
from repro.simmpi.events import collective_span
from repro.simmpi.payload import copy_payload, freeze_payload

__all__ = [
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "reduce_scatter",
    "allgather",
    "gather",
    "scatter",
    "alltoall",
    "alltoall_bruck",
    "sum_op",
]

ReduceOp = Callable[[Any, Any], Any]


def sum_op(acc: Any, inc: Any) -> Any:
    """Elementwise sum reduction for arrays and scalars."""
    return acc + inc


def _share(comm, obj: Any) -> Any:
    """A rank's own contribution entering a collective's result.

    In a copy-on-write world this freezes the payload *once* and hands
    back a read-only view — the same aliasing contract receivers get —
    so subsequent relay sends of the same data are adopted without any
    further copy. Legacy copy worlds deep-copy, exactly as before.
    """
    if comm.copy_on_write:
        return freeze_payload(obj).view()
    return copy_payload(obj)


def _vrank(rank: int, root: int, size: int) -> int:
    return (rank - root) % size


def _wrank(vrank: int, root: int, size: int) -> int:
    return (vrank + root) % size


def barrier(comm) -> None:
    """Dissemination barrier: ceil(log2 p) zero-word rounds."""
    if comm._gate is not None:
        _fastpath.run_collective(comm, "barrier", ())
        return
    with collective_span(comm, "barrier"):
        _barrier_impl(comm)


def _barrier_impl(comm) -> None:
    p = comm.size
    if p == 1:
        return
    step = 1
    while step < p:
        dest = (comm.rank + step) % p
        src = (comm.rank - step) % p
        comm.send(None, dest, tag=("_barrier", step))
        comm.recv(src, tag=("_barrier", step))
        step <<= 1


def bcast(comm, obj: Any, root: int = 0, algorithm: str = "binomial") -> Any:
    """Broadcast; returns the object on every rank.

    algorithm:
      * "binomial" (default) — log2 p rounds; the root sends up to
        log2 p copies (best for small payloads).
      * "scatter_allgather" — van de Geijn large-message broadcast: the
        root scatters p chunks, then a ring allgather reassembles them.
        Per-rank traffic ~2x the payload *independent of p* — the
        large-message cost the paper's W expressions assume. Requires an
        ndarray payload on the root.
    """
    if comm._gate is not None and algorithm == "binomial":
        return _fastpath.run_collective(comm, "bcast", (obj, root))
    with collective_span(comm, "bcast", algorithm):
        return _bcast_impl(comm, obj, root, algorithm)


def _bcast_impl(comm, obj: Any, root: int, algorithm: str) -> Any:
    p = comm.size
    _check_root(root, p)
    if p == 1:
        return _share(comm, obj)
    if algorithm == "scatter_allgather":
        return _bcast_scatter_allgather(comm, obj, root)
    if algorithm != "binomial":
        raise CommunicatorError(f"unknown bcast algorithm {algorithm!r}")
    me = _vrank(comm.rank, root, p)
    if me == 0:
        # Detach the result from the caller's buffer once, up front: in a
        # CoW world this is the single freeze the whole tree shares (all
        # of the root's sends adopt it), in a copy world it is the root's
        # private copy the seed implementation made at the end.
        obj = _share(comm, obj)
    mask = 1
    while mask < p:
        if me < mask:
            peer = me + mask
            if peer < p:
                comm.send(obj, _wrank(peer, root, p), tag=("_bcast", mask))
        elif me < 2 * mask:
            obj = comm.recv(_wrank(me - mask, root, p), tag=("_bcast", mask))
        mask <<= 1
    return obj


def _bcast_scatter_allgather(comm, obj: Any, root: int) -> Any:
    p = comm.size
    if comm.rank == root:
        if not isinstance(obj, np.ndarray):
            raise CommunicatorError(
                "scatter_allgather bcast needs an ndarray payload, got "
                f"{type(obj).__name__}"
            )
        shape, dtype = obj.shape, obj.dtype
        chunks = np.array_split(np.ascontiguousarray(obj).ravel(), p)
        meta = (shape, str(dtype), [len(c) for c in chunks])
    else:
        chunks = meta = None
    # Tiny metadata rides a binomial bcast (metered: a few words).
    meta = bcast(comm, meta, root=root, algorithm="binomial")
    shape, dtype, lengths = meta
    my_chunk = scatter(comm, chunks, root=root)
    pieces = allgather(comm, my_chunk)
    flat = np.concatenate(pieces)
    return flat.reshape(shape).astype(dtype, copy=False)


def reduce(
    comm, obj: Any, op: ReduceOp = sum_op, root: int = 0, algorithm: str = "binomial"
) -> Any:
    """Reduction; the combined value lands on ``root`` (None elsewhere).

    algorithm:
      * "binomial" (default) — log2 p rounds, each moving the whole
        payload (best for small payloads).
      * "reduce_scatter_gather" — ring reduce-scatter followed by a
        gather of the owned chunks: per-rank traffic ~2x the payload
        independent of p (the large-message regime of the models).
        Requires ndarray payloads and the default sum op.
    """
    if comm._gate is not None and algorithm == "binomial" and op is sum_op:
        return _fastpath.run_collective(comm, "reduce", (obj, op, root))
    with collective_span(comm, "reduce", algorithm):
        return _reduce_impl(comm, obj, op, root, algorithm)


def _reduce_impl(comm, obj: Any, op: ReduceOp, root: int, algorithm: str) -> Any:
    p = comm.size
    _check_root(root, p)
    if algorithm == "reduce_scatter_gather":
        return _reduce_scatter_gather(comm, obj, op, root)
    if algorithm != "binomial":
        raise CommunicatorError(f"unknown reduce algorithm {algorithm!r}")
    acc = copy_payload(obj)
    if p == 1:
        return acc
    me = _vrank(comm.rank, root, p)
    mask = 1
    while mask < p:
        if me & mask:
            comm.send(acc, _wrank(me - mask, root, p), tag=("_reduce", mask))
            return None
        peer = me + mask
        if peer < p:
            inc = comm.recv(_wrank(peer, root, p), tag=("_reduce", mask))
            acc = op(acc, inc)
        mask <<= 1
    return acc if comm.rank == root else None


def _reduce_scatter_gather(comm, obj: Any, op: ReduceOp, root: int) -> Any:
    p = comm.size
    if not isinstance(obj, np.ndarray):
        raise CommunicatorError(
            "reduce_scatter_gather needs an ndarray payload, got "
            f"{type(obj).__name__}"
        )
    if p == 1:
        return copy_payload(obj)
    r = comm.rank
    shape, dtype = obj.shape, obj.dtype
    acc = [np.array(c, copy=True) for c in np.array_split(obj.ravel(), p)]
    right, left = (r + 1) % p, (r - 1) % p
    # Ring reduce-scatter: after p-1 steps rank r owns reduced chunk (r+1)%p.
    for s in range(1, p):
        send_idx = (r - s + 1) % p
        recv_idx = (r - s) % p
        comm.send(acc[send_idx], right, tag=("_rsg", s))
        incoming = comm.recv(left, tag=("_rsg", s))
        acc[recv_idx] = op(acc[recv_idx], incoming)
    owned_idx = (r + 1) % p
    # Gather the owned chunks at the root.
    if r != root:
        comm.send((owned_idx, acc[owned_idx]), root, tag="_rsg_gather")
        return None
    chunks: list = [None] * p
    chunks[owned_idx] = acc[owned_idx]
    for src in range(p):
        if src != root:
            idx, chunk = comm.recv(src, tag="_rsg_gather")
            chunks[idx] = chunk
    return np.concatenate(chunks).reshape(shape).astype(dtype, copy=False)


def allreduce(
    comm, obj: Any, op: ReduceOp = sum_op, algorithm: str = "reduce_bcast"
) -> Any:
    """All-reduce: the combined value on every rank.

    algorithm:
      * "reduce_bcast" (default) — binomial reduce then broadcast
        (2 log2 p rounds, works for any op/payload).
      * "recursive_doubling" — log2 p rounds of pairwise exchanges, each
        moving the whole payload both ways; non-power-of-two sizes fold
        the excess ranks in/out first. Halves the root bottleneck and
        the round count for large payloads.
    """
    with collective_span(comm, "allreduce", algorithm):
        if algorithm == "reduce_bcast":
            return bcast(comm, reduce(comm, obj, op=op, root=0), root=0)
        if algorithm != "recursive_doubling":
            raise CommunicatorError(f"unknown allreduce algorithm {algorithm!r}")
        return _allreduce_recursive_doubling(comm, obj, op)


def _allreduce_recursive_doubling(comm, obj: Any, op: ReduceOp) -> Any:
    p = comm.size
    acc = copy_payload(obj)
    if p == 1:
        return acc
    # Largest power of two <= p; extras fold into the lower half first.
    k = 1
    while k * 2 <= p:
        k *= 2
    me = comm.rank
    extra = p - k
    if me >= k:
        comm.send(acc, me - k, tag=("_rd", "fold"))
        return comm.recv(me - k, tag=("_rd", "unfold"))
    if me < extra:
        inc = comm.recv(me + k, tag=("_rd", "fold"))
        acc = op(acc, inc)
    mask = 1
    while mask < k:
        partner = me ^ mask
        inc = comm.sendrecv(
            acc, partner, partner, sendtag=("_rd", mask), recvtag=("_rd", mask)
        )
        acc = op(acc, inc)
        mask <<= 1
    if me < extra:
        comm.send(acc, me + k, tag=("_rd", "unfold"))
    return acc


def reduce_scatter(comm, obj: Any, op: ReduceOp = sum_op) -> Any:
    """Ring reduce-scatter: every rank ends with its own fully reduced
    chunk of the elementwise sum (rank r owns chunk r of the p-way
    array_split). ndarray payloads only; p-1 rounds of size/p words —
    the building block of the large-message reduce.
    """
    if comm._gate is not None and op is sum_op:
        return _fastpath.run_collective(comm, "reduce_scatter", (obj, op))
    with collective_span(comm, "reduce_scatter", "ring"):
        return _reduce_scatter_impl(comm, obj, op)


def _reduce_scatter_impl(comm, obj: Any, op: ReduceOp) -> Any:
    p = comm.size
    if not isinstance(obj, np.ndarray):
        raise CommunicatorError(
            f"reduce_scatter needs an ndarray payload, got {type(obj).__name__}"
        )
    if p == 1:
        return copy_payload(obj)
    r = comm.rank
    acc = [np.array(c, copy=True) for c in np.array_split(obj.ravel(), p)]
    right, left = (r + 1) % p, (r - 1) % p
    for s in range(1, p):
        send_idx = (r - s + 1) % p
        recv_idx = (r - s) % p
        comm.send(acc[send_idx], right, tag=("_rs", s))
        incoming = comm.recv(left, tag=("_rs", s))
        acc[recv_idx] = op(acc[recv_idx], incoming)
    # After p-1 steps rank r holds reduced chunk (r+1)%p; rotate the
    # ownership index so rank r reports chunk r (one extra hop).
    owned = acc[(r + 1) % p]
    comm.send(owned, right, tag=("_rs", "rot"))
    return comm.recv(left, tag=("_rs", "rot"))


def allgather(comm, obj: Any) -> list:
    """Ring allgather: p-1 rounds, each forwarding one block.

    Returns the list of every rank's contribution, indexed by rank.
    """
    if comm._gate is not None:
        return _fastpath.run_collective(comm, "allgather", (obj,))
    with collective_span(comm, "allgather", "ring"):
        return _allgather_impl(comm, obj)


def _allgather_impl(comm, obj: Any) -> list:
    p = comm.size
    out: list = [None] * p
    # One freeze here is the only copy a CoW allgather pays: every ring
    # forward of this block (and of the blocks received from the left,
    # already frozen) is adopted without copying.
    out[comm.rank] = _share(comm, obj)
    if p == 1:
        return out
    right = (comm.rank + 1) % p
    left = (comm.rank - 1) % p
    carrying = comm.rank
    block = out[comm.rank]
    for step in range(p - 1):
        comm.send(block, right, tag=("_allgather", step))
        block = comm.recv(left, tag=("_allgather", step))
        carrying = (carrying - 1) % p
        out[carrying] = block
    return out


def gather(comm, obj: Any, root: int = 0) -> list | None:
    """Direct gather to root; returns the rank-indexed list on root."""
    if comm._gate is not None:
        return _fastpath.run_collective(comm, "gather", (obj, root))
    with collective_span(comm, "gather", "direct"):
        return _gather_impl(comm, obj, root)


def _gather_impl(comm, obj: Any, root: int) -> list | None:
    p = comm.size
    _check_root(root, p)
    if comm.rank != root:
        comm.send(obj, root, tag="_gather")
        return None
    out: list = [None] * p
    out[root] = _share(comm, obj)
    for r in range(p):
        if r != root:
            out[r] = comm.recv(r, tag="_gather")
    return out


def scatter(comm, objs: Sequence[Any] | None, root: int = 0) -> Any:
    """Direct scatter from root; rank r receives ``objs[r]``."""
    if comm._gate is not None:
        return _fastpath.run_collective(comm, "scatter", (objs, root))
    with collective_span(comm, "scatter", "direct"):
        return _scatter_impl(comm, objs, root)


def _scatter_impl(comm, objs: Sequence[Any] | None, root: int) -> Any:
    p = comm.size
    _check_root(root, p)
    if comm.rank == root:
        if objs is None or len(objs) != p:
            raise CommunicatorError(
                f"scatter root needs a length-{p} sequence, got "
                f"{None if objs is None else len(objs)}"
            )
        for r in range(p):
            if r != root:
                comm.send(objs[r], r, tag="_scatter")
        return _share(comm, objs[root])
    return comm.recv(root, tag="_scatter")


def alltoall(comm, blocks: Sequence[Any]) -> list:
    """Cyclic pairwise all-to-all: rank r sends ``blocks[d]`` to d.

    p-1 rounds; in round k each rank exchanges with (rank + k) mod p /
    (rank - k) mod p. This is the FFT section's "naive" all-to-all:
    every rank sends p-1 separate messages.
    """
    if comm._gate is not None:
        return _fastpath.run_collective(comm, "alltoall", (blocks,))
    with collective_span(comm, "alltoall", "pairwise"):
        return _alltoall_impl(comm, blocks)


def _alltoall_impl(comm, blocks: Sequence[Any]) -> list:
    p = comm.size
    if len(blocks) != p:
        raise CommunicatorError(
            f"alltoall needs one block per rank ({p}), got {len(blocks)}"
        )
    out: list = [None] * p
    out[comm.rank] = _share(comm, blocks[comm.rank])
    for k in range(1, p):
        dest = (comm.rank + k) % p
        src = (comm.rank - k) % p
        comm.send(blocks[dest], dest, tag=("_a2a", k))
        out[src] = comm.recv(src, tag=("_a2a", k))
    return out


def alltoall_bruck(comm, blocks: Sequence[Any]) -> list:
    """Bruck all-to-all: log2 p rounds of bulk exchanges (p must be 2^j).

    In round k (mask 2^k) each rank ships every block whose relative
    destination has bit k set — p/2 blocks per round — to the rank
    mask steps away. Message count log2 p at the price of each word
    traveling up to log2 p hops: the FFT section's "tree-based"
    all-to-all (W = (p/2)·k·log2 p, S = log2 p per rank).
    """
    if comm._gate is not None:
        return _fastpath.run_collective(comm, "alltoall_bruck", (blocks,))
    with collective_span(comm, "alltoall", "bruck"):
        return _alltoall_bruck_impl(comm, blocks)


def _alltoall_bruck_impl(comm, blocks: Sequence[Any]) -> list:
    p = comm.size
    if p & (p - 1):
        raise CommunicatorError(f"alltoall_bruck requires a power-of-two size, got {p}")
    if len(blocks) != p:
        raise CommunicatorError(
            f"alltoall_bruck needs one block per rank ({p}), got {len(blocks)}"
        )
    # Phase 1: local rotation so slot j holds the block for relative rank j.
    # In a CoW world each block is frozen once here; the log p rounds of
    # bulk re-shipping below then adopt the frozen buffers copy-free.
    work: list = [_share(comm, blocks[(comm.rank + j) % p]) for j in range(p)]
    # Phase 2: log p exchange rounds.
    mask = 1
    rnd = 0
    while mask < p:
        dest = (comm.rank + mask) % p
        src = (comm.rank - mask) % p
        ship_idx = [j for j in range(p) if j & mask]
        comm.send([work[j] for j in ship_idx], dest, tag=("_bruck", rnd))
        arrived = comm.recv(src, tag=("_bruck", rnd))
        for j, item in zip(ship_idx, arrived):
            work[j] = item
        mask <<= 1
        rnd += 1
    # Phase 3: inverse rotation into absolute source order.
    out: list = [None] * p
    for j in range(p):
        out[(comm.rank - j) % p] = work[j]
    return out


def _check_root(root: int, size: int) -> None:
    if not 0 <= root < size:
        raise CommunicatorError(f"root {root} out of range for size {size}")
