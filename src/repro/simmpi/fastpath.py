"""Analytic fast path for collectives — O(1) rendezvous, oracle-metered.

The message path in :mod:`repro.simmpi.collectives` simulates every
collective faithfully: a p-rank broadcast moves p-1 envelopes through
thread mailboxes, each paying a lock, a baton hand-off between rank
threads and per-hop metering. Those envelopes exist only to produce
three observable effects — per-rank counter increments, per-rank
virtual-clock advances, and delivered payloads. When nothing is
watching the individual messages (no tracing, no fault plan, no
custom reduce op), the fast path routes the payloads directly and
takes the costs from the collective's closed form, without any
envelope ever crossing a mailbox. It has no cost arithmetic of its
own: it computes each rank's word counts from the real payloads and
calls the oracle in :mod:`repro.simmpi.closedform` with the ranks'
entry clocks (:meth:`_Ctx.meter`).

Mechanics: all ranks of the communicator meet at a
:class:`CollectiveGate` (one per communicator context, owned by the
:class:`~repro.simmpi.world.World`). Each early arriver parks on the
world's :class:`~repro.simmpi.baton.Baton`, which passes the one
runnable slot to the next ready rank. The last rank to arrive becomes
the *leader*: it resolves the whole collective once — validates the
call, routes the payloads, bulk-applies every rank's counter
increments and final virtual-clock value from the oracle (safe
because all other ranks are parked in the gate), publishes the
per-rank results and makes the parked ranks ready in ring order from
its successor. They resume one at a time, in that order, as the
baton reaches them. Cost per collective: one rendezvous plus the
routing and the oracle in a single thread, instead of O(edges)
cross-thread envelope deliveries.

The O(p²) routing has batched forms chosen from the input's own
types: a CoW all-to-all whose blocks are all plain ndarrays of one
shape (``ndim >= 1``) and one numeric dtype freezes the whole block
table once as a (p, p, *shape) buffer and hands each receiver row
views of it; a CoW allgather of plain ndarrays builds each sender's
view once and hands every receiver its own list of fresh views of
them, made in C; a reduce_scatter whose inputs share one size and
dtype runs every ring step as one fancy-indexed ``op`` call over a
(p x n) matrix. Any other input takes the per-block / per-rank form.

Equivalence contract: for every supported collective the fast path is
**bit-identical** to the message path in
``TraceReport.counts_signature()``, in every rank's virtual clock, and
in delivered payload contents — including copy-on-write read-only-view
semantics, two-level internode sub-tallies, and the exact float
association order of built-in reductions. The message path is the
independent witness: ``tests/test_fastpath.py`` and the conformance
grid (:mod:`repro.conformance`) compare the two, so a wrong closed form
shows up as a fast-path divergence
(``tests/test_fastpath.py::TestSingleClosedForm``).

Semantics note: the fast path gives every collective *synchronizing*
semantics (all ranks must arrive before any proceeds), which MPI
permits for every collective. A program that relies on a collective
NOT synchronizing (e.g. a root racing ahead of its bcast to satisfy a
peer's earlier point-to-point receive) is erroneous under the MPI
standard; it deadlocks here — reported at once by the world's baton,
naming the collective — and should run with ``fastpath=False``.
Mismatched arguments across ranks (different roots, different
collectives on the same communicator) are reported as
:class:`~repro.exceptions.CommunicatorError` instead of the message
path's eventual deadlock report — a deliberate diagnostic upgrade.

The fall-back rules live at the dispatch sites in
:mod:`repro.simmpi.collectives`: tracing, fault plans,
non-default algorithms and non-builtin reduce ops all take the real
message path, unchanged.
"""

from __future__ import annotations

import threading
from itertools import chain
from operator import attrgetter
from typing import Any, Sequence

import numpy as np

from repro.exceptions import CommunicatorError, DeadlockError, SimulationError
from repro.simmpi.closedform import (
    OracleSpec,
    oracle_allgather,
    oracle_alltoall,
    oracle_alltoall_bruck,
    oracle_barrier,
    oracle_bcast,
    oracle_gather,
    oracle_reduce,
    oracle_reduce_scatter,
    oracle_scatter,
)
from repro.simmpi.payload import copy_payload, freeze_payload, payload_words

__all__ = ["CollectiveGate", "run_collective", "resolve"]


class _Err:
    """Outcome wrapper marking 'raise this on that rank' resolutions."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException):
        self.exc = exc


class _Cycle:
    """One rendezvous generation: the published outcomes, or the abort
    mark that tells parked ranks the collective was abandoned."""

    __slots__ = ("outcomes", "aborted")

    def __init__(self):
        self.outcomes: list | None = None
        self.aborted = False


class CollectiveGate:
    """Reusable rendezvous for one communicator's rank group.

    Each collective call deposits ``(name, args)`` and parks on the
    world's baton; the last arriver resolves the whole collective (see
    :func:`resolve`), publishes per-rank outcomes through the current
    :class:`_Cycle` and makes every parked rank ready in ring order
    from its successor. The gate is cyclic: a fresh cycle is installed
    before the old one is published, and a rank can only re-arrive
    after picking up its previous outcome, so generations never
    overlap. Only one rank of the world runs at a time, so waking the
    whole group at once costs one queue append per rank.
    """

    __slots__ = ("world", "group", "size", "_lock", "_arrived", "_inputs", "_cycle")

    def __init__(self, world, group: Sequence[int]):
        self.world = world
        self.group = tuple(group)
        self.size = len(self.group)
        self._lock = threading.Lock()
        self._arrived = 0
        self._inputs: list = [None] * self.size
        self._cycle = _Cycle()

    def rendezvous(self, local_rank: int, item: tuple) -> Any:
        """Deposit this rank's call and block until the collective is
        resolved; returns (or raises) this rank's outcome."""
        with self._lock:
            cycle = self._cycle
            self._inputs[local_rank] = item
            self._arrived += 1
            if self._arrived == self.size:
                inputs = self._inputs
                self._inputs = [None] * self.size
                self._arrived = 0
                self._cycle = _Cycle()
                try:
                    cycle.outcomes = resolve(self.world, self.group, inputs)
                finally:
                    if cycle.outcomes is None:  # resolver unwound (defensive)
                        cycle.outcomes = [
                            _Err(SimulationError("collective resolution failed"))
                        ] * self.size
                    group = self.group
                    self.world.baton.ready_many(
                        group[(local_rank + i) % self.size]
                        for i in range(1, self.size)
                    )
                return self._pick(cycle, local_rank)
            aborted = cycle.aborted  # World.abort() already swept this cycle
        # Parked path: world.abort() wakes every parked rank, and a
        # genuine never-arriving peer is a deadlock the baton reports
        # at once.
        baton = self.world.baton
        me = self.group[local_rank]
        waits_on = ("collective", item[0])
        while not aborted:
            baton.block(me, waits_on)
            if cycle.outcomes is not None:
                return self._pick(cycle, local_rank)
            # Woken by an abort (give up) or by a crash elsewhere
            # (mark_dead: park again).
            aborted = cycle.aborted
        raise DeadlockError(
            f"rank {me}: collective abandoned because a peer rank failed"
        )

    @staticmethod
    def _pick(cycle: _Cycle, local_rank: int) -> Any:
        out = cycle.outcomes[local_rank]
        if type(out) is _Err:
            raise out.exc
        return out

    def interrupt(self) -> None:
        """Mark the open rendezvous abandoned (called by
        :meth:`~repro.simmpi.world.World.abort` before it wakes every
        parked rank). Woken ranks that find ``outcomes`` still None
        and ``aborted`` set give up; ranks arriving later see the flag
        and never park."""
        with self._lock:
            self._cycle.aborted = True


def run_collective(comm, name: str, args: tuple) -> Any:
    """Entry point used by the dispatchers in
    :mod:`repro.simmpi.collectives` once a call has been deemed
    eligible (``comm._gate`` is set and per-call conditions hold)."""
    return comm._gate.rendezvous(comm.rank, (name, args))


# -- resolution ----------------------------------------------------------


class _Ctx:
    """Per-resolution view of the world restricted to one rank group."""

    __slots__ = ("group", "p", "cow", "counters", "spec")

    def __init__(self, world, group: tuple):
        self.group = group
        self.p = len(group)
        self.cow = world.copy_on_write
        self.counters = [world.counters[w] for w in group]
        self.spec = OracleSpec(
            self.p,
            max_message_words=world.max_message_words,
            machine=world.machine,
            node_size=world.node_size,
            ranks=group,
        )

    def meter(self, oracle, *args, **kwargs) -> None:
        """Land the collective's costs: its oracle, evaluated from the
        ranks' entry clocks, gives every rank's tallies and exit clock,
        applied in one bulk call per rank."""
        counters = self.counters
        costs = oracle(self.spec, *args, entry=[c.vtime for c in counters], **kwargs)
        for counter, rc in zip(counters, costs.ranks):
            counter.apply_bulk(
                words_sent=rc.words_sent,
                messages_sent=rc.messages_sent,
                words_received=rc.words_received,
                messages_received=rc.messages_received,
                words_sent_internode=rc.words_sent_internode,
                messages_sent_internode=rc.messages_sent_internode,
                words_received_internode=rc.words_received_internode,
                messages_received_internode=rc.messages_received_internode,
                vtime=rc.vtime,
            )


def _pack(ctx: _Ctx, obj: Any):
    """(frozen-or-None, words) of a payload — the one freeze a CoW send
    chain pays, or a traversal word count for legacy copy worlds."""
    if ctx.cow:
        fp = freeze_payload(obj)
        return fp, fp.words
    return None, payload_words(obj)


def _deliver(ctx: _Ctx, fp, obj: Any) -> Any:
    """What one receiver ends up holding: a fresh read-only view of the
    frozen buffer (CoW) or its own deep copy (legacy copy mode)."""
    if ctx.cow:
        return fp.view()
    return copy_payload(obj)


def _numeric(dtype: np.dtype) -> bool:
    """Native-order bool/int/float/complex: the dtypes the batched
    resolvers stack (arithmetic on them keeps the dtype)."""
    return dtype.kind in "biufc" and dtype.isnative


def _all_err(p: int, exc: BaseException) -> list:
    return [_Err(exc)] * p


def _partial_err(ctx: _Ctx, errs: dict[int, BaseException]) -> list:
    """Per-rank failures: the named ranks raise their own exceptions,
    everyone else is abandoned exactly like a receiver whose peer
    failed (the engine then reports the named errors as primary)."""
    out: list = []
    for i in range(ctx.p):
        if i in errs:
            out.append(_Err(errs[i]))
        else:
            out.append(
                _Err(
                    DeadlockError(
                        f"rank {ctx.group[i]}: collective abandoned because a "
                        "peer rank failed"
                    )
                )
            )
    return out


def _check_common_root(ctx: _Ctx, argslist: list, root_index: int):
    """Validate the root argument: in range (every rank raises, exactly
    like the per-rank ``_check_root``) and identical across ranks (the
    message path would deadlock on mismatched tags; the fast path
    upgrades that to an immediate diagnostic)."""
    roots = {args[root_index] for args in argslist}
    if len(roots) != 1:
        return None, _all_err(
            ctx.p,
            CommunicatorError(
                f"collective root mismatch across ranks: {sorted(roots)!r}"
            ),
        )
    root = roots.pop()
    if not 0 <= root < ctx.p:
        return None, _all_err(
            ctx.p, CommunicatorError(f"root {root} out of range for size {ctx.p}")
        )
    return root, None


# -- per-collective resolvers -------------------------------------------


def _resolve_barrier(ctx: _Ctx, argslist: list) -> list:
    ctx.meter(oracle_barrier)
    return [None] * ctx.p


def _resolve_bcast(ctx: _Ctx, argslist: list) -> list:
    p = ctx.p
    root, err = _check_common_root(ctx, argslist, 1)
    if err is not None:
        return err
    obj = argslist[root][0]
    fp, w = _pack(ctx, obj)
    ctx.meter(oracle_bcast, w, root=root)
    return [_deliver(ctx, fp, obj) for _ in range(p)]


def _resolve_reduce(ctx: _Ctx, argslist: list) -> list:
    p = ctx.p
    root, err = _check_common_root(ctx, argslist, 2)
    if err is not None:
        return err
    op = argslist[root][1]
    # Accumulators in vrank order, starting from each rank's private copy.
    accs: list = [copy_payload(argslist[(v + root) % p][0]) for v in range(p)]
    sent = [0] * p  # words of the accumulator each rank sends
    mask = 1
    while mask < p:
        for me in range(0, p - mask, mask << 1):
            s = me + mask
            sent[(s + root) % p] = payload_words(accs[s])
            try:
                accs[me] = op(accs[me], accs[s])
            except Exception as exc:
                return _partial_err(ctx, {(me + root) % p: exc})
            accs[s] = None  # that rank has exited the tree
        mask <<= 1
    ctx.meter(oracle_reduce, sent, root=root)
    out: list = [None] * p
    out[root] = accs[0]
    return out


def _resolve_reduce_scatter(ctx: _Ctx, argslist: list) -> list:
    bad = {
        i: CommunicatorError(
            f"reduce_scatter needs an ndarray payload, got {type(args[0]).__name__}"
        )
        for i, args in enumerate(argslist)
        if not isinstance(args[0], np.ndarray)
    }
    if bad:
        return _partial_err(ctx, bad)
    op = argslist[0][1]
    arrays = [args[0] for args in argslist]
    first = arrays[0]
    if _numeric(first.dtype) and all(
        a.size == first.size and a.dtype == first.dtype for a in arrays
    ):
        out = _reduce_scatter_stacked(ctx, arrays, op)
    else:
        out = _reduce_scatter_per_rank(ctx, arrays, op)
    if type(out[0]) is not _Err:
        ctx.meter(oracle_reduce_scatter, [a.size for a in arrays])
    return out


def _reduce_scatter_stacked(ctx: _Ctx, arrays: list, op) -> list:
    """The ring for equal-size, equal-dtype inputs, all ranks at once.

    Row r of a (p x n) matrix is rank r's accumulator. At step s chunk
    c is reduced on rank (c + s) % p with the chunk its left neighbour
    ships, so one fancy-indexed ``op`` call per step applies exactly
    the per-rank loop's ``acc + inc`` to every element, in the same
    order.
    """
    p, n = ctx.p, arrays[0].size
    acc = np.empty((p, n), dtype=arrays[0].dtype)
    for r, a in enumerate(arrays):
        acc[r] = a.ravel()
    flat = acc.reshape(-1)
    idx = np.arange(p)
    sizes = n // p + (idx < n % p)  # np.array_split's chunk sizes
    starts = np.cumsum(sizes) - sizes
    chunk = np.repeat(idx, sizes)  # column -> chunk index
    cols = np.arange(n)
    for s in range(1, p):
        dst = (chunk + s) % p * n + cols
        src = (chunk + s - 1) % p * n + cols
        flat[dst] = op(flat[dst], flat[src])
    # Ownership rotation: rank r ships its reduced chunk (r+1)%p right,
    # so rank r ends with chunk r, reduced on rank r - 1.
    result = flat[(chunk - 1) % p * n + cols]
    if ctx.cow:
        result = freeze_payload(result).view()
        return [result[a : a + k] for a, k in zip(starts, sizes)]
    return [copy_payload(result[a : a + k]) for a, k in zip(starts, sizes)]


def _reduce_scatter_per_rank(ctx: _Ctx, arrays: list, op) -> list:
    """The ring one rank at a time (unequal sizes or dtypes: chunks may
    not line up, and ``op`` may fail on some ranks only).

    Failures follow the message path: a rank whose ``op`` raises stops
    sending, so its right neighbour blocks at the next step, while every
    other rank that still gets its chunk at that step runs its own
    ``op`` (and may fail too).
    """
    p = ctx.p
    accs = [[np.array(c, copy=True) for c in np.array_split(a.ravel(), p)] for a in arrays]
    live = [True] * p
    errs: dict[int, BaseException] = {}
    for s in range(1, p):
        sent = [accs[r][(r - s + 1) % p] for r in range(p)]
        senders = list(live)
        for r in range(p):
            if not (senders[r] and senders[(r - 1) % p]):
                live[r] = False  # failed earlier, or its chunk never comes
                continue
            recv_idx = (r - s) % p
            try:
                accs[r][recv_idx] = op(accs[r][recv_idx], sent[(r - 1) % p])
            except Exception as exc:
                errs[r] = exc
                live[r] = False
    if errs:
        return _partial_err(ctx, errs)
    # Ownership rotation: rank r ships its reduced chunk (r+1)%p right.
    out: list = []
    for r in range(p):
        chunk = accs[(r - 1) % p][r]
        fp = freeze_payload(chunk) if ctx.cow else None
        out.append(_deliver(ctx, fp, chunk))
    return out


def _resolve_allgather(ctx: _Ctx, argslist: list) -> list:
    """Every rank receives every rank's payload.

    In a CoW world where every payload is a plain ndarray, each
    sender's read-only view is built once and every receiver gets its
    own list of fresh views of them, made in C: p view calls from
    Python instead of p². Any other input is delivered block by block.
    """
    p = ctx.p
    objs = [args[0] for args in argslist]
    packs = [_pack(ctx, obj) for obj in objs]
    ctx.meter(oracle_allgather, [words for _fp, words in packs])
    if ctx.cow and set(map(type, objs)) == {np.ndarray}:
        views = [fp.view() for fp, _w in packs]
        return [list(map(np.ndarray.view, views)) for _ in range(p)]
    return [
        [_deliver(ctx, fp, obj) for obj, (fp, _w) in zip(objs, packs)]
        for _ in range(p)
    ]


def _resolve_gather(ctx: _Ctx, argslist: list) -> list:
    p = ctx.p
    root, err = _check_common_root(ctx, argslist, 1)
    if err is not None:
        return err
    packs = [_pack(ctx, args[0]) for args in argslist]
    ctx.meter(oracle_gather, [words for _fp, words in packs], root=root)
    out: list = [None] * p
    out[root] = [_deliver(ctx, fp, argslist[r][0]) for r, (fp, _w) in enumerate(packs)]
    return out


def _resolve_scatter(ctx: _Ctx, argslist: list) -> list:
    p = ctx.p
    root, err = _check_common_root(ctx, argslist, 1)
    if err is not None:
        return err
    objs = argslist[root][0]
    if objs is None or len(objs) != p:
        return _partial_err(
            ctx,
            {
                root: CommunicatorError(
                    f"scatter root needs a length-{p} sequence, got "
                    f"{None if objs is None else len(objs)}"
                )
            },
        )
    packs = [_pack(ctx, objs[r]) for r in range(p)]
    ctx.meter(oracle_scatter, [words for _fp, words in packs], root=root)
    return [_deliver(ctx, packs[r][0], objs[r]) for r in range(p)]


_SHAPE = attrgetter("shape")
_DTYPE = attrgetter("dtype")


def _uniform_blocks(blocks: list) -> bool:
    """True when every block of the flattened table is a plain ndarray
    of one shape (ndim >= 1) and one numeric dtype, so the table stacks
    into one array whose rows index back into blocks (0-d blocks would
    come back as numpy scalars). Each scan runs in C, with no Python
    frame per block."""
    if set(map(type, blocks)) != {np.ndarray}:
        return False
    first = blocks[0]
    if first.ndim == 0 or not _numeric(first.dtype):
        return False
    return (
        set(map(_SHAPE, blocks)) == {first.shape}
        and set(map(_DTYPE, blocks)) == {first.dtype}
    )


def _pack_table(ctx: _Ctx, table: list):
    """Words ``W[src, dst]`` of an all-to-all block table, and what each
    rank receives, indexed ``[dst][src]``.

    In a CoW world a uniform table (see :func:`_uniform_blocks`) is
    stacked by one ``np.concatenate`` and frozen once as a single
    (p, p, *shape) buffer, and every receiver gets read-only views of
    its column: one copy for the whole collective instead of p²
    freezes. Any other table is packed block by block.
    """
    p = ctx.p
    blocks = list(chain.from_iterable(table))
    if ctx.cow and _uniform_blocks(blocks):
        shape = blocks[0].shape
        stacked = np.concatenate(blocks).reshape(p, p, *shape)
        frozen = freeze_payload(stacked).view()
        W = np.full((p, p), stacked[0, 0].size, dtype=np.int64)
        return W, [list(frozen[:, dst]) for dst in range(p)]
    packs = [[_pack(ctx, block) for block in row] for row in table]
    W = np.array([[words for _fp, words in row] for row in packs], dtype=np.int64)
    received = [
        [_deliver(ctx, packs[src][dst][0], table[src][dst]) for src in range(p)]
        for dst in range(p)
    ]
    return W, received


def _exchange(ctx: _Ctx, argslist: list, name: str, oracle) -> list:
    """An all-to-all: per-rank errors for ranks that did not pass one
    block per destination, else the routed blocks, metered by
    ``oracle`` from the block-words table."""
    p = ctx.p
    bad = {
        i: CommunicatorError(
            f"{name} needs one block per rank ({p}), got {len(args[0])}"
        )
        for i, args in enumerate(argslist)
        if len(args[0]) != p
    }
    if bad:
        return _partial_err(ctx, bad)
    w, received = _pack_table(ctx, [args[0] for args in argslist])
    ctx.meter(oracle, w)
    return received


def _resolve_alltoall(ctx: _Ctx, argslist: list) -> list:
    return _exchange(ctx, argslist, "alltoall", oracle_alltoall)


def _resolve_alltoall_bruck(ctx: _Ctx, argslist: list) -> list:
    p = ctx.p
    if p & (p - 1):
        return _all_err(
            p,
            CommunicatorError(
                f"alltoall_bruck requires a power-of-two size, got {p}"
            ),
        )
    return _exchange(ctx, argslist, "alltoall_bruck", oracle_alltoall_bruck)


_RESOLVERS = {
    "barrier": _resolve_barrier,
    "bcast": _resolve_bcast,
    "reduce": _resolve_reduce,
    "reduce_scatter": _resolve_reduce_scatter,
    "allgather": _resolve_allgather,
    "gather": _resolve_gather,
    "scatter": _resolve_scatter,
    "alltoall": _resolve_alltoall,
    "alltoall_bruck": _resolve_alltoall_bruck,
}


def resolve(world, group: tuple, inputs: list) -> list:
    """Leader-side resolution of one collective call for a whole group.

    ``inputs[i]`` is local rank i's deposited ``(name, args)``. Returns
    one outcome per rank: a value to return, or an :class:`_Err` to
    raise. Never raises itself — resolution failures become per-rank
    errors so the gate can never wedge its waiters.
    """
    p = len(group)
    names = {name for name, _args in inputs}
    if len(names) != 1:
        return _all_err(
            p,
            CommunicatorError(
                "collective mismatch on fast path: ranks concurrently called "
                f"{sorted(names)!r} on the same communicator"
            ),
        )
    ctx = _Ctx(world, group)
    try:
        return _RESOLVERS[inputs[0][0]](ctx, [args for _name, args in inputs])
    except BaseException as exc:  # noqa: BLE001 - delivered to every rank
        return _all_err(p, exc)
