"""Analytic fast path for collectives — O(1) rendezvous, closed-form meters.

The message path in :mod:`repro.simmpi.collectives` simulates every
collective faithfully: a p-rank broadcast moves p-1 envelopes through
thread mailboxes, each paying a lock, a baton hand-off between rank
threads and per-hop metering. Those envelopes exist only to produce
three observable effects — per-rank counter increments, per-rank
virtual-clock advances, and delivered payloads. When nothing is
watching the individual messages (no tracing, no fault plan, no
custom reduce op), all three can be computed *analytically*
from the same recurrences the binomial/ring/Bruck algorithms induce,
without any envelope ever crossing a mailbox.

Mechanics: all ranks of the communicator meet at a
:class:`CollectiveGate` (one per communicator context, owned by the
:class:`~repro.simmpi.world.World`). Each early arriver parks on the
world's :class:`~repro.simmpi.baton.Baton`, which passes the one
runnable slot to the next ready rank. The last rank to arrive becomes
the *leader*: it resolves the whole collective once — validates the
call, walks the algorithm's communication pattern in closed form,
bulk-applies every rank's counter increments and final virtual-clock
value (safe because all other ranks are parked in the gate), publishes
the per-rank results and makes the parked ranks ready in ring order
from its successor. They resume one at a time, in that order, as the
baton reaches them. Cost per collective: one rendezvous plus the
pattern's arithmetic in a single thread, instead of O(edges)
cross-thread envelope deliveries.

The arithmetic is vectorised over ranks where it can be. Ring steps
(barrier, allgather, reduce_scatter, each Bruck round) meter all p
ranks with one numpy update (:meth:`_Meter.ring`). The O(p²)
resolvers have batched forms chosen from the input's own types: a CoW
all-to-all whose blocks are all plain ndarrays of one shape
(``ndim >= 1``) and one numeric dtype freezes the whole block table
once as a (p, p, *shape) buffer and hands each receiver row views of
it; a reduce_scatter whose inputs share one size and dtype runs every
ring step as one fancy-indexed ``op`` call over a (p x n) matrix. Any
other input takes the per-block / per-rank form.

Equivalence contract (enforced by ``benchmarks/bench_regress.py``'s
``regress_fastpath`` gate and ``tests/test_fastpath.py``): for every
supported collective the fast path is **bit-identical** to the message
path in ``TraceReport.counts_signature()``, in every rank's virtual
clock, and in delivered payload contents — including copy-on-write
read-only-view semantics, two-level internode sub-tallies, and the
exact float association order of built-in reductions.

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
path's eventual timeout — a deliberate diagnostic upgrade.

The fall-back rules live at the dispatch sites in
:mod:`repro.simmpi.collectives`: tracing, fault plans,
non-default algorithms and non-builtin reduce ops all take the real
message path, unchanged.
"""

from __future__ import annotations

import math
import threading
from time import monotonic
from typing import Any, Sequence

import numpy as np

from repro.exceptions import CommunicatorError, DeadlockError, SimulationError
from repro.simmpi.payload import (
    copy_payload,
    freeze_payload,
    message_count,
    payload_words,
)

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
        # Parked path: world.abort() wakes every parked rank; a genuine
        # never-arriving peer is a deadlock the baton reports at once,
        # and the watchdog budget a blocking receive gets stays as the
        # backstop.
        baton = self.world.baton
        me = self.group[local_rank]
        waits_on = ("collective", item[0])
        deadline = monotonic() + self.world.timeout
        while not aborted:
            woke = baton.block(me, waits_on, max(0.0, deadline - monotonic()))
            if cycle.outcomes is not None:
                return self._pick(cycle, local_rank)
            if cycle.aborted:
                break
            if not woke:
                if self.world.failed.is_set():
                    break
                raise DeadlockError(
                    f"rank {me} timed out after "
                    f"{self.world.timeout}s waiting for peers to enter a "
                    "collective; likely deadlock (some rank never made the "
                    "matching call)"
                )
            # Woken by a crash elsewhere (mark_dead): park again.
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

    __slots__ = ("group", "p", "machine", "mmw", "cow", "counters", "two_level", "nodes")

    def __init__(self, world, group: tuple):
        self.group = group
        self.p = len(group)
        self.machine = world.machine
        self.mmw = world.max_message_words
        self.cow = world.copy_on_write
        self.counters = [world.counters[w] for w in group]
        self.two_level = world.node_size is not None
        #: node id of each local rank (two-level worlds only)
        self.nodes = (
            np.array(group, dtype=np.int64) // world.node_size
            if self.two_level
            else None
        )

    def internode(self, a_local: int, b_local: int) -> bool:
        return self.two_level and self.nodes[a_local] != self.nodes[b_local]

    def ring_internode(self, shift: int) -> np.ndarray | None:
        """Mask of local ranks whose message to ``(r + shift) % p``
        crosses nodes (None in flat worlds)."""
        if not self.two_level:
            return None
        return self.nodes != np.roll(self.nodes, -shift)

    def entry_vtimes(self) -> np.ndarray | None:
        if self.machine is None:
            return None
        return np.array([c.vtime for c in self.counters], dtype=np.float64)


class _Meter:
    """Accumulates per-rank tallies, then bulk-applies them."""

    __slots__ = ("ctx", "ws", "ms", "wr", "mr", "wsi", "msi", "wri", "mri")

    def __init__(self, ctx: _Ctx):
        p = ctx.p
        self.ctx = ctx
        self.ws = np.zeros(p, dtype=np.int64)
        self.ms = np.zeros(p, dtype=np.int64)
        self.wr = np.zeros(p, dtype=np.int64)
        self.mr = np.zeros(p, dtype=np.int64)
        self.wsi = np.zeros(p, dtype=np.int64)
        self.msi = np.zeros(p, dtype=np.int64)
        self.wri = np.zeros(p, dtype=np.int64)
        self.mri = np.zeros(p, dtype=np.int64)

    def edge(self, src: int, dst: int, words: int, msgs: int) -> None:
        """Meter one logical message src -> dst (local ranks)."""
        self.ws[src] += words
        self.ms[src] += msgs
        self.wr[dst] += words
        self.mr[dst] += msgs
        if self.ctx.internode(src, dst):
            self.wsi[src] += words
            self.msi[src] += msgs
            self.wri[dst] += words
            self.mri[dst] += msgs

    def ring(self, words, msgs, shift: int) -> None:
        """Meter one ring step in bulk: every local rank r sends
        ``words[r]`` words in ``msgs[r]`` messages to ``(r + shift) % p``
        (scalars apply to every rank)."""
        p = self.ctx.p
        words = np.broadcast_to(np.asarray(words, dtype=np.int64), (p,))
        msgs = np.broadcast_to(np.asarray(msgs, dtype=np.int64), (p,))
        self.ws += words
        self.ms += msgs
        self.wr += np.roll(words, shift)
        self.mr += np.roll(msgs, shift)
        cross = self.ctx.ring_internode(shift)
        if cross is not None:
            wi = np.where(cross, words, 0)
            mi = np.where(cross, msgs, 0)
            self.wsi += wi
            self.msi += mi
            self.wri += np.roll(wi, shift)
            self.mri += np.roll(mi, shift)

    def apply(self, vtimes: np.ndarray | Sequence[float] | None) -> None:
        counters = self.ctx.counters
        for i in range(self.ctx.p):
            counters[i].apply_bulk(
                words_sent=int(self.ws[i]),
                messages_sent=int(self.ms[i]),
                words_received=int(self.wr[i]),
                messages_received=int(self.mr[i]),
                words_sent_internode=int(self.wsi[i]),
                messages_sent_internode=int(self.msi[i]),
                words_received_internode=int(self.wri[i]),
                messages_received_internode=int(self.mri[i]),
                vtime=None if vtimes is None else float(vtimes[i]),
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


def _cost(machine, words: int, msgs: int) -> float:
    # Mirrors Comm.send exactly: alpha_t * msgs + beta_t * words, in
    # this operand order, so float rounding matches bit for bit.
    return machine.alpha_t * msgs + machine.beta_t * words


def _cost_vec(machine, words: np.ndarray, msgs: np.ndarray) -> np.ndarray:
    return machine.alpha_t * msgs + machine.beta_t * words


def _ring_clock(ctx: _Ctx, t, words, msgs, shift: int = 1):
    """Virtual clocks after one ring step in which every rank r sends
    to ``(r + shift) % p`` and receives from ``(r - shift) % p``."""
    if ctx.machine is None:
        return t
    dep = t + _cost_vec(ctx.machine, words, msgs)
    return np.maximum(dep, np.roll(dep, shift))


def _mc_vec(words: np.ndarray, mmw: float) -> np.ndarray:
    if math.isinf(mmw):
        return np.ones_like(words)
    return np.maximum(np.ceil(words / mmw).astype(np.int64), 1)


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
    p = ctx.p
    meter = _Meter(ctx)
    t = ctx.entry_vtimes()
    m = message_count(0, ctx.mmw)
    step = 1
    while step < p:
        meter.ring(0, m, step)
        t = _ring_clock(ctx, t, 0, m, step)
        step <<= 1
    meter.apply(t)
    return [None] * p


def _resolve_bcast(ctx: _Ctx, argslist: list) -> list:
    p = ctx.p
    root, err = _check_common_root(ctx, argslist, 1)
    if err is not None:
        return err
    obj = argslist[root][0]
    fp, w = _pack(ctx, obj)
    m = message_count(w, ctx.mmw)
    meter = _Meter(ctx)
    machine = ctx.machine
    # t indexed by vrank (local rank of vrank v is (v + root) % p).
    t = None
    if machine is not None:
        t = [ctx.counters[(v + root) % p].vtime for v in range(p)]
        cost = _cost(machine, w, m)
    mask = 1
    while mask < p:
        for me in range(min(mask, p - mask)):
            peer = me + mask
            meter.edge((me + root) % p, (peer + root) % p, w, m)
            if machine is not None:
                t[me] += cost
                if t[me] > t[peer]:
                    t[peer] = t[me]
        mask <<= 1
    vt = None
    if machine is not None:
        vt = [0.0] * p
        for v in range(p):
            vt[(v + root) % p] = t[v]
    meter.apply(vt)
    return [_deliver(ctx, fp, obj) for _ in range(p)]


def _resolve_reduce(ctx: _Ctx, argslist: list) -> list:
    p = ctx.p
    root, err = _check_common_root(ctx, argslist, 2)
    if err is not None:
        return err
    op = argslist[root][1]
    # Accumulators in vrank order, starting from each rank's private copy.
    accs: list = [copy_payload(argslist[(v + root) % p][0]) for v in range(p)]
    meter = _Meter(ctx)
    machine = ctx.machine
    t = None
    if machine is not None:
        t = [ctx.counters[(v + root) % p].vtime for v in range(p)]
    mask = 1
    while mask < p:
        for me in range(0, p - mask, mask << 1):
            s = me + mask
            w = payload_words(accs[s])
            m = message_count(w, ctx.mmw)
            meter.edge((s + root) % p, (me + root) % p, w, m)
            if machine is not None:
                t[s] += _cost(machine, w, m)
                if t[s] > t[me]:
                    t[me] = t[s]
            try:
                accs[me] = op(accs[me], accs[s])
            except Exception as exc:
                return _partial_err(ctx, {(me + root) % p: exc})
            accs[s] = None  # that rank has exited the tree
        mask <<= 1
    vt = None
    if machine is not None:
        vt = [0.0] * p
        for v in range(p):
            vt[(v + root) % p] = t[v]
    meter.apply(vt)
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
        return _reduce_scatter_stacked(ctx, arrays, op)
    return _reduce_scatter_per_rank(ctx, arrays, op)


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
    meter = _Meter(ctx)
    t = ctx.entry_vtimes()
    for s in range(1, p):
        dst = (chunk + s) % p * n + cols
        src = (chunk + s - 1) % p * n + cols
        flat[dst] = op(flat[dst], flat[src])
        w = sizes[(idx - s + 1) % p]  # rank r ships chunk (r - s + 1) % p
        m = _mc_vec(w, ctx.mmw)
        meter.ring(w, m, 1)
        t = _ring_clock(ctx, t, w, m)
    # Ownership rotation: rank r ships its reduced chunk (r+1)%p right,
    # so rank r ends with chunk r, reduced on rank r - 1.
    w = sizes[(idx + 1) % p]
    m = _mc_vec(w, ctx.mmw)
    meter.ring(w, m, 1)
    meter.apply(_ring_clock(ctx, t, w, m))
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
    meter = _Meter(ctx)
    t = ctx.entry_vtimes()
    live = [True] * p
    errs: dict[int, BaseException] = {}
    for s in range(1, p):
        sent = [accs[r][(r - s + 1) % p] for r in range(p)]
        w = np.array([a.size for a in sent], dtype=np.int64)
        m = _mc_vec(w, ctx.mmw)
        meter.ring(w, m, 1)
        t = _ring_clock(ctx, t, w, m)
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
    owned = [accs[r][(r + 1) % p] for r in range(p)]
    w = np.array([a.size for a in owned], dtype=np.int64)
    m = _mc_vec(w, ctx.mmw)
    meter.ring(w, m, 1)
    meter.apply(_ring_clock(ctx, t, w, m))
    out: list = []
    for r in range(p):
        chunk = owned[(r - 1) % p]
        fp = freeze_payload(chunk) if ctx.cow else None
        out.append(_deliver(ctx, fp, chunk))
    return out


def _resolve_allgather(ctx: _Ctx, argslist: list) -> list:
    p = ctx.p
    packs = [_pack(ctx, args[0]) for args in argslist]
    w = np.array([words for _fp, words in packs], dtype=np.int64)
    m = _mc_vec(w, ctx.mmw)
    meter = _Meter(ctx)
    # Rank r forwards every block except origin (r+1)%p to its right
    # neighbor, and receives every block except its own from the left.
    meter.ring(w.sum() - np.roll(w, -1), m.sum() - np.roll(m, -1), 1)
    t = ctx.entry_vtimes()
    if ctx.machine is not None:
        for s in range(p - 1):
            w_send = np.roll(w, s)  # rank r ships origin (r-s)%p at step s
            t = _ring_clock(ctx, t, w_send, np.roll(m, s))
    meter.apply(t)
    return [
        [_deliver(ctx, fp, argslist[o][0]) for o, (fp, _w) in enumerate(packs)]
        for _ in range(p)
    ]


def _resolve_gather(ctx: _Ctx, argslist: list) -> list:
    p = ctx.p
    root, err = _check_common_root(ctx, argslist, 1)
    if err is not None:
        return err
    packs = [_pack(ctx, args[0]) for args in argslist]
    meter = _Meter(ctx)
    machine = ctx.machine
    t = ctx.entry_vtimes()
    for r in range(p):
        if r == root:
            continue
        _fp, w = packs[r]
        m = message_count(w, ctx.mmw)
        meter.edge(r, root, w, m)
        if machine is not None:
            t[r] += _cost(machine, w, m)
            if t[r] > t[root]:
                t[root] = t[r]
    meter.apply(t)
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
    meter = _Meter(ctx)
    machine = ctx.machine
    t = ctx.entry_vtimes()
    for r in range(p):
        if r == root:
            continue
        _fp, w = packs[r]
        m = message_count(w, ctx.mmw)
        meter.edge(root, r, w, m)
        if machine is not None:
            # Root's sends are sequential in ascending r; each receiver
            # syncs to the departure time of its own message.
            t[root] += _cost(machine, w, m)
            if t[root] > t[r]:
                t[r] = t[root]
    meter.apply(t)
    return [_deliver(ctx, packs[r][0], objs[r]) for r in range(p)]


def _blocks_checked(ctx: _Ctx, argslist: list, name: str):
    """The (src, dst) block table, or per-rank errors for ranks that did
    not pass one block per destination."""
    p = ctx.p
    bad = {
        i: CommunicatorError(
            f"{name} needs one block per rank ({p}), got {len(args[0])}"
        )
        for i, args in enumerate(argslist)
        if len(args[0]) != p
    }
    if bad:
        return None, _partial_err(ctx, bad)
    return [args[0] for args in argslist], None


def _uniform_blocks(table: list) -> bool:
    """True when every block is a plain ndarray of one shape (ndim >= 1)
    and one numeric dtype, so the table stacks into one array whose
    rows index back into blocks (0-d blocks would come back as numpy
    scalars)."""
    first = table[0][0]
    if type(first) is not np.ndarray or first.ndim == 0 or not _numeric(first.dtype):
        return False
    shape, dtype = first.shape, first.dtype
    return all(
        type(b) is np.ndarray and b.shape == shape and b.dtype == dtype
        for row in table
        for b in row
    )


def _pack_table(ctx: _Ctx, table: list):
    """Words ``W[src, dst]`` of an all-to-all block table, and what each
    rank receives, indexed ``[dst][src]``.

    In a CoW world a uniform table (see :func:`_uniform_blocks`) is
    frozen once as a single (p, p, *shape) buffer, and every receiver
    gets read-only views of its column: one copy for the whole
    collective instead of p² freezes. Any other table is packed block
    by block.
    """
    p = ctx.p
    if ctx.cow and _uniform_blocks(table):
        frozen = freeze_payload(np.array(table)).view()
        W = np.full((p, p), frozen[0, 0].size, dtype=np.int64)
        return W, [list(frozen[:, dst]) for dst in range(p)]
    packs = [[_pack(ctx, block) for block in row] for row in table]
    W = np.array([[words for _fp, words in row] for row in packs], dtype=np.int64)
    received = [
        [_deliver(ctx, packs[src][dst][0], table[src][dst]) for src in range(p)]
        for dst in range(p)
    ]
    return W, received


def _resolve_alltoall(ctx: _Ctx, argslist: list) -> list:
    p = ctx.p
    table, err = _blocks_checked(ctx, argslist, "alltoall")
    if err is not None:
        return err
    w, received = _pack_table(ctx, table)
    m = _mc_vec(w, ctx.mmw)
    meter = _Meter(ctx)
    idx = np.arange(p)
    off = np.eye(p, dtype=bool)  # own block never crosses the network
    meter.ws += np.where(off, 0, w).sum(axis=1)
    meter.ms += np.where(off, 0, m).sum(axis=1)
    meter.wr += np.where(off, 0, w).sum(axis=0)
    meter.mr += np.where(off, 0, m).sum(axis=0)
    if ctx.two_level:
        inter = ctx.nodes[:, None] != ctx.nodes[None, :]
        meter.wsi += np.where(inter, w, 0).sum(axis=1)
        meter.msi += np.where(inter, m, 0).sum(axis=1)
        meter.wri += np.where(inter, w, 0).sum(axis=0)
        meter.mri += np.where(inter, m, 0).sum(axis=0)
    t = ctx.entry_vtimes()
    if ctx.machine is not None:
        for k in range(1, p):
            dest = (idx + k) % p
            t = _ring_clock(ctx, t, w[idx, dest], m[idx, dest], k)
    meter.apply(t)
    return received


def _resolve_alltoall_bruck(ctx: _Ctx, argslist: list) -> list:
    p = ctx.p
    if p & (p - 1):
        return _all_err(
            ctx.p,
            CommunicatorError(
                f"alltoall_bruck requires a power-of-two size, got {p}"
            ),
        )
    table, err = _blocks_checked(ctx, argslist, "alltoall_bruck")
    if err is not None:
        return err
    w, received = _pack_table(ctx, table)
    # Phase-1 rotation: slot j on rank r holds the block for relative
    # destination j, i.e. W[r, j] = w[r, (r + j) % p].
    idx = np.arange(p)
    W = w[idx[:, None], (idx[:, None] + idx[None, :]) % p]
    meter = _Meter(ctx)
    t = ctx.entry_vtimes()
    mask = 1
    while mask < p:
        ship = (idx & mask) != 0
        sent_w = W[:, ship].sum(axis=1)
        sent_m = _mc_vec(sent_w, ctx.mmw)
        meter.ring(sent_w, sent_m, mask)
        t = _ring_clock(ctx, t, sent_w, sent_m, mask)
        # Shipped slots now hold whatever the left-by-mask rank had.
        W[:, ship] = np.roll(W[:, ship], mask, axis=0)
        mask <<= 1
    meter.apply(t)
    return received


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
