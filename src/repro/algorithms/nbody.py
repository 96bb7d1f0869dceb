"""Direct O(n^2) n-body — serial reference, 1D ring, and the
data-replicating algorithm (Driscoll et al. [16]).

The paper's claim: with a replication factor c, the all-pairs force
computation on p = r * c ranks communicates W = Theta(n^2 / (p M)) words
per rank (M = Theta(n c / p) words of particles held), perfectly strong
scaling in both time and energy for n/p <= M <= n/sqrt(p).

Algorithms:

* :func:`nbody_serial` — all-pairs reference.
* :func:`nbody_ring` — classic 1D ring: each of p ranks owns n/p
  particles; sources circulate p-1 times. (The c = 1 baseline.)
* :func:`nbody_replicated` — the team algorithm: ranks form an
  r x c grid (r = p/c teams of c ranks). All c members of team i hold
  target block i (the c-fold replication); the r source blocks circulate
  around the *team ring*, but each member only processes the ring
  positions congruent to its member index mod c — r/c ring steps each —
  and the team's partial forces are summed with a reduction. Per-rank
  source traffic drops from (p-1) blocks to ~r/c blocks: the promised
  factor-c saving.

Force laws are pluggable; see :class:`ForceLaw` and the built-ins
(:data:`GRAVITY`, :data:`COULOMB`, :data:`LENNARD_JONES`). Each law
reports its per-pair flop count f — the paper's ``interaction_flops`` —
so measured F matches f n^2 / p.

Host kernels are batched. A rank's ring steps each receive one small
source block, and one kernel call per block costs more in numpy
overhead than in arithmetic. So each received block is copied into a
chunk buffer, and a chunk of up to :data:`PAIR_BUDGET` target x source
pairs is evaluated in one kernel call over a leading batch axis. The
bits do not change: a law's batched call gives, in slice i, exactly the
bits of its call on block i alone (the contract :class:`ForceLaw`
states), and the slices are added to the forces one at a time in ring
step order, as the per-step calls were. Every ``shift`` and
``add_flops`` call stays where it was, so no message, count or clock
moves either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.algorithms.distributions import block_ranges
from repro.exceptions import ParameterError
from repro.simmpi.cart import CartComm
from repro.simmpi.comm import Comm

__all__ = [
    "ForceLaw",
    "GRAVITY",
    "COULOMB",
    "LENNARD_JONES",
    "nbody_serial",
    "nbody_ring",
    "nbody_replicated",
    "team_forces",
    "team_layout",
    "PAIR_BUDGET",
]


@dataclass(frozen=True)
class ForceLaw:
    """A pairwise interaction.

    Attributes
    ----------
    name:
        Human-readable identifier.
    kernel:
        ``kernel(targets_pos, targets_q, sources_pos, sources_q,
        exclude_self) -> forces`` — vectorized over all target x source
        pairs. Targets are ``(t, dim)`` positions and ``(t,)`` scalars
        (mass or charge). Sources are ``(..., s, dim)`` and ``(..., s)``:
        optional leading batch dimensions hold several source blocks of
        one length, and the result is ``(..., t, dim)``. Slice ``i`` of a
        batched result must equal, bit for bit, the kernel's result for
        ``sources_pos[i]``, ``sources_q[i]`` alone; the ring algorithms
        evaluate chunks of received blocks in one call and rely on it.
        ``exclude_self`` is True when every source block is the target
        block itself, and each block's self-interactions must be skipped.
    flops_per_pair:
        The paper's f: flops one target-source pair costs (used for
        metering; a documented model constant, not a measured count).
    """

    name: str
    kernel: Callable[..., np.ndarray]
    flops_per_pair: float

    def __call__(self, tp, tq, sp, sq, exclude_self: bool) -> np.ndarray:
        return self.kernel(tp, tq, sp, sq, exclude_self)


def _pair_geometry(tp, sp, eps):
    """diff (..., t, s, d) and softened squared distance (..., t, s)."""
    diff = sp[..., None, :, :] - tp[:, None, :]
    dist2 = np.sum(diff * diff, axis=-1) + eps
    return diff, dist2


def _zero_self_pairs(pairs):
    """Zero the diagonal of each (t, s) pair block: a particle's
    interaction with itself."""
    i = np.arange(min(pairs.shape[-2:]))
    pairs[..., i, i] = 0.0


def _gravity_kernel(tp, tq, sp, sq, exclude_self, eps=1e-12):
    diff, dist2 = _pair_geometry(tp, sp, eps)
    inv = dist2 ** (-1.5)
    if exclude_self:
        _zero_self_pairs(inv)
    w = (tq[:, None] * sq[..., None, :]) * inv
    return np.einsum("...ts,...tsd->...td", w, diff)


def _coulomb_kernel(tp, tq, sp, sq, exclude_self, eps=1e-12):
    # Like gravity with repulsion: force on t points away from s for
    # like charges.
    return -_gravity_kernel(tp, tq, sp, sq, exclude_self, eps)


def _lj_kernel(tp, tq, sp, sq, exclude_self, eps=1e-12, sigma=1.0):
    diff, dist2 = _pair_geometry(tp, sp, eps)
    inv2 = sigma * sigma / dist2
    inv6 = inv2**3
    # F = 24 (2 inv12 - inv6) / r^2 * diff   (epsilon_LJ = 1)
    mag = 24.0 * (2.0 * inv6 * inv6 - inv6) / dist2
    if exclude_self:
        _zero_self_pairs(mag)
    return -np.einsum("...ts,...tsd->...td", mag, diff)


#: Softened Newtonian gravity, ~20 flops/pair in 3D.
GRAVITY = ForceLaw("gravity", _gravity_kernel, flops_per_pair=20.0)
#: Coulomb electrostatics (gravity with sign flipped), ~20 flops/pair.
COULOMB = ForceLaw("coulomb", _coulomb_kernel, flops_per_pair=20.0)
#: Lennard-Jones 6-12, ~23 flops/pair in 3D.
LENNARD_JONES = ForceLaw("lennard-jones", _lj_kernel, flops_per_pair=23.0)


#: Most target x source pairs one batched kernel call evaluates (a block
#: longer than this is evaluated alone). A chunk of received source
#: blocks closes when one more block would pass it, so a call's
#: temporaries stay near 80 bytes per pair (40 KiB) whatever n and p
#: are. Every rank thread's allocator keeps the largest temporaries it
#: has freed, so a larger budget raises peak RSS and, once a few hundred
#: pairs share one call's numpy overhead, buys no speed (EXPERIMENTS.md,
#: "Batched host kernels"). It bounds host memory only: no message,
#: count or output bit depends on it.
PAIR_BUDGET = 1 << 9


def _add_source_forces(law, tp, tq, forces, sources, count) -> None:
    """Add ``law(tp, tq, sp, sq, exclude_self)`` to ``forces`` in place
    for each ``(sp, sq, exclude_self)`` of ``sources`` (``count`` blocks),
    in order.

    Each block is copied into a chunk buffer as it arrives, so no
    received block is held past its step. A chunk is evaluated in one
    batched kernel call when it holds :data:`PAIR_BUDGET` pairs, when
    the block length changes (p does not divide n), or when the blocks
    run out; a self block is evaluated on its own. The chunk's partial
    forces are then added one block at a time, which gives the bits of
    one kernel call and one ``+=`` per block.
    """
    pos_buf = q_buf = None
    held = 0
    for sp, sq, exclude_self in sources:
        if held and (exclude_self or held == len(pos_buf) or sp.shape != pos_buf.shape[1:]):
            _add_chunk(law, tp, tq, forces, pos_buf[:held], q_buf[:held])
            held = 0
        if exclude_self:
            forces += law(tp, tq, sp, sq, True)
        else:
            if not held:
                chunk = min(count, max(1, PAIR_BUDGET // max(1, len(tp) * len(sp))))
                pos_buf = np.empty((chunk, *sp.shape), dtype=sp.dtype)
                q_buf = np.empty((chunk, *sq.shape), dtype=sq.dtype)
            pos_buf[held] = sp
            q_buf[held] = sq
            held += 1
        count -= 1
    if held:
        _add_chunk(law, tp, tq, forces, pos_buf[:held], q_buf[:held])


def _add_chunk(law, tp, tq, forces, sp, sq) -> None:
    """One batched kernel call over the chunk, added block by block."""
    for part in law(tp, tq, sp, sq, False):
        forces += part


def _validate_particles(pos: np.ndarray, q: np.ndarray) -> None:
    if pos.ndim != 2:
        raise ParameterError(f"positions must be (n, dim), got {pos.shape}")
    if q.shape != (pos.shape[0],):
        raise ParameterError(
            f"charges/masses must be ({pos.shape[0]},), got {q.shape}"
        )


def nbody_serial(
    pos: np.ndarray, q: np.ndarray, law: ForceLaw = GRAVITY
) -> np.ndarray:
    """All-pairs forces on one processor (the correctness reference)."""
    _validate_particles(pos, q)
    return law(pos, q, pos, q, True)


def nbody_ring(
    comm: Comm, pos: np.ndarray, q: np.ndarray, law: ForceLaw = GRAVITY
) -> np.ndarray:
    """1D ring all-pairs: returns forces on this rank's particle block.

    Rank r owns the r-th contiguous block of particles; source blocks
    circulate p-1 times around the ring. W per rank = (p-1) * block
    words — the M = n/p endpoint of the replication range.
    """
    _validate_particles(pos, q)
    p = comm.size
    r = comm.rank
    lo, hi = block_ranges(pos.shape[0], p)[r]
    my_pos = pos[lo:hi].copy()
    my_q = q[lo:hi].copy()
    comm.allocate(my_pos.size + my_q.size)

    forces = law(my_pos, my_q, my_pos, my_q, True)
    comm.add_flops(law.flops_per_pair * len(my_pos) * len(my_pos))

    def received():
        travel_pos, travel_q = my_pos, my_q
        for step in range(1, p):
            travel_pos = comm.shift(travel_pos, 1, tag=("nbody_pos", step))
            travel_q = comm.shift(travel_q, 1, tag=("nbody_q", step))
            comm.add_flops(law.flops_per_pair * len(my_pos) * len(travel_pos))
            yield travel_pos, travel_q, False

    _add_source_forces(law, my_pos, my_q, forces, received(), p - 1)
    comm.release()
    return forces


def team_layout(p: int, n: int, c: int | None = None) -> int:
    """Check c teams of r = p/c ranks for n particles (c | p, c | r,
    r | n); return r. ``c=None`` is the ring, which splits any n over
    any p (blocks one particle apart): r = p."""
    if c is None:
        return p
    if c < 1:
        raise ParameterError(f"replication factor c must be >= 1, got {c}")
    if p % c:
        raise ParameterError(f"c={c} must divide p={p}")
    r = p // c
    if r % c:
        raise ParameterError(
            f"team count r={r} must be divisible by c={c} so each member "
            f"runs r/c ring steps (got p={p}, c={c})"
        )
    if n % r:
        raise ParameterError(f"particle count {n} must divide into r={r} blocks")
    return r


def team_forces(
    comm: Comm,
    ring: Comm,
    member: int,
    c: int,
    law: ForceLaw,
    tp: np.ndarray,
    tq: np.ndarray,
    tags: tuple = ("align_p", "align_q", "p", "q"),
) -> np.ndarray:
    """One team member's partial forces on its team's block (tp, tq),
    before the team reduction.

    Member m of team i handles source blocks (i + s) mod r for
    s = m, m + c, ..., r - c of the team ring ``ring`` (size r). Align
    by shifting the sources m steps around the member's ring, then c
    steps between rounds. ``tags`` names the two alignment shifts and
    the two per-round shifts; flops are metered on ``comm``.
    """
    rounds = ring.size // c

    def received():
        travel_pos, travel_q = tp, tq
        if member:
            travel_pos = ring.shift(travel_pos, member, tag=tags[0])
            travel_q = ring.shift(travel_q, member, tag=tags[1])
        for rnd in range(rounds):
            comm.add_flops(law.flops_per_pair * len(tp) * len(travel_pos))
            yield travel_pos, travel_q, member + rnd * c == 0
            if rnd < rounds - 1:
                travel_pos = ring.shift(travel_pos, c, tag=(tags[2], rnd))
                travel_q = ring.shift(travel_q, c, tag=(tags[3], rnd))

    forces = np.zeros_like(tp)
    _add_source_forces(law, tp, tq, forces, received(), rounds)
    return forces


def nbody_replicated(
    comm: Comm,
    pos: np.ndarray,
    q: np.ndarray,
    c: int = 1,
    law: ForceLaw = GRAVITY,
) -> np.ndarray | None:
    """Data-replicating all-pairs forces with replication factor c.

    Parameters
    ----------
    comm:
        Communicator of size p = r * c with c | r (so the ring steps
        split evenly among team members).
    pos, q:
        Global particle positions (n, dim) and masses/charges (n,);
        the team count r must divide n.
    c:
        Replication factor; c = 1 degenerates to :func:`nbody_ring`
        (modulo the final intra-team reduction, which disappears).

    Returns
    -------
    On member-0 ranks of each team: forces on the team's particle
    block. On other ranks: None.
    """
    _validate_particles(pos, q)
    n = pos.shape[0]
    r = team_layout(comm.size, n, c)

    grid = CartComm(comm, (r, c), periodic=True)
    team, member = grid.coords
    team_ring = grid.sub((True, False))  # same member index, ring over teams
    team_comm = grid.sub((False, True))  # my team, rank = member

    lo, hi = block_ranges(n, r)[team]
    my_pos = pos[lo:hi].copy()
    my_q = q[lo:hi].copy()
    comm.allocate(my_pos.size + my_q.size)

    forces = team_forces(comm, team_ring.comm, member, c, law, my_pos, my_q)
    total = (
        team_comm.comm.reduce(forces, root=0, algorithm="reduce_scatter_gather")
        if c > 1
        else forces
    )
    comm.release()
    return total if member == 0 else None
