"""2.5D matrix multiplication (Solomonik & Demmel [11]).

p = q^2 c ranks arranged as a q x q x c cuboid (q = sqrt(p/c)); c is the
replication factor. The front layer's q x q tiling of A and B is
broadcast along the depth fibers (each layer gets a copy — this is the
"use extra memory to replicate data" step), each layer k executes the
Cannon steps s with s === k (mod c) (q/c multiply-shift rounds, realigned
by c between rounds), and C is sum-reduced back along the fibers to the
front layer.

Limits: c = 1 degenerates to plain Cannon (no replication, no fiber
traffic beyond a trivial self-copy); c = p^(1/3) gives q = c — the 3D
algorithm of Agarwal et al. [10], where each layer performs exactly one
multiply.

Per-rank costs with tile b = n/q: F = 2 n^3 / p; W dominated by the two
fiber collectives (Theta(b^2 log c)) plus 2 (q/c) shift rounds of b^2 =
Theta(n^2 / sqrt(c p)) — Eq. (7) of the paper. Perfect strong scaling:
fixing M (i.e. the tile size) and growing p by c keeps W p constant.

Requirements: q divisible by c (so every layer gets the same number of
Cannon rounds — the standard layout constraint), n divisible by q.
"""

from __future__ import annotations

import math
from contextlib import nullcontext

import numpy as np

from repro.exceptions import ParameterError
from repro.simmpi.cart import CartComm
from repro.simmpi.comm import Comm
from repro.simmpi.faults import park_until_crash

__all__ = [
    "matmul_25d",
    "matmul_3d",
    "matmul_25d_resilient",
    "assemble_resilient",
    "grid_for_25d",
    "layout_25d",
]


def grid_for_25d(p: int, c: int) -> int:
    """Validate (p, c) and return the grid side q = sqrt(p/c)."""
    if c < 1:
        raise ParameterError(f"replication factor c must be >= 1, got {c}")
    if p % c:
        raise ParameterError(f"c={c} must divide p={p}")
    q = int(math.isqrt(p // c))
    if q * q * c != p:
        raise ParameterError(f"p/c = {p // c} must be a perfect square (p={p}, c={c})")
    if q % c:
        raise ParameterError(
            f"grid side q={q} must be divisible by c={c} "
            "(each layer runs q/c Cannon rounds)"
        )
    if c > q:
        raise ParameterError(
            f"c={c} exceeds the 3D limit c = p^(1/3) (q={q}); no more memory "
            "can be exploited"
        )
    return q


def layout_25d(p: int, n: int, c: int) -> int:
    """Check a q x q x c cuboid for order-n tiles (q | n); return q."""
    q = grid_for_25d(p, c)
    if n % q:
        raise ParameterError(f"matrix order {n} must be divisible by grid side {q}")
    return q


def matmul_25d(comm: Comm, a: np.ndarray, b: np.ndarray, c: int = 1) -> np.ndarray:
    """Multiply global matrices with the 2.5D algorithm.

    Parameters
    ----------
    comm:
        Communicator of size p = q^2 c with q = sqrt(p/c) divisible by c.
    a, b:
        Global square operands (q | n). Front-layer ranks slice their
        tiles locally; replication across layers is metered.
    c:
        Replication factor (1 = Cannon/2D ... p^(1/3) = 3D).

    Returns
    -------
    On front-layer ranks (depth coordinate 0): the (i, j) tile of
    C = A @ B. On other layers: None.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise ParameterError(
            f"need equal square operands, got {a.shape} and {b.shape}"
        )
    n = a.shape[0]
    q = layout_25d(comm.size, n, c)
    bsz = n // q

    cube = CartComm(comm, (q, q, c), periodic=True)
    i, j, k = cube.coords
    layer = cube.sub((True, True, False))  # my q x q layer (rank = (i, j))
    fiber = cube.sub((False, False, True))  # my depth fiber (rank = k)

    # --- replicate: front layer owns the data, fibers broadcast it -------
    if k == 0:
        a_tile = a[i * bsz : (i + 1) * bsz, j * bsz : (j + 1) * bsz].copy()
        b_tile = b[i * bsz : (i + 1) * bsz, j * bsz : (j + 1) * bsz].copy()
    else:
        a_tile = b_tile = None
    if c > 1:
        # Large-message broadcast: ~2 tiles of traffic regardless of c,
        # matching the model's replication cost (binomial would charge
        # the root log2(c) tiles).
        a_tile = fiber.comm.bcast(a_tile, root=0, algorithm="scatter_allgather")
        b_tile = fiber.comm.bcast(b_tile, root=0, algorithm="scatter_allgather")
    comm.allocate(3 * bsz * bsz)

    # --- my layer's Cannon rounds: steps s = k, k + c, ..., q - c ---------
    # Alignment for step s puts A[i, (j + i + s) mod q] and
    # B[(i + j + s) mod q, j] on layer rank (i, j).
    first = k
    a_tile = layer.shift(a_tile, dim=1, displacement=-(i + first) % q, tag="alignA")
    b_tile = layer.shift(b_tile, dim=0, displacement=-(j + first) % q, tag="alignB")

    c_tile = np.zeros((bsz, bsz), dtype=np.result_type(a, b))
    rounds = q // c
    for r in range(rounds):
        c_tile += a_tile @ b_tile
        comm.add_flops(2.0 * bsz * bsz * bsz)
        if r < rounds - 1:
            a_tile = layer.shift(a_tile, dim=1, displacement=-c, tag=("A", r))
            b_tile = layer.shift(b_tile, dim=0, displacement=-c, tag=("B", r))

    # --- reduce partial C along fibers to the front layer -----------------
    if c > 1:
        c_tile = fiber.comm.reduce(c_tile, root=0, algorithm="reduce_scatter_gather")
    comm.release()
    return c_tile if k == 0 else None


def matmul_25d_resilient(
    comm: Comm, a: np.ndarray, b: np.ndarray, c: int = 1
) -> tuple[tuple[int, int], np.ndarray] | None:
    """2.5D matmul that survives injected rank crashes at ``c >= 2``.

    The fault-tolerant twin of :func:`matmul_25d`, exploiting exactly the
    redundancy the paper pays for: with replication factor ``c``, every
    depth fiber holds ``c`` copies of its A and B tiles, so losing a rank
    loses *no data* — only its share of the Cannon rounds, which the
    lowest live layer of the fiber (the *acting root*) recomputes from
    the replicas.

    Differences from :func:`matmul_25d`:

    * **Push schedule instead of ring shifts.** At step ``s`` of layer
      ``k`` (``s = k + r c``), rank ``(i, j, k)`` needs ``A[i, (j+i+s) % q]``
      and ``B[(i+j+s) % q, j]`` — tiles whose owners are known statically,
      so every rank *pushes* its own tile straight to each step's
      consumer (tags ``("A", s)``/``("B", s)``) rather than relaying
      neighbors' tiles around a ring. Same F, same number of tile
      transfers per round; no alignment phase. Eager sends keep it
      deadlock-free: each round pushes for every duty before blocking on
      that round's receives.
    * **Prescient failure detection.** Doomed ranks
      (:meth:`~repro.simmpi.comm.Comm.doomed_ranks`) are routed around
      from the start and simply :func:`~repro.simmpi.faults.park_until_crash`;
      this keeps the recovery schedule — and therefore every count —
      fully deterministic. The simulator meters recovery's *data flow*
      (which replicas move where), not an agreement protocol.
    * **Recovery metering.** Work the acting root performs on behalf of
      a dead layer — its pushes, its receives, its GEMMs, the final fold
      of the recovered partial — runs inside
      :meth:`~repro.simmpi.comm.Comm.recovery`, so the extra W/S/F land
      in the ``recovery_*`` counter fields and
      :class:`~repro.analysis.profiler.ModelProfile` can price resilience
      against the Eq. (1)/(2) terms.
    * **Hand-rolled fiber collectives.** Replication is direct sends
      from the acting root to its fiber's live layers, and the final
      reduction is a gather-style sum at the acting root (``b^2`` adds
      per received partial) — sub-communicator ``split`` is collective
      and would hang on a parked doomed rank.

    Returns ``((i, j), tile)`` on each fiber's acting root (the front
    layer when no front rank is doomed) and None elsewhere; assemble the
    global product with :func:`assemble_resilient`. Requires every fiber
    to keep at least one live rank — at most ``c - 1`` doomed layers per
    fiber, and ``c >= 2`` whenever any rank is doomed.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise ParameterError(
            f"need equal square operands, got {a.shape} and {b.shape}"
        )
    n = a.shape[0]
    q = layout_25d(comm.size, n, c)
    bsz = n // q

    me = comm.rank
    # Row-major cuboid: rank = (i*q + j)*c + k, i/j the grid coordinates,
    # k the replication layer (rank 0 = front-layer corner).
    i, j, k = me // (q * c), (me // c) % q, me % c

    def gid(x: int, y: int, z: int) -> int:
        return (x * q + y) * c + z

    doomed = comm.doomed_ranks()
    if doomed:
        if c < 2:
            raise ParameterError(
                "resilient 2.5D matmul needs c >= 2 replica layers to "
                "absorb a rank crash (c = 1 holds a single copy of every "
                "tile — nothing to recover from)"
            )
        for x in range(q):
            for y in range(q):
                if all(gid(x, y, z) in doomed for z in range(c)):
                    raise ParameterError(
                        f"fiber ({x}, {y}) has all {c} layers doomed; "
                        "its tiles are unrecoverable"
                    )
    if me in doomed:
        park_until_crash(comm)  # raises RankCrashedError; never returns

    def acting(x: int, y: int) -> int:
        """Lowest live layer of fiber (x, y) — its acting root."""
        for z in range(c):
            if gid(x, y, z) not in doomed:
                return z
        raise AssertionError("unreachable: fully-doomed fibers rejected above")

    def exec_of(x: int, y: int, z: int) -> int:
        """The rank executing coordinate (x, y, z)'s duties: itself when
        live, else its fiber's acting root."""
        g = gid(x, y, z)
        if g not in doomed:
            return g
        return gid(x, y, acting(x, y))

    my_root = acting(i, j)
    is_root = k == my_root
    # Duty layers: my own, plus (on the acting root) my fiber's dead
    # layers — the recovery work.
    duties = [k]
    if is_root:
        duties += [z for z in range(c) if gid(i, j, z) in doomed]

    # --- replicate: acting root slices its fiber's tiles, sends copies ---
    dtype = np.result_type(a, b)
    if is_root:
        a0 = a[i * bsz : (i + 1) * bsz, j * bsz : (j + 1) * bsz].copy()
        b0 = b[i * bsz : (i + 1) * bsz, j * bsz : (j + 1) * bsz].copy()
        for z in range(c):
            if z != k and gid(i, j, z) not in doomed:
                comm.send(a0, gid(i, j, z), tag="repA")
                comm.send(b0, gid(i, j, z), tag="repB")
    else:
        root_rank = gid(i, j, my_root)
        a0 = comm.recv(root_rank, tag="repA")
        b0 = comm.recv(root_rank, tag="repB")
    comm.allocate((2 + len(duties)) * bsz * bsz)

    # --- push-model Cannon rounds over all duty layers -------------------
    rounds = q // c
    partials = {d: np.zeros((bsz, bsz), dtype=dtype) for d in duties}
    for r in range(rounds):
        # Push this round's tiles for every duty before blocking on any
        # receive: eager sends make each round self-contained, so the
        # schedule is deadlock-free for any recoverable doomed set.
        for d in duties:
            s = d + r * c
            with comm.recovery() if d != k else nullcontext():
                dst_a = exec_of(i, (j - i - s) % q, d)
                if dst_a != me:
                    comm.send(a0, dst_a, tag=("A", s))
                dst_b = exec_of((i - j - s) % q, j, d)
                if dst_b != me:
                    comm.send(b0, dst_b, tag=("B", s))
        for d in duties:
            s = d + r * c
            with comm.recovery() if d != k else nullcontext():
                src_a = exec_of(i, (j + i + s) % q, d)
                a_tile = a0 if src_a == me else comm.recv(src_a, tag=("A", s))
                src_b = exec_of((i + j + s) % q, j, d)
                b_tile = b0 if src_b == me else comm.recv(src_b, tag=("B", s))
                partials[d] += a_tile @ b_tile
                comm.add_flops(2.0 * bsz * bsz * bsz, label="gemm")

    # --- dead-aware fiber reduction to the acting root -------------------
    if not is_root:
        comm.send(partials[k], gid(i, j, my_root), tag="redC")
        comm.release()
        return None
    total = partials[k]
    for d in duties:
        if d == k:
            continue
        with comm.recovery():
            total = total + partials[d]
            comm.add_flops(float(bsz * bsz), label="fold")
    for z in range(c):
        if z == k or gid(i, j, z) in doomed:
            continue
        total = total + comm.recv(gid(i, j, z), tag="redC")
        comm.add_flops(float(bsz * bsz), label="reduce")
    comm.release()
    return (i, j), total


def assemble_resilient(results, n: int) -> np.ndarray:
    """Assemble the global product from the per-rank return values of an
    SPMD run of :func:`matmul_25d_resilient` (one ``((i, j), tile)``
    entry per fiber, wherever its acting root happened to live)."""
    out: np.ndarray | None = None
    for entry in results:
        if entry is None:
            continue
        (ti, tj), tile = entry
        if out is None:
            out = np.zeros((n, n), dtype=tile.dtype)
        bsz = tile.shape[0]
        out[ti * bsz : (ti + 1) * bsz, tj * bsz : (tj + 1) * bsz] = tile
    if out is None:
        raise ParameterError("no acting-root tiles in results")
    return out


def matmul_3d(comm: Comm, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3D matrix multiplication: the 2.5D algorithm at c = p^(1/3)."""
    c = round(comm.size ** (1.0 / 3.0))
    if c**3 != comm.size:
        raise ParameterError(
            f"3D algorithm needs a cubic processor count, got {comm.size}"
        )
    return matmul_25d(comm, a, b, c=c)
