"""CAPS — Communication-Avoiding Parallel Strassen [15].

Multiplies two n x n matrices on p = 7^k ranks with Strassen's recursion
mapped onto the machine:

* **BFS step** (breadth-first, data-parallel): all p ranks jointly form
  the 7 Strassen subproblems (local linear combinations — no
  communication), then *redistribute* so each of 7 groups of p/7 ranks
  owns one subproblem, and recurse within the groups. Costs one
  all-to-all-style exchange; divides p by 7 and n by 2.
* **DFS step** (depth-first, sequential): all p ranks solve the 7
  subproblems one after another. No communication, 7x less memory —
  the tool for the memory-limited (FLM) regime.
* **Base case** (p = 1): local classical or sequential-Strassen multiply.

Data layout — the trick that makes every combination local:

* matrices are stored as *Morton-order* flat arrays to the recursion
  depth (quadrants contiguous at every level), and
* distributed *cyclically by flat index*: rank r holds elements
  e === r (mod p).

Then (a) a quadrant's local elements are a contiguous slice of the local
array, (b) linear combinations of quadrants are elementwise on aligned
local slices, and (c) the BFS redistribution is exactly one message per
subproblem per rank: all of rank r's elements of subproblem i go to
group-i member r mod (p/7), because e === r (mod p) implies
e === r (mod p/7).

With all-BFS (unlimited memory) the per-rank bandwidth is
sum_d Theta((n/2^d)^2 / 7^(k-d)) = Theta(n^2 / p^(2/omega0)) — the CAPS
word bound at the memory ceiling; prepending DFS steps reproduces the
limited-memory cost n^omega0 / (p M^(omega0/2 - 1)).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.distributions import cyclic_merge, cyclic_slice, from_morton, to_morton
from repro.algorithms.strassen import DEFAULT_CUTOFF, strassen_matmul
from repro.exceptions import ParameterError
from repro.simmpi.comm import Comm

__all__ = ["caps_matmul", "caps_assemble", "caps_depth", "caps_layout", "is_power_of_7"]


def is_power_of_7(p: int) -> bool:
    """True iff p = 7^k for some integer k >= 0."""
    if p < 1:
        return False
    while p % 7 == 0:
        p //= 7
    return p == 1


def _log7(p: int) -> int:
    k = 0
    while p > 1:
        if p % 7:
            raise ParameterError(f"CAPS needs p = 7^k ranks, got {p}")
        p //= 7
        k += 1
    return k


def caps_depth(p: int, dfs_steps: int) -> int:
    """Total recursion depth (Morton depth) = dfs_steps + log7(p)."""
    return dfs_steps + _log7(p)


def caps_layout(p: int, n: int, dfs_steps: int = 0) -> int:
    """Check p = 7^k ranks and order-n operands for ``dfs_steps`` DFS
    plus k BFS steps; return k."""
    if dfs_steps < 0:
        raise ParameterError(f"dfs_steps must be >= 0, got {dfs_steps}")
    k = _log7(p)
    depth = dfs_steps + k
    if depth and n % (1 << depth):
        raise ParameterError(
            f"matrix order {n} must be divisible by 2^{depth} "
            f"(= {1 << depth}) for {dfs_steps} DFS + {k} BFS steps"
        )
    cur_n, cur_p = n, p
    if (cur_n * cur_n) % cur_p:
        raise ParameterError(
            f"p={p} must divide n^2={n * n} for an equal cyclic distribution"
        )
    for _ in range(dfs_steps):
        if (cur_n * cur_n) % (4 * cur_p):
            raise ParameterError(
                f"DFS step at order {cur_n} on {cur_p} ranks: quadrant "
                f"size {cur_n * cur_n // 4} not divisible by {cur_p}; "
                "choose n divisible by a larger power of 2 times 7"
            )
        cur_n //= 2
    for _ in range(k):
        if (cur_n * cur_n) % (4 * cur_p):
            raise ParameterError(
                f"BFS step at order {cur_n} on {cur_p} ranks: quadrant "
                f"size {cur_n * cur_n // 4} not divisible by {cur_p}; "
                "choose n divisible by 7 * 2^depth (e.g. n = 14 t for "
                "p = 7, n = 28 t for p = 49)"
            )
        cur_n //= 2
        cur_p //= 7
    return k


def caps_matmul(
    comm: Comm,
    a: np.ndarray,
    b: np.ndarray,
    dfs_steps: int = 0,
    cutoff: int = DEFAULT_CUTOFF,
    local_strassen: bool = True,
) -> np.ndarray:
    """Multiply global matrices with CAPS; returns this rank's cyclic
    share of the Morton-flattened product.

    Parameters
    ----------
    comm:
        Communicator of size p = 7^k.
    a, b:
        Global square operands; see :func:`caps_depth` /
        the module docstring for divisibility requirements.
    dfs_steps:
        Memory-saving sequential recursion steps performed before the
        BFS (parallel) steps. 0 = the unlimited-memory regime.
    cutoff, local_strassen:
        Base-case policy: sequential Strassen with the given cutoff, or
        (``local_strassen=False``) one classical multiply.

    Use :func:`caps_assemble` on the gathered per-rank results to
    recover C.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise ParameterError(
            f"need equal square operands, got {a.shape} and {b.shape}"
        )
    p = comm.size
    n = a.shape[0]
    depth = dfs_steps + caps_layout(p, n, dfs_steps)

    a_loc = cyclic_slice(to_morton(a, depth), comm.rank, p)
    b_loc = cyclic_slice(to_morton(b, depth), comm.rank, p)
    comm.allocate(3 * a_loc.size)
    try:
        return _caps(comm, a_loc, b_loc, n, dfs_steps, cutoff, local_strassen, depth=0)
    finally:
        comm.release()


def caps_assemble(
    results: list[np.ndarray], n: int, p: int, dfs_steps: int = 0
) -> np.ndarray:
    """Reassemble C from the rank-indexed list of :func:`caps_matmul`
    outputs."""
    depth = caps_depth(p, dfs_steps)
    flat = cyclic_merge(list(results), n * n)
    return from_morton(flat, n, depth)


# ----------------------------------------------------------------------
# recursion
# ----------------------------------------------------------------------


def _caps(comm, a_loc, b_loc, n, dfs_remaining, cutoff, local_strassen, depth):
    if dfs_remaining > 0:
        return _dfs_step(
            comm, a_loc, b_loc, n, dfs_remaining, cutoff, local_strassen, depth
        )
    if comm.size > 1:
        return _bfs_step(comm, a_loc, b_loc, n, cutoff, local_strassen, depth)
    # Base case: the whole (sub)matrix lives here, Morton depth exhausted.
    a_mat = a_loc.reshape(n, n)
    b_mat = b_loc.reshape(n, n)
    if local_strassen:
        c = strassen_matmul(a_mat, b_mat, cutoff=cutoff, flop_counter=comm.add_flops)
    else:
        comm.add_flops(2.0 * float(n) ** 3)
        c = a_mat @ b_mat
    return np.ascontiguousarray(c).ravel()


def _quadrants(loc: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four aligned local quadrant slices of a Morton-flat share."""
    s = loc.size // 4
    return loc[:s], loc[s : 2 * s], loc[2 * s : 3 * s], loc[3 * s :]


def _combine_inputs(comm, a_loc, b_loc):
    """The 7 Strassen operand pairs (T_i, S_i), formed locally."""
    a11, a12, a21, a22 = _quadrants(a_loc)
    b11, b12, b21, b22 = _quadrants(b_loc)
    sz = float(a11.size)
    comm.add_flops(10.0 * sz)  # 10 elementwise combinations
    return [
        (a11 + a22, b11 + b22),
        (a21 + a22, b11),
        (a11, b12 - b22),
        (a22, b21 - b11),
        (a11 + a12, b22),
        (a21 - a11, b11 + b12),
        (a12 - a22, b21 + b22),
    ]


def _combine_outputs(comm, m):
    """C quadrants from the 7 products, formed locally; returns the
    concatenated Morton-flat share."""
    sz = float(m[0].size)
    comm.add_flops(8.0 * sz)  # 8 elementwise combinations
    c11 = m[0] + m[3] - m[4] + m[6]
    c12 = m[2] + m[4]
    c21 = m[1] + m[3]
    c22 = m[0] - m[1] + m[2] + m[5]
    return np.concatenate([c11, c12, c21, c22])


def _dfs_step(comm, a_loc, b_loc, n, dfs_remaining, cutoff, local_strassen, depth):
    pairs = _combine_inputs(comm, a_loc, b_loc)
    m = []
    for t_i, s_i in pairs:
        m.append(
            _caps(
                comm, t_i, s_i, n // 2, dfs_remaining - 1, cutoff, local_strassen,
                depth + 1,
            )
        )
    return _combine_outputs(comm, m)


def _bfs_step(comm, a_loc, b_loc, n, cutoff, local_strassen, depth):
    p = comm.size
    q = p // 7
    r = comm.rank
    my_group, j = divmod(r, q)  # group index, member index (groups contiguous)
    pairs = _combine_inputs(comm, a_loc, b_loc)

    # Forward redistribution: my share of subproblem i goes, whole, to
    # group-i member (r mod q); I receive the 7 shares of my group's
    # subproblem from the ranks congruent to me mod q.
    for i, (t_i, s_i) in enumerate(pairs):
        dest = i * q + (r % q)
        comm.send((t_i, s_i), dest, tag=("caps_fwd", depth, i))
    got = [comm.recv(j + q * u, tag=("caps_fwd", depth, my_group)) for u in range(7)]

    # Interleave: element e = j + q*u of the subproblem came from sender
    # u mod 7; local order is round-robin over the 7 received arrays.
    share = got[0][0].size * 7
    t_mine = np.empty(share, dtype=got[0][0].dtype)
    s_mine = np.empty(share, dtype=got[0][1].dtype)
    for u in range(7):
        t_mine[u::7] = got[u][0]
        s_mine[u::7] = got[u][1]

    group_comm = comm.split(color=my_group, key=r)
    m_mine = _caps(
        group_comm, t_mine, s_mine, n // 2, 0, cutoff, local_strassen, depth + 1
    )

    # Backward redistribution: member j of group g holds elements
    # e === j (mod q) of M_g; the sub-sequence u === s (mod 7) belongs to
    # parent rank j + q*s.
    for s_idx in range(7):
        dest = j + q * s_idx
        comm.send(m_mine[s_idx::7], dest, tag=("caps_bwd", depth, my_group))
    m = [comm.recv(i * q + (r % q), tag=("caps_bwd", depth, i)) for i in range(7)]
    return _combine_outputs(comm, m)
