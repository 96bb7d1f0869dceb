"""LU factorization — sequential blocked reference and parallel 2D LU.

The paper analyses 2.5D LU only through its cost model (bandwidth
strongly scales like matmul, latency S = sqrt(c p) does not, because of
the critical path through the diagonal); see
:class:`repro.core.costs.LU25DCosts`. Here we implement the executable
pieces:

* :func:`blocked_lu` — sequential right-looking blocked LU (no
  pivoting), the local reference.
* :func:`lu_2d` — parallel right-looking block LU without pivoting on a
  sqrt(p) x sqrt(p) grid (the c = 1 point of the 2.5D family). Each of
  the q diagonal steps factorizes the diagonal tile, solves the panel
  tiles, broadcasts panels along rows/columns and updates the trailing
  matrix — the sqrt(p)-deep critical path whose latency term the paper
  highlights is directly visible in the measured per-rank message
  counts (S grows with sqrt(p) even at fixed W).

No pivoting: tests use diagonally dominant matrices, for which LU
without pivoting is backward stable; the communication pattern (the
object of study) is unchanged by pivoting strategy up to lower-order
terms.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.summa import square_layout
from repro.exceptions import ParameterError
from repro.simmpi.cart import CartComm
from repro.simmpi.comm import Comm

__all__ = ["blocked_lu", "lu_2d", "lu_flop_count"]


def blocked_lu(a: np.ndarray, block: int = 32, flop_counter=None) -> tuple[np.ndarray, np.ndarray]:
    """Right-looking blocked LU without pivoting: A = L U.

    Returns (L, U) with unit-diagonal L. Raises on a (numerically) zero
    pivot.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError(f"need a square matrix, got {a.shape}")
    if block < 1:
        raise ParameterError(f"block must be >= 1, got {block}")
    count = flop_counter if flop_counter is not None else (lambda _: None)
    n = a.shape[0]
    u = np.array(a, dtype=float, copy=True)
    lo = np.eye(n)
    for k0 in range(0, n, block):
        k1 = min(k0 + block, n)
        _lu_inplace(u, lo, k0, k1, count)
        if k1 < n:
            # Panel solves: L21 = A21 U11^{-1}, U12 = L11^{-1} A12.
            l11 = lo[k0:k1, k0:k1]
            u11 = u[k0:k1, k0:k1]
            b = k1 - k0
            lo[k1:, k0:k1] = _trsm_right_upper(u[k1:, k0:k1], u11)
            u[k1:, k0:k1] = 0.0
            u[k0:k1, k1:] = _trsm_left_unit_lower(l11, u[k0:k1, k1:])
            count(2.0 * b * b * (n - k1))  # two triangular solves
            # Trailing update.
            u[k1:, k1:] -= lo[k1:, k0:k1] @ u[k0:k1, k1:]
            count(2.0 * b * (n - k1) ** 2)
    return lo, u


def _lu_inplace(u, lo, k0, k1, count) -> None:
    """Unblocked LU of the diagonal block [k0:k1), factors split into
    lo (unit lower) and u (upper)."""
    for k in range(k0, k1):
        piv = u[k, k]
        if abs(piv) < 1e-300:
            raise ParameterError(f"zero pivot at index {k}; matrix needs pivoting")
        col = u[k + 1 : k1, k] / piv
        lo[k + 1 : k1, k] = col
        u[k + 1 : k1, k:k1] -= np.outer(col, u[k, k:k1])
        u[k + 1 : k1, k] = 0.0
        count(2.0 * (k1 - k - 1) * (k1 - k))
    b = k1 - k0
    count(0.0 if b <= 1 else 0.0)


def _trsm_right_upper(b: np.ndarray, u11: np.ndarray) -> np.ndarray:
    """Solve X U11 = B for X (U11 upper triangular)."""
    return np.linalg.solve(u11.T, b.T).T


def _trsm_left_unit_lower(l11: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L11 X = B for X (L11 unit lower triangular)."""
    return np.linalg.solve(l11, b)


def lu_flop_count(n: int) -> float:
    """Leading-order flop count of LU: (2/3) n^3."""
    return 2.0 * n**3 / 3.0


def lu_2d(comm: Comm, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parallel 2D block LU without pivoting.

    Parameters
    ----------
    comm:
        Communicator of square size p = q^2.
    a:
        Global square matrix, order divisible by q; should be
        diagonally dominant (no pivoting).

    Returns
    -------
    (L_tile, U_tile): this rank's (i, j) tiles of the unit-lower and
    upper factors.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError(f"need a square matrix, got {a.shape}")
    n = a.shape[0]
    q = square_layout(comm.size, n)
    bsz = n // q
    grid = CartComm(comm, (q, q))
    i, j = grid.coords
    row = grid.sub((False, True))  # fixed i, rank = j
    col = grid.sub((True, False))  # fixed j, rank = i

    a_tile = a[i * bsz : (i + 1) * bsz, j * bsz : (j + 1) * bsz].astype(float)
    comm.allocate(3 * bsz * bsz)
    l_tile = np.zeros((bsz, bsz))
    u_tile = np.zeros((bsz, bsz))
    if i == j:
        l_tile = np.eye(bsz)

    for k in range(q):
        # 1. Diagonal rank factorizes its (updated) tile.
        if i == k and j == k:
            l_kk, u_kk = blocked_lu(a_tile, block=bsz, flop_counter=comm.add_flops)
            l_tile, u_tile = l_kk, u_kk
        else:
            l_kk = u_kk = None
        # 2. Panel solves need the diagonal factors: U_kk down column k's
        #    row ... precisely: ranks (i, k), i > k need U_kk; ranks
        #    (k, j), j > k need L_kk.
        if j == k:
            u_kk = col.comm.bcast(u_kk if i == k else None, root=k)
            if i > k:
                l_tile = _trsm_right_upper(a_tile, u_kk)
                comm.add_flops(float(bsz) ** 3)
        if i == k:
            l_kk = row.comm.bcast(l_kk if j == k else None, root=k)
            if j > k:
                u_tile = _trsm_left_unit_lower(l_kk, a_tile)
                comm.add_flops(float(bsz) ** 3)
        # 3. Broadcast panels into the trailing quadrant and update.
        l_ik = row.comm.bcast(l_tile if j == k else None, root=k) if i > k else None
        u_kj = col.comm.bcast(u_tile if i == k else None, root=k) if j > k else None
        if i > k and j > k:
            a_tile = a_tile - l_ik @ u_kj
            comm.add_flops(2.0 * float(bsz) ** 3)
    comm.release()
    return l_tile, u_tile
