"""Cholesky factorization — another member of Section III's bound class.

The communication lower bounds of [2] cover "LU, Cholesky, LDL^T, QR";
Cholesky shares LU's structure (and its critical path) at half the
flops. Provided:

* :func:`blocked_cholesky` — sequential right-looking blocked Cholesky
  (A = L L^T for symmetric positive definite A), flop-metered.
* :func:`cholesky_2d` — parallel right-looking block Cholesky on a
  sqrt(p) x sqrt(p) grid. Only the lower triangle of the grid does
  update work; the panel broadcasts walk the same critical path as LU,
  so the per-rank message count again grows with p — more evidence for
  the paper's latency caveat beyond LU itself.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.summa import square_layout
from repro.exceptions import ParameterError
from repro.simmpi.cart import CartComm
from repro.simmpi.comm import Comm

__all__ = ["blocked_cholesky", "cholesky_2d", "cholesky_flop_count"]


def cholesky_flop_count(n: int) -> float:
    """Leading-order flops: n^3 / 3."""
    return n**3 / 3.0


def blocked_cholesky(
    a: np.ndarray, block: int = 32, flop_counter=None
) -> np.ndarray:
    """A = L L^T for symmetric positive definite A; returns lower L.

    Right-looking: factor the diagonal block, triangular-solve the panel
    below it, symmetric-rank-k update the trailing matrix.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError(f"need a square matrix, got {a.shape}")
    if block < 1:
        raise ParameterError(f"block must be >= 1, got {block}")
    count = flop_counter if flop_counter is not None else (lambda _: None)
    n = a.shape[0]
    w = np.array(a, dtype=float, copy=True)
    lo = np.zeros((n, n))
    for k0 in range(0, n, block):
        k1 = min(k0 + block, n)
        b = k1 - k0
        diag = w[k0:k1, k0:k1]
        try:
            l11 = np.linalg.cholesky(diag)
        except np.linalg.LinAlgError as exc:
            raise ParameterError(
                f"matrix is not positive definite at block {k0}"
            ) from exc
        count(b**3 / 3.0)
        lo[k0:k1, k0:k1] = l11
        if k1 < n:
            panel = np.linalg.solve(l11, w[k1:, k0:k1].T).T  # L21 = A21 L11^-T
            count(float(b * b * (n - k1)))
            lo[k1:, k0:k1] = panel
            w[k1:, k1:] -= panel @ panel.T
            count(float(b) * (n - k1) ** 2)
    return lo


def cholesky_2d(comm: Comm, a: np.ndarray) -> np.ndarray:
    """Parallel 2D block Cholesky; returns this rank's tile of L.

    Parameters
    ----------
    comm:
        Communicator of square size p = q^2.
    a:
        Global symmetric positive definite matrix, order divisible by q.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError(f"need a square matrix, got {a.shape}")
    n = a.shape[0]
    q = square_layout(comm.size, n)
    bsz = n // q
    grid = CartComm(comm, (q, q))
    i, j = grid.coords
    row = grid.sub((False, True))
    col = grid.sub((True, False))

    a_tile = a[i * bsz : (i + 1) * bsz, j * bsz : (j + 1) * bsz].astype(float)
    comm.allocate(2 * bsz * bsz)
    l_tile = np.zeros((bsz, bsz))

    for k in range(q):
        # 1. Diagonal rank factorizes its updated tile.
        if i == k and j == k:
            l_kk = blocked_cholesky(a_tile, block=bsz, flop_counter=comm.add_flops)
            l_tile = l_kk
        else:
            l_kk = None
        # 2. Column-k panel: ranks (i, k), i > k solve L_ik = A_ik L_kk^-T.
        if j == k:
            l_kk = col.comm.bcast(l_kk if i == k else None, root=k)
            if i > k:
                l_tile = np.linalg.solve(l_kk, a_tile.T).T
                comm.add_flops(float(bsz) ** 3)
        # 3. Trailing update A_ij -= L_ik L_jk^T for i >= j > k.
        l_ik = row.comm.bcast(l_tile if j == k else None, root=k) if i > k else None
        # L_jk^T travels down column j from the transposed panel member.
        # Rank (j, k) owns L_jk; rank (k, j) relays it down column j —
        # route via the transpose exchange:
        if i == k and j > k:
            l_jk = comm.recv(_grid_rank(j, k, q), tag=("chol_tr", k))
        elif j == k and i > k:
            comm.send(l_tile, _grid_rank(k, i, q), tag=("chol_tr", k))
            l_jk = None
        else:
            l_jk = None
        if j > k:
            l_jk = col.comm.bcast(l_jk if i == k else None, root=k)
            if i >= j:
                a_tile = a_tile - l_ik @ l_jk.T
                comm.add_flops(2.0 * float(bsz) ** 3)
    comm.release()
    return l_tile


def _grid_rank(i: int, j: int, q: int) -> int:
    return i * q + j
