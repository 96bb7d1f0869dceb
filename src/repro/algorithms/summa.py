"""SUMMA — Scalable Universal Matrix Multiplication Algorithm [9].

The reference "2D" classical algorithm: p ranks on a sqrt(p) x sqrt(p)
grid, one n/sqrt(p) x n/sqrt(p) tile of each operand per rank
(M = Theta(n^2/p)). Outer-product formulation: at step k every rank in
grid column k broadcasts its A tile along its row, every rank in grid
row k broadcasts its B tile down its column, and all ranks accumulate
the local product.

Per-rank costs (q = sqrt(p), tile b = n/q): F = 2 n^3/p exactly;
W = Theta(q tiles) = Theta(n^2/sqrt(p)) — the 2D point of the paper's
cost expressions (Eq. 8 with M = n^2/p).
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ParameterError
from repro.simmpi.cart import CartComm
from repro.simmpi.comm import Comm

__all__ = ["summa_matmul", "square_grid_side", "square_layout"]


def square_grid_side(p: int) -> int:
    """sqrt(p) if p is a perfect square, else raise."""
    q = int(math.isqrt(p))
    if q * q != p:
        raise ParameterError(f"2D algorithms need a square processor count, got {p}")
    return q


def square_layout(p: int, n: int) -> int:
    """Check a q x q grid for order-n tiles (q | n); return q."""
    q = square_grid_side(p)
    if n % q:
        raise ParameterError(f"matrix order {n} must be divisible by grid side {q}")
    return q


def summa_matmul(comm: Comm, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Multiply global matrices with SUMMA; returns this rank's C tile.

    Parameters
    ----------
    comm:
        Communicator of square size p = q^2.
    a, b:
        *Global* operands, shape (n, n) with q | n. Each rank slices its
        own tile locally (the initial distribution is free, per the
        paper's model); all algorithmic traffic is metered.

    Returns
    -------
    The (i, j) tile of C = A @ B for this rank's grid coordinates.
    """
    _check_square(a, b)
    n = a.shape[0]
    q = square_layout(comm.size, n)
    grid = CartComm(comm, (q, q))
    i, j = grid.coords
    bsz = n // q

    a_tile = a[i * bsz : (i + 1) * bsz, j * bsz : (j + 1) * bsz].copy()
    b_tile = b[i * bsz : (i + 1) * bsz, j * bsz : (j + 1) * bsz].copy()
    comm.allocate(3 * bsz * bsz)  # A, B, C tiles resident

    row = grid.sub((False, True))  # ranks sharing i, local rank = j
    col = grid.sub((True, False))  # ranks sharing j, local rank = i

    c_tile = np.zeros((bsz, bsz), dtype=np.result_type(a, b))
    for k in range(q):
        a_k = row.comm.bcast(a_tile if j == k else None, root=k)
        b_k = col.comm.bcast(b_tile if i == k else None, root=k)
        c_tile += a_k @ b_k
        comm.add_flops(2.0 * bsz * bsz * bsz)
    comm.release()
    return c_tile


def _check_square(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError(f"A must be square, got {a.shape}")
    if b.shape != a.shape:
        raise ParameterError(f"A and B shapes differ: {a.shape} vs {b.shape}")
