"""Triangular solves and the end-to-end linear solver.

Section III's bound class explicitly includes "triangular solve with
one or multiple right hand sides"; this module supplies the executable
pieces and closes the loop from factorization to solution:

* :func:`trisolve_lower` / :func:`trisolve_upper` — sequential
  substitution, flop-metered (n^2 flops leading order).
* :func:`trisolve_lower_2d` / :func:`trisolve_upper_2d` — parallel
  substitution on the same sqrt(p) x sqrt(p) grid the factorizations
  use: each block-row's partial sums reduce along the grid row to the
  diagonal rank, which solves its block and broadcasts it down its
  column. Substitution's dependency chain is even stricter than LU's —
  block-row k waits on all previous — so its critical path (virtual
  clocks) degrades with p while the flop share improves: a miniature of
  the paper's latency caveat.
* :func:`lu_solve` / :func:`lu_solve_2d` — factor + two substitutions:
  A x = b solved entirely with the library's own kernels.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.lu import blocked_lu, lu_2d
from repro.algorithms.summa import square_layout
from repro.exceptions import ParameterError
from repro.simmpi.cart import CartComm
from repro.simmpi.comm import Comm

__all__ = [
    "trisolve_lower",
    "trisolve_upper",
    "trisolve_lower_2d",
    "trisolve_upper_2d",
    "lu_solve",
    "lu_solve_2d",
]


def trisolve_lower(
    lo: np.ndarray, b: np.ndarray, unit_diagonal: bool = True, flop_counter=None
) -> np.ndarray:
    """Solve L y = b by forward substitution (L lower triangular)."""
    _check_triangular(lo, b)
    count = flop_counter if flop_counter is not None else (lambda _: None)
    n = lo.shape[0]
    y = np.array(b, dtype=float, copy=True)
    for i in range(n):
        if i:
            y[i] -= lo[i, :i] @ y[:i]
            count(2.0 * i)
        if not unit_diagonal:
            if abs(lo[i, i]) < 1e-300:
                raise ParameterError(f"singular triangular factor at {i}")
            y[i] /= lo[i, i]
            count(1.0)
    return y


def trisolve_upper(up: np.ndarray, y: np.ndarray, flop_counter=None) -> np.ndarray:
    """Solve U x = y by back substitution (U upper triangular)."""
    _check_triangular(up, y)
    count = flop_counter if flop_counter is not None else (lambda _: None)
    n = up.shape[0]
    x = np.array(y, dtype=float, copy=True)
    for i in range(n - 1, -1, -1):
        if i < n - 1:
            x[i] -= up[i, i + 1 :] @ x[i + 1 :]
            count(2.0 * (n - 1 - i))
        if abs(up[i, i]) < 1e-300:
            raise ParameterError(f"singular triangular factor at {i}")
        x[i] /= up[i, i]
        count(1.0)
    return x


def _check_triangular(t: np.ndarray, b: np.ndarray) -> None:
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ParameterError(f"need a square triangular factor, got {t.shape}")
    if b.shape[0] != t.shape[0]:
        raise ParameterError(
            f"right-hand side length {b.shape[0]} != order {t.shape[0]}"
        )


def _grid_ctx(comm: Comm, n: int):
    q = square_layout(comm.size, n)
    grid = CartComm(comm, (q, q))
    i, j = grid.coords
    row = grid.sub((False, True))  # fixed i, local rank = j
    col = grid.sub((True, False))  # fixed j, local rank = i
    return q, n // q, i, j, row, col


def trisolve_lower_2d(
    comm: Comm,
    lo_tile: np.ndarray,
    b: np.ndarray,
    unit_diagonal: bool = True,
) -> np.ndarray | None:
    """Forward substitution with L distributed as 2D tiles.

    ``lo_tile`` is this rank's (i, j) tile of L (layout of
    :func:`repro.algorithms.lu.lu_2d`), ``b`` the full replicated
    right-hand side. Returns block y_k on diagonal ranks (i == j == k),
    None elsewhere.
    """
    n = b.shape[0]
    q, bs, i, j, row, col = _grid_ctx(comm, n)
    y_col: np.ndarray | None = None  # y_j once column j's block is known
    result: np.ndarray | None = None
    for k in range(q):
        if i == k:
            if j < k:
                partial = lo_tile @ y_col
                comm.add_flops(2.0 * bs * bs)
            else:
                partial = np.zeros(bs)
            total = row.comm.reduce(partial, root=k)
            if j == k:
                rhs = b[k * bs : (k + 1) * bs] - total
                result = trisolve_lower(
                    lo_tile, rhs, unit_diagonal=unit_diagonal,
                    flop_counter=comm.add_flops,
                )
        if j == k:
            y_col = col.comm.bcast(result if i == k else None, root=k)
    return result


def trisolve_upper_2d(
    comm: Comm, up_tile: np.ndarray, y: np.ndarray
) -> np.ndarray | None:
    """Back substitution with U distributed as 2D tiles (mirror of
    :func:`trisolve_lower_2d`, block-rows processed last to first)."""
    n = y.shape[0]
    q, bs, i, j, row, col = _grid_ctx(comm, n)
    x_col: np.ndarray | None = None
    result: np.ndarray | None = None
    for k in range(q - 1, -1, -1):
        if i == k:
            if j > k:
                partial = up_tile @ x_col
                comm.add_flops(2.0 * bs * bs)
            else:
                partial = np.zeros(bs)
            total = row.comm.reduce(partial, root=k)
            if j == k:
                rhs = y[k * bs : (k + 1) * bs] - total
                result = trisolve_upper(
                    up_tile, rhs, flop_counter=comm.add_flops
                )
        if j == k:
            x_col = col.comm.bcast(result if i == k else None, root=k)
    return result


def lu_solve(a: np.ndarray, b: np.ndarray, block: int = 32) -> np.ndarray:
    """Solve A x = b sequentially with the library's own LU + substitutions."""
    lo, up = blocked_lu(a, block=block)
    return trisolve_upper(up, trisolve_lower(lo, b))


def lu_solve_2d(comm: Comm, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b on a 2D grid: parallel LU, forward and back
    substitution, then an allgather of the diagonal blocks so every
    rank returns the full solution."""
    if b.shape[0] != a.shape[0]:
        raise ParameterError(
            f"right-hand side length {b.shape[0]} != order {a.shape[0]}"
        )
    lo_tile, up_tile = lu_2d(comm, a)
    y_block = trisolve_lower_2d(comm, lo_tile, b)
    n = a.shape[0]
    q = square_layout(comm.size, n)
    bs = n // q
    # Diagonal ranks hold y blocks; everyone needs the full y for the
    # back substitution's replicated right-hand side.
    parts = comm.allgather(y_block)
    y = np.concatenate([parts[k * q + k] for k in range(q)])
    x_block = trisolve_upper_2d(comm, up_tile, y)
    parts = comm.allgather(x_block)
    return np.concatenate([parts[k * q + k] for k in range(q)])
