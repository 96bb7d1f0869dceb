"""Cannon's algorithm [8] — the other classical 2D matrix multiply.

p = q^2 ranks on a periodic q x q grid. After an initial skew (A tiles
rotate left by their row index, B tiles rotate up by their column
index), q multiply-shift steps each combine the resident tiles and
rotate A left / B up by one. Identical asymptotic costs to SUMMA
(F = 2n^3/p, W = Theta(n^2/sqrt(p))) but with point-to-point shifts
instead of broadcasts — exactly 2(q-1) + 2q tile messages per rank.

The 2.5D algorithm of :mod:`repro.algorithms.matmul25d` generalizes this
kernel, so keeping the 2D version standalone gives the c = 1 baseline an
independent implementation to validate against.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ParameterError
from repro.simmpi.cart import CartComm
from repro.simmpi.comm import Comm

from repro.algorithms.summa import square_layout

__all__ = ["cannon_matmul"]


def cannon_matmul(comm: Comm, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Multiply global matrices with Cannon's algorithm; returns this
    rank's C tile (grid coordinates (i, j), tile order n/sqrt(p)).

    Operands are global read-only arrays; each rank slices its tile
    locally (free initial layout) and all shifts are metered.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise ParameterError(
            f"need equal square operands, got {a.shape} and {b.shape}"
        )
    n = a.shape[0]
    q = square_layout(comm.size, n)
    grid = CartComm(comm, (q, q), periodic=True)
    i, j = grid.coords
    bsz = n // q

    a_tile = a[i * bsz : (i + 1) * bsz, j * bsz : (j + 1) * bsz].copy()
    b_tile = b[i * bsz : (i + 1) * bsz, j * bsz : (j + 1) * bsz].copy()
    comm.allocate(3 * bsz * bsz)

    # Initial skew: row i of A rotates left i steps; column j of B rotates
    # up j steps. (A left-rotation is a shift toward lower column index,
    # i.e. displacement -i along dim 1.)
    if i:
        a_tile = grid.shift(a_tile, dim=1, displacement=-i, tag="skewA")
    if j:
        b_tile = grid.shift(b_tile, dim=0, displacement=-j, tag="skewB")

    c_tile = np.zeros((bsz, bsz), dtype=np.result_type(a, b))
    for step in range(q):
        c_tile += a_tile @ b_tile
        comm.add_flops(2.0 * bsz * bsz * bsz)
        if step < q - 1:
            a_tile = grid.shift(a_tile, dim=1, displacement=-1, tag=("A", step))
            b_tile = grid.shift(b_tile, dim=0, displacement=-1, tag=("B", step))
    comm.release()
    return c_tile
