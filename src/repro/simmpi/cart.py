"""Cartesian process topologies (grids and cuboids).

The paper's algorithms live on process grids: Cannon and SUMMA on a
sqrt(p) x sqrt(p) grid, the 2.5D algorithm on a
sqrt(p/c) x sqrt(p/c) x c cuboid, the replicated n-body algorithm on a
(p/c) x c grid. :class:`CartComm` wraps a :class:`~repro.simmpi.comm.Comm`
with coordinate arithmetic, neighbour shifts and axis sub-communicators,
mirroring ``MPI_Cart_create`` / ``MPI_Cart_shift`` / ``MPI_Cart_sub``.

Rank-to-coordinate mapping is row-major (last dimension fastest), like
MPI's default.
"""

from __future__ import annotations

import math
from typing import Any, Hashable, Sequence

from repro.exceptions import CommunicatorError
from repro.simmpi.comm import Comm

__all__ = ["CartComm", "factor_grid"]


def factor_grid(p: int, ndims: int) -> tuple[int, ...]:
    """Balanced dims for p ranks in ndims dimensions (MPI_Dims_create-ish).

    Greedy: repeatedly assign the largest prime factor to the smallest
    dimension. Product always equals p.
    """
    if p < 1 or ndims < 1:
        raise CommunicatorError(f"need p >= 1 and ndims >= 1, got {p}, {ndims}")
    dims = [1] * ndims
    for prime in _prime_factors_desc(p):
        dims.sort()
        dims[0] *= prime
    return tuple(sorted(dims, reverse=True))


def _prime_factors_desc(p: int) -> list[int]:
    out = []
    d = 2
    while d * d <= p:
        while p % d == 0:
            out.append(d)
            p //= d
        d += 1
    if p > 1:
        out.append(p)
    return sorted(out, reverse=True)


class CartComm:
    """A communicator arranged as an n-dimensional periodic grid."""

    def __init__(self, comm: Comm, dims: Sequence[int], periodic: bool = True):
        dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in dims):
            raise CommunicatorError(f"all dims must be >= 1, got {dims}")
        if math.prod(dims) != comm.size:
            raise CommunicatorError(
                f"dims {dims} (product {math.prod(dims)}) do not tile "
                f"communicator of size {comm.size}"
            )
        self.comm = comm
        self.dims = dims
        self.periodic = periodic
        #: (dim, displacement) -> (source, dest), filled on first use:
        #: a shift loop recomputes no coordinates
        self._shifts: dict[tuple[int, int], tuple[int, int]] = {}

    # -- coordinates ------------------------------------------------------

    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def ndims(self) -> int:
        return len(self.dims)

    @property
    def coords(self) -> tuple[int, ...]:
        """This rank's grid coordinates."""
        return self.rank_to_coords(self.comm.rank)

    def rank_to_coords(self, rank: int) -> tuple[int, ...]:
        """Row-major rank -> coordinates."""
        if not 0 <= rank < self.size:
            raise CommunicatorError(f"rank {rank} out of range for size {self.size}")
        coords = []
        for extent in reversed(self.dims):
            coords.append(rank % extent)
            rank //= extent
        return tuple(reversed(coords))

    def coords_to_rank(self, coords: Sequence[int]) -> int:
        """Coordinates -> row-major rank (periodic wraparound applied)."""
        if len(coords) != self.ndims:
            raise CommunicatorError(
                f"expected {self.ndims} coordinates, got {len(coords)}"
            )
        rank = 0
        for c, extent in zip(coords, self.dims):
            if self.periodic:
                c %= extent
            elif not 0 <= c < extent:
                raise CommunicatorError(
                    f"coordinate {c} out of bounds for non-periodic extent {extent}"
                )
            rank = rank * extent + c
        return rank

    # -- neighbour communication -------------------------------------------

    def shift_ranks(self, dim: int, displacement: int) -> tuple[int, int]:
        """(source, dest) ranks for a displacement along ``dim``
        (MPI_Cart_shift); computed once per (dim, displacement)."""
        pair = self._shifts.get((dim, displacement))
        if pair is None:
            self._check_dim(dim)
            coords = list(self.coords)
            coords[dim] += displacement
            dest = self.coords_to_rank(coords)
            coords[dim] -= 2 * displacement
            src = self.coords_to_rank(coords)
            pair = self._shifts[dim, displacement] = (src, dest)
        return pair

    def shift(self, obj: Any, dim: int, displacement: int, tag: Hashable = 0) -> Any:
        """Send ``obj`` ``displacement`` steps along ``dim``; return what
        arrives from the opposite neighbour."""
        src, dest = self.shift_ranks(dim, displacement)
        tag = ("_cshift", dim, tag)
        return self.comm.sendrecv(obj, dest, src, sendtag=tag, recvtag=tag)

    # -- sub-communicators ----------------------------------------------------

    def sub(self, remain_dims: Sequence[bool]) -> "CartComm":
        """Slice the grid (MPI_Cart_sub): keep the dimensions flagged True,
        grouping ranks that share coordinates in the dropped dimensions.

        Example on a (r, r, c) cuboid: ``sub((True, True, False))`` gives
        each layer its own r x r grid; ``sub((False, False, True))``
        gives the depth "fibers"."""
        remain = tuple(bool(b) for b in remain_dims)
        if len(remain) != self.ndims:
            raise CommunicatorError(
                f"remain_dims needs {self.ndims} entries, got {len(remain)}"
            )
        coords = self.coords
        color = tuple(c for c, keep in zip(coords, remain) if not keep)
        kept_dims = tuple(d for d, keep in zip(self.dims, remain) if keep)
        if not kept_dims:
            kept_dims = (1,)
        # Key: row-major index within the kept dimensions.
        key = 0
        for c, extent, keep in zip(coords, self.dims, remain):
            if keep:
                key = key * extent + c
        subcomm = self.comm.split(color=("_cartsub", remain, color), key=key)
        return CartComm(subcomm, kept_dims, periodic=self.periodic)

    def axis(self, dim: int) -> "CartComm":
        """The 1-D sub-communicator along ``dim`` through this rank."""
        self._check_dim(dim)
        remain = tuple(i == dim for i in range(self.ndims))
        return self.sub(remain)

    def _check_dim(self, dim: int) -> None:
        if not 0 <= dim < self.ndims:
            raise CommunicatorError(
                f"dimension {dim} out of range for {self.ndims}-D grid"
            )
