"""The collective battery: each collective family's rank program and
closed-form oracle, written once.

:data:`BATTERY` maps a family name to a :class:`Collective` — a rank
program and the oracle call that predicts it, both built from one
:class:`Shape` (rank count, payload words, bcast payload kind, root).
The conformance grids (:func:`~repro.conformance.differ.collective_cases`,
:func:`~repro.conformance.differ.random_cases`) and the sweep engine's
``coll:*`` cells (:func:`~repro.sweep.runner.build_cell_program`,
:func:`~repro.sweep.runner.cell_oracle`) all look families up here, so
a sweep cell and a conformance case of the same shape run the same
program against the same prediction.

Adding a collective means one :data:`BATTERY` entry here (plus the
collective itself and its oracle); default-algorithm entries also
become ``coll:<op>`` sweep cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.conformance import oracles as _o
from repro.conformance.oracles import OracleCosts, OracleSpec, string_words
from repro.exceptions import ParameterError
from repro.simmpi import collectives as _c

__all__ = ["BATTERY", "Collective", "Shape", "payload"]


def payload(kind: str, words: int):
    """(builder, words) for a payload of ``kind``; the word count is
    computed from the documented convention, not via
    :func:`repro.simmpi.payload.payload_words` — so the grid also
    cross-checks the word-accounting layer itself."""
    if kind == "none":
        return (lambda: None), 0
    if kind == "array":
        return (lambda: np.arange(float(words))), words
    if kind == "scalar":
        return (lambda: 1.5), 1
    if kind == "str":
        text = "conformance-" * 3
        return (lambda: text), string_words(text)
    if kind == "dict":
        return (
            lambda: {"a": np.arange(float(words)), "b": "oracle!!"},
            words + string_words("oracle!!"),
        )
    if kind == "tuple":
        return (lambda: (np.arange(float(words)), 2.0)), words + 1
    raise ParameterError(f"unknown payload kind {kind!r}")


@dataclass(frozen=True)
class Shape:
    """The sizes one battery run uses.

    ``words`` sizes the bcast payload (of ``kind``) and the reduce,
    allreduce and scatter-allgather-bcast vectors; ``total`` the
    reduce_scatter and reduce-scatter-gather vectors (default
    ``3 words + 5``, deliberately not divisible by most p);
    ``ragged[r]`` rank r's block for allgather/gather/scatter (default
    ``3 + r % 4``); ``block`` each all-to-all block. ``root`` defaults
    to the last rank, exercising the vrank rotation.
    """

    p: int
    words: int = 17
    kind: str = "array"
    root: int | None = None
    total: int | None = None
    ragged: tuple[int, ...] | None = None
    block: int = 3

    def __post_init__(self) -> None:
        if self.root is None:
            object.__setattr__(self, "root", self.p - 1)
        if self.total is None:
            object.__setattr__(self, "total", 3 * self.words + 5)
        if self.ragged is None:
            object.__setattr__(
                self, "ragged", tuple(3 + r % 4 for r in range(self.p))
            )


@dataclass(frozen=True)
class Collective:
    """One battery family: ``program(shape)`` is the rank program,
    ``oracle(spec, shape)`` its closed-form prediction."""

    program: Callable[[Shape], Callable]
    oracle: Callable[[OracleSpec, Shape], OracleCosts]
    #: one of the ten default-algorithm collectives (a ``coll:*`` cell)
    default: bool = True
    #: takes a root (the cell records it)
    rooted: bool = False
    #: runs only at power-of-two sizes (Bruck)
    pow2_only: bool = False


def _blocks(block: int, p: int) -> list:
    """One all-to-all rank's p blocks, each ``np.arange(float(block))``:
    the rows of one tiled array, built by one numpy call instead of p."""
    return list(np.tile(np.arange(float(block)), (p, 1)))


def _bcast(s: Shape):
    build, _words = payload(s.kind, s.words)
    return lambda comm: _c.bcast(
        comm, build() if comm.rank == s.root else None, root=s.root
    )


#: Family name -> Collective, in grid order. Rank programs call the
#: collectives through the module so wrappers installed on it see them.
BATTERY: dict[str, Collective] = {
    "barrier": Collective(
        lambda s: lambda comm: _c.barrier(comm),
        lambda spec, s: _o.oracle_barrier(spec),
    ),
    "bcast": Collective(
        _bcast,
        lambda spec, s: _o.oracle_bcast(
            spec, payload(s.kind, s.words)[1], root=s.root
        ),
        rooted=True,
    ),
    "reduce": Collective(
        lambda s: lambda comm: _c.reduce(
            comm, np.arange(float(s.words)), root=s.root
        ),
        lambda spec, s: _o.oracle_reduce(spec, s.words, root=s.root),
        rooted=True,
    ),
    "allreduce": Collective(
        lambda s: lambda comm: _c.allreduce(comm, np.arange(float(s.words))),
        lambda spec, s: _o.oracle_allreduce(spec, s.words),
    ),
    "allreduce_rd": Collective(
        lambda s: lambda comm: _c.allreduce(
            comm, np.arange(float(s.words)), algorithm="recursive_doubling"
        ),
        lambda spec, s: _o.oracle_allreduce_recursive_doubling(spec, s.words),
        default=False,
    ),
    "reduce_scatter": Collective(
        lambda s: lambda comm: _c.reduce_scatter(comm, np.arange(float(s.total))),
        lambda spec, s: _o.oracle_reduce_scatter(spec, s.total),
    ),
    "reduce_rsg": Collective(
        lambda s: lambda comm: _c.reduce(
            comm,
            np.arange(float(s.total)),
            root=s.root,
            algorithm="reduce_scatter_gather",
        ),
        lambda spec, s: _o.oracle_reduce_scatter_gather(spec, s.total, root=s.root),
        default=False,
        rooted=True,
    ),
    "allgather": Collective(
        lambda s: lambda comm: _c.allgather(
            comm, np.arange(float(s.ragged[comm.rank]))
        ),
        lambda spec, s: _o.oracle_allgather(spec, list(s.ragged)),
    ),
    "gather": Collective(
        lambda s: lambda comm: _c.gather(
            comm, np.arange(float(s.ragged[comm.rank])), root=s.root
        ),
        lambda spec, s: _o.oracle_gather(spec, list(s.ragged), root=s.root),
        rooted=True,
    ),
    "scatter": Collective(
        lambda s: lambda comm: _c.scatter(
            comm,
            [np.arange(float(w)) for w in s.ragged] if comm.rank == s.root else None,
            root=s.root,
        ),
        lambda spec, s: _o.oracle_scatter(spec, list(s.ragged), root=s.root),
        rooted=True,
    ),
    "alltoall": Collective(
        lambda s: lambda comm: _c.alltoall(comm, _blocks(s.block, comm.size)),
        lambda spec, s: _o.oracle_alltoall(spec, s.block),
    ),
    "alltoall_bruck": Collective(
        lambda s: lambda comm: _c.alltoall_bruck(comm, _blocks(s.block, comm.size)),
        lambda spec, s: _o.oracle_alltoall_bruck(spec, s.block),
        pow2_only=True,
    ),
    "bcast_sa": Collective(
        lambda s: lambda comm: _c.bcast(
            comm,
            np.arange(float(s.words)).reshape(1, s.words)
            if comm.rank == s.root
            else None,
            root=s.root,
            algorithm="scatter_allgather",
        ),
        lambda spec, s: _o.oracle_bcast_scatter_allgather(spec, s.words, root=s.root),
        default=False,
        rooted=True,
    ),
}
