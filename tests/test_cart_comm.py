"""Tests for Cartesian topologies and sub-communicators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CommunicatorError, RankFailedError
from repro.simmpi.cart import CartComm, factor_grid
from repro.simmpi.engine import run_spmd


class TestFactorGrid:
    def test_square(self):
        assert factor_grid(16, 2) == (4, 4)

    def test_cube(self):
        assert factor_grid(27, 3) == (3, 3, 3)

    def test_product_invariant(self):
        for p in (1, 2, 6, 12, 30, 64, 100):
            for d in (1, 2, 3):
                dims = factor_grid(p, d)
                assert len(dims) == d
                assert np.prod(dims) == p

    @given(st.integers(min_value=1, max_value=512),
           st.integers(min_value=1, max_value=4))
    def test_property(self, p, d):
        dims = factor_grid(p, d)
        assert np.prod(dims) == p
        assert all(x >= 1 for x in dims)
        assert tuple(sorted(dims, reverse=True)) == dims

    def test_invalid(self):
        with pytest.raises(CommunicatorError):
            factor_grid(0, 2)


class TestCoordinates:
    def test_row_major_mapping(self):
        def prog(comm):
            cc = CartComm(comm, (2, 3))
            return cc.coords

        out = run_spmd(6, prog)
        assert out.results == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))

    def test_roundtrip(self):
        def prog(comm):
            cc = CartComm(comm, (2, 2, 2))
            return cc.coords_to_rank(cc.rank_to_coords(comm.rank)) == comm.rank

        assert all(run_spmd(8, prog).results)

    def test_periodic_wraparound(self):
        def prog(comm):
            cc = CartComm(comm, (4,))
            return cc.coords_to_rank((5,))  # wraps to 1

        assert run_spmd(4, prog).results[0] == 1

    def test_nonperiodic_out_of_bounds(self):
        def prog(comm):
            cc = CartComm(comm, (4,), periodic=False)
            cc.coords_to_rank((5,))

        with pytest.raises(RankFailedError):
            run_spmd(4, prog)

    def test_dims_must_tile(self):
        def prog(comm):
            CartComm(comm, (2, 2))

        with pytest.raises(RankFailedError):
            run_spmd(6, prog)


class TestShift:
    def test_shift_ranks(self):
        def prog(comm):
            cc = CartComm(comm, (2, 2))
            return cc.shift_ranks(dim=1, displacement=1)

        out = run_spmd(4, prog)
        # rank 0 = (0,0): src (0,-1)->(0,1)=1, dest (0,1)=1
        assert out.results[0] == (1, 1)

    def test_data_rotates(self):
        def prog(comm):
            cc = CartComm(comm, (4,))
            return cc.shift(comm.rank * 10, dim=0, displacement=1)

        out = run_spmd(4, prog)
        assert out.results == (30, 0, 10, 20)

    def test_negative_displacement(self):
        def prog(comm):
            cc = CartComm(comm, (4,))
            return cc.shift(comm.rank, dim=0, displacement=-1)

        out = run_spmd(4, prog)
        assert out.results == (1, 2, 3, 0)

    def test_row_shift_independent_rows(self):
        def prog(comm):
            cc = CartComm(comm, (2, 2))
            i, j = cc.coords
            got = cc.shift((i, j), dim=1, displacement=1)
            return got[0] == i  # data never leaves the row

        assert all(run_spmd(4, prog).results)

    def test_bad_dim(self):
        def prog(comm):
            CartComm(comm, (2, 2)).shift(1, dim=5, displacement=1)

        with pytest.raises(RankFailedError):
            run_spmd(4, prog)


class TestSub:
    def test_rows_and_columns(self):
        def prog(comm):
            cc = CartComm(comm, (2, 3))
            rowwise = cc.sub((False, True))  # vary j within fixed i
            colwise = cc.sub((True, False))  # vary i within fixed j
            return (
                rowwise.comm.allgather(comm.rank),
                colwise.comm.allgather(comm.rank),
            )

        out = run_spmd(6, prog)
        # rank 4 = (1, 1): row partners {3,4,5}, column partners {1,4}
        assert out.results[4] == ([3, 4, 5], [1, 4])

    def test_cuboid_layers_and_fibers(self):
        def prog(comm):
            cc = CartComm(comm, (2, 2, 2))
            layer = cc.sub((True, True, False))
            fiber = cc.sub((False, False, True))
            return (layer.size, fiber.size, fiber.comm.allgather(comm.rank))

        out = run_spmd(8, prog)
        for r, (lsz, fsz, fibmates) in enumerate(out.results):
            assert lsz == 4 and fsz == 2
            base = r - (r % 2)
            assert fibmates == [base, base + 1]

    def test_sub_local_rank_follows_kept_coords(self):
        def prog(comm):
            cc = CartComm(comm, (2, 3))
            row = cc.sub((False, True))
            return row.comm.rank == cc.coords[1]

        assert all(run_spmd(6, prog).results)

    def test_axis_helper(self):
        def prog(comm):
            cc = CartComm(comm, (2, 2))
            ax = cc.axis(0)
            return (ax.dims, ax.comm.size)

        out = run_spmd(4, prog)
        assert out.results[0] == ((2,), 2)

    def test_sub_comms_isolated(self):
        """Traffic on a sub-communicator must not leak into the parent."""

        def prog(comm):
            cc = CartComm(comm, (2, 2))
            row = cc.sub((False, True))
            row.comm.send(comm.rank, (row.comm.rank + 1) % 2, tag=0)
            got = row.comm.recv((row.comm.rank + 1) % 2, tag=0)
            return got

        out = run_spmd(4, prog)
        assert out.results == (1, 0, 3, 2)

    def test_wrong_remain_length(self):
        def prog(comm):
            CartComm(comm, (2, 2)).sub((True,))

        with pytest.raises(RankFailedError):
            run_spmd(4, prog)


class TestSplitDup:
    def test_split_groups_by_color(self):
        def prog(comm):
            sub = comm.split(color=comm.rank % 2)
            return sorted(sub.allgather(comm.rank))

        out = run_spmd(6, prog)
        assert out.results[0] == [0, 2, 4]
        assert out.results[1] == [1, 3, 5]

    def test_split_key_orders(self):
        def prog(comm):
            sub = comm.split(color=0, key=-comm.rank)  # reversed order
            return sub.rank

        out = run_spmd(4, prog)
        assert out.results == (3, 2, 1, 0)

    def test_split_metadata_unmetered(self):
        out = run_spmd(4, lambda comm: comm.split(color=0) and None)
        assert out.report.total_words == 0
        assert out.report.total_messages == 0

    def test_nested_splits_isolated_contexts(self):
        def prog(comm):
            a = comm.split(color=comm.rank % 2)
            b = comm.split(color=comm.rank % 2)
            # same partner sets, different contexts: no crosstalk
            a.send("A", (a.rank + 1) % a.size, tag=0)
            b.send("B", (b.rank + 1) % b.size, tag=0)
            got_b = b.recv((b.rank + 1) % b.size, tag=0)
            got_a = a.recv((a.rank + 1) % a.size, tag=0)
            return (got_a, got_b)

        out = run_spmd(4, prog)
        assert all(v == ("A", "B") for v in out.results)

    def test_dup(self):
        def prog(comm):
            d = comm.dup()
            return (d.size, d.rank) == (comm.size, comm.rank)

        assert all(run_spmd(3, prog).results)

    def test_world_rank_preserved_through_split(self):
        def prog(comm):
            sub = comm.split(color=comm.rank // 2)
            return sub.world_rank == comm.rank

        assert all(run_spmd(6, prog).results)


# -- split semantics, pinned against a pure-Python reference ---------------

def _reference_split(parent_group, colors, keys):
    """Per parent rank: (size, rank, world ranks of the new group) under
    MPI_Comm_split's rule — members of a colour ordered by (key, parent
    rank), with a missing key meaning the parent rank."""
    n = len(parent_group)
    keys = [r if k is None else k for r, k in enumerate(keys[:n])]
    out = []
    for r in range(n):
        members = sorted(
            (q for q in range(n) if colors[q] == colors[r]),
            key=lambda q: (keys[q], q),
        )
        out.append(
            (len(members), members.index(r), tuple(parent_group[q] for q in members))
        )
    return out


def _split_prog(comm, colors, keys, nested):
    # ``nested`` first splits the world by parity, so the split under test
    # runs on a parent whose group is a non-contiguous set of world ranks.
    parent = comm.split(color=comm.rank % 2) if nested else comm
    sub = parent.split(color=colors[parent.rank], key=keys[parent.rank])
    c = comm.counter
    assert c.messages_sent == c.messages_received == 0  # the split is unmetered
    return (sub.size, sub.rank, tuple(sub.allgather(comm.world_rank)))


def _expected_split(p, colors, keys, nested):
    if not nested:
        return _reference_split(list(range(p)), colors, keys)
    expected = [None] * p
    for parity in (0, 1):
        group = [w for w in range(p) if w % 2 == parity]
        for r, row in enumerate(_reference_split(group, colors, keys)):
            expected[group[r]] = row
    return expected


@pytest.fixture(scope="module")
def split_pool():
    from repro.simmpi import SpmdPool

    with SpmdPool() as pool:
        yield pool


_SPLIT_MODES = {
    "spmd-fastpath": dict(fastpath=True),
    "spmd-message": dict(fastpath=False),
    "spmd-traced": dict(trace=True),
    "pool-fastpath": dict(fastpath=True),
    "pool-message": dict(fastpath=False),
    "pool-traced": dict(trace=True),
}


def _run_split(mode, pool, p, program, *args):
    kw = dict(_SPLIT_MODES[mode], timeout=20)
    if mode.startswith("pool"):
        return pool.run(p, program, *args, **kw)
    return run_spmd(p, program, *args, **kw)


_colors = st.one_of(st.integers(-2, 3), st.sampled_from(["x", ("t", 1)]))
_keys = st.one_of(st.none(), st.integers(-5, 5))


@pytest.mark.parametrize("mode", sorted(_SPLIT_MODES))
class TestSplitSemantics:
    """``Comm.split`` groups ranks exactly as MPI_Comm_split does, on
    every substrate and execution mode."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, mode, split_pool, data):
        p = data.draw(st.integers(1, 24), label="p")
        colors = data.draw(st.lists(_colors, min_size=p, max_size=p), label="colors")
        keys = data.draw(st.lists(_keys, min_size=p, max_size=p), label="keys")
        nested = data.draw(st.booleans(), label="nested")
        out = _run_split(mode, split_pool, p, _split_prog, colors, keys, nested)
        assert list(out.results) == _expected_split(p, colors, keys, nested)

    @pytest.mark.parametrize(
        "p, colors, keys, nested",
        [
            (1, [0], [None], False),  # a world of one
            (7, list(range(7)), [None] * 7, False),  # every rank alone
            (7, [5] * 7, [None] * 7, False),  # one colour for all
            (6, [0] * 6, [2, -1, 2, -1, 0, 0], False),  # tied and negative keys
            (10, [1, 0, 1, 0, 1], [3, 3, -2, 0, 1], True),  # non-contiguous parent
        ],
    )
    def test_edge_cases(self, mode, split_pool, p, colors, keys, nested):
        out = _run_split(mode, split_pool, p, _split_prog, colors, keys, nested)
        assert list(out.results) == _expected_split(p, colors, keys, nested)


def _flop_then_row_sub(comm):
    comm.add_flops(1)  # op 1: the injected crash fires here
    CartComm(comm, (3, 3)).sub((False, True))


class TestSplitUnderCrash:
    """A rank dying just before a split fails the run fast, and the same
    way on both substrates: only the crashed rank is reported."""

    @pytest.mark.parametrize("victim", [0, 4])  # the split root, and not
    def test_crash_before_split(self, split_pool, victim):
        from repro.exceptions import RankCrashedError
        from repro.simmpi import FaultPlan

        for run in (run_spmd, split_pool.run):
            with pytest.raises(RankFailedError) as exc:
                run(
                    9,
                    _flop_then_row_sub,
                    faults=FaultPlan.single_crash(rank=victim, at_op=1),
                    timeout=20,
                )
            failures = exc.value.failures
            assert set(failures) == {victim}
            assert type(failures[victim]) is RankCrashedError


def _split_by_three(comm):
    comm.split(color=comm.rank % 3)


def _rows_and_columns_6x6(comm):
    cc = CartComm(comm, (6, 6))
    cc.sub((False, True))
    cc.sub((True, False))


class TestSplitCost:
    """A split costs O(p) mailbox deposits: 2(p-1), gathered at local
    rank 0 and scattered back. Counted, not timed; a quadratic exchange
    (an allgather ring makes p(p-1)) fails here."""

    def test_one_split_makes_2p_minus_2_deposits(self):
        out = run_spmd(36, _split_by_three, trace=True)
        assert out.metrics.get("simmpi_mailbox_depth").count == 2 * 35

    def test_two_cart_subs(self):
        out = run_spmd(36, _rows_and_columns_6x6, trace=True)
        assert out.metrics.get("simmpi_mailbox_depth").count == 2 * 2 * 35


def _rows_and_columns_32x32(comm):
    cc = CartComm(comm, (32, 32))
    i, j = cc.coords
    row = cc.sub((False, True))
    col = cc.sub((True, False))
    return (
        (row.comm.size, row.comm.rank, row.comm.world_rank) == (32, j, comm.rank)
        and (col.comm.size, col.comm.rank) == (32, i)
        and row.comm.allgather(comm.rank) == [32 * i + x for x in range(32)]
        and col.comm.allgather(comm.rank) == [32 * x + j for x in range(32)]
    )


@pytest.mark.slow
def test_splits_at_p1024(split_pool):
    """Row and column subs of a 32x32 grid, on both substrates."""
    for run in (run_spmd, split_pool.run):
        assert all(run(1024, _rows_and_columns_32x32, timeout=300).results)
