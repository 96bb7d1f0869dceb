"""Fast-path equivalence and fallback tests.

The analytic collective fast path (:mod:`repro.simmpi.fastpath`)
promises bit-identical ``counts_signature()``, per-rank virtual clocks
and payload contents versus the faithful message-path simulation. The
matrix here exercises that promise over every collective, both payload
modes and several world sizes, and verifies that each observer that
needs real envelopes (tracing, metrics, fault plans, custom reduce
ops, non-default algorithms, ``fastpath=False``) actually forces the
message path.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.parameters import MachineParameters
from repro.exceptions import CommunicatorError, RankFailedError
from repro.simmpi import FaultPlan, SlowdownFault, run_spmd
from repro.simmpi import fastpath as fastpath_mod
from repro.simmpi.closedform import Tally
from repro.simmpi.collectives import sum_op

MACHINE = MachineParameters(
    gamma_t=2e-9,
    beta_t=3e-8,
    alpha_t=5e-6,
    gamma_e=4e-9,
    beta_e=6e-8,
    alpha_e=2e-6,
    delta_e=7e-9,
    epsilon_e=1e-3,
    memory_words=float(2**30),
    max_message_words=float(2**16),
)

SIZES = (4, 16, 36, 64)
MODES = ("copy", "cow")

# Per-destination payloads are seeded from (rank, dest) so every block
# is distinct and any routing error shows up in the contents check.
_SEED_RNG = np.random.default_rng(20260808)
_BASE = _SEED_RNG.normal(size=97)


def _payload(rank: int, n: int = 23) -> np.ndarray:
    return np.resize(_BASE, n) * (rank + 1)


def _prog_barrier(comm):
    comm.barrier()
    return comm.rank


def _prog_bcast(comm):
    obj = _payload(comm.rank) if comm.rank == 1 else None
    return comm.bcast(obj, root=1)


def _prog_reduce(comm):
    out = comm.reduce(_payload(comm.rank), root=2)
    return None if out is None else out


def _prog_reduce_ragged(comm):
    # Unequal input sizes: sum_op broadcasts, so the accumulator a vrank
    # sends depends on which subtree it folded in.
    if comm.rank % 3 == 0:
        return comm.reduce(np.arange(1.0), root=2)
    return comm.reduce(np.arange(5.0) * (comm.rank + 1), root=2)


def _prog_allreduce(comm):
    return comm.allreduce(_payload(comm.rank))


def _prog_reduce_scatter(comm):
    return comm.reduce_scatter(_payload(comm.rank, n=4 * comm.size + 3))


def _prog_allgather(comm):
    return comm.allgather(_payload(comm.rank, n=7 + comm.rank % 3))


def _prog_gather(comm):
    return comm.gather(_payload(comm.rank, n=5 + comm.rank % 4), root=3)


def _prog_scatter(comm):
    p = comm.size
    objs = None
    if comm.rank == 2:
        objs = [_payload(r, n=6 + r % 5) for r in range(p)]
    return comm.scatter(objs, root=2)


def _prog_alltoall(comm):
    blocks = [_payload(comm.rank * comm.size + d, n=3 + d % 4) for d in range(comm.size)]
    return comm.alltoall(blocks)


def _prog_alltoall_bruck(comm):
    blocks = [_payload(comm.rank * comm.size + d, n=3 + d % 4) for d in range(comm.size)]
    return comm.alltoall_bruck(blocks)


def _prog_reduce_scatter_int2d(comm):
    base = np.arange(3 * (comm.size + 1), dtype=np.int64).reshape(3, -1)
    return comm.reduce_scatter(base * (comm.rank + 1))


# Uniform all-to-all blocks (one shape, one numeric dtype) take the
# batched resolvers; each maker turns a (rank, dest) seed into a block.
def _block_f64(k: int) -> np.ndarray:
    return _payload(k, n=5)


def _block_c128(k: int) -> np.ndarray:
    # (rows, cols) complex128, the shape fft.py's transpose ships
    return (_payload(k, n=6) + 1j * _payload(k + 1, n=6)).reshape(2, 3)


def _block_i64(k: int) -> np.ndarray:
    return np.arange(4, dtype=np.int64) * (k + 1)


def _block_0d(k: int) -> np.ndarray:
    return np.array(float(k))


def _uniform_program(collective: str, make):
    def program(comm):
        blocks = [make(comm.rank * comm.size + d) for d in range(comm.size)]
        return getattr(comm, collective)(blocks)

    return program


def _forwarding_program(collective: str):
    """Every odd destination gets a block this rank received earlier."""

    def program(comm):
        p = comm.size
        exchange = getattr(comm, collective)
        first = exchange([_block_f64(comm.rank * p + d) for d in range(p)])
        blocks = [
            first[(d + 1) % p] if d % 2 else _block_f64(p * p + comm.rank + d)
            for d in range(p)
        ]
        return first, exchange(blocks)

    return program


PROGRAMS = {
    "barrier": _prog_barrier,
    "bcast": _prog_bcast,
    "reduce": _prog_reduce,
    "reduce_ragged": _prog_reduce_ragged,
    "allreduce": _prog_allreduce,
    "reduce_scatter": _prog_reduce_scatter,
    "reduce_scatter_int2d": _prog_reduce_scatter_int2d,
    "allgather": _prog_allgather,
    "gather": _prog_gather,
    "scatter": _prog_scatter,
    "alltoall": _prog_alltoall,
    "alltoall_bruck": _prog_alltoall_bruck,
}
for _op in ("alltoall", "alltoall_bruck"):
    for _kind, _make in (
        ("f64", _block_f64),
        ("c128", _block_c128),
        ("i64", _block_i64),
        ("0d", _block_0d),
    ):
        PROGRAMS[f"{_op}_{_kind}"] = _uniform_program(_op, _make)
    PROGRAMS[f"{_op}_forward"] = _forwarding_program(_op)

#: (collective, size) cells of the matrix; Bruck needs a power of two.
MATRIX = [
    (name, size)
    for name in sorted(PROGRAMS)
    for size in SIZES
    if size & (size - 1) == 0 or "bruck" not in name
]


def _flatten(value):
    """Strict structural normalization so ndarray contents (and their
    exact values), dtypes, writability, list shapes and scalars all
    compare."""
    if isinstance(value, np.ndarray):
        return (
            "nd",
            value.shape,
            value.dtype.str,
            value.flags.writeable,
            value.tobytes(),
        )
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(_flatten(v) for v in value))
    if isinstance(value, dict):
        return ("dict", tuple((k, _flatten(v)) for k, v in value.items()))
    return value


def _internode(report):
    return [
        (
            r.words_sent_internode,
            r.messages_sent_internode,
            r.words_received_internode,
            r.messages_received_internode,
        )
        for r in report.ranks
    ]


def _compare_runs(size, program, **kwargs):
    fast = run_spmd(size, program, machine=MACHINE, **kwargs)
    slow = run_spmd(size, program, machine=MACHINE, fastpath=False, **kwargs)
    assert fast.report.counts_signature() == slow.report.counts_signature()
    assert _internode(fast.report) == _internode(slow.report)
    fast_vt = [r.vtime for r in fast.report.ranks]
    slow_vt = [r.vtime for r in slow.report.ranks]
    assert fast_vt == slow_vt  # bit-identical, not approx
    assert [_flatten(r) for r in fast.results] == [_flatten(r) for r in slow.results]
    assert fast.report.words_conserved()
    return fast, slow


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("collective,size", MATRIX)
    def test_counts_vtimes_payloads_identical(self, collective, size, mode):
        _compare_runs(
            size,
            PROGRAMS[collective],
            payload_mode=mode,
            max_message_words=64.0,
        )

    def test_mixed_workload_with_nodes_and_subcomms(self):
        def program(comm):
            comm.barrier()
            half = comm.split(comm.rank % 2)
            local = half.allreduce(_payload(comm.rank))
            gathered = comm.gather(float(local.sum()), root=0)
            back = comm.bcast(gathered, root=0)
            return tuple(back)

        _compare_runs(8, program, node_size=4, max_message_words=16.0)

    def test_read_only_views_in_cow_mode(self):
        def program(comm):
            out = comm.bcast(_payload(0) if comm.rank == 0 else None, root=0)
            return out.flags.writeable

        fast = run_spmd(8, program, payload_mode="cow")
        assert fast.results == (False,) * 8

    @pytest.mark.parametrize("collective", ["alltoall", "alltoall_bruck"])
    def test_zero_d_blocks_arrive_as_read_only_arrays(self, collective):
        fast = run_spmd(8, PROGRAMS[f"{collective}_0d"], payload_mode="cow")
        for got in fast.results:
            assert all(type(b) is np.ndarray and b.ndim == 0 for b in got)
            assert not any(b.flags.writeable for b in got)

    @pytest.mark.parametrize("collective", ["alltoall", "alltoall_bruck"])
    def test_uniform_blocks_share_one_frozen_buffer(self, collective):
        # The batched resolver freezes the whole block table once; a
        # block-by-block freeze would give every block its own buffer.
        def program(comm):
            got = PROGRAMS[f"{collective}_c128"](comm)
            return got[0].base, len({id(b.base) for b in got}), got[0].flags.writeable

        out = run_spmd(8, program, payload_mode="cow")
        assert len({id(base) for base, _n, _w in out.results}) == 1
        assert [(n, w) for _b, n, w in out.results] == [(1, False)] * 8

    def test_equal_reduce_scatter_inputs_share_one_frozen_buffer(self):
        # The stacked resolver freezes all ranks' reduced chunks as one
        # buffer; the per-rank loop would freeze each chunk on its own.
        def program(comm):
            got = _prog_reduce_scatter(comm)
            return got.base, got.flags.writeable

        out = run_spmd(8, program, payload_mode="cow")
        assert len({id(base) for base, _w in out.results}) == 1
        assert not any(w for _b, w in out.results)

    def test_zero_and_scalar_payloads(self):
        def program(comm):
            a = comm.bcast(None if comm.rank else 0.5, root=0)
            b = comm.allgather(None)
            c = comm.gather("word" * comm.rank, root=0)
            return (a, tuple(b), None if c is None else tuple(c))

        _compare_runs(4, program)


def _rs_mixed_dtypes(comm):
    dtype = np.float32 if comm.rank == 1 else np.float64
    return comm.reduce_scatter(np.arange(4.0 * comm.size + 3, dtype=dtype))


def _rs_broadcasting_sizes(comm):
    # size-1 chunks on rank 0 broadcast against the others' size-2 chunks
    return comm.reduce_scatter(_payload(comm.rank, n=comm.size * (2 if comm.rank else 1)))


def _rs_mismatched_sizes(comm):
    return comm.reduce_scatter(_payload(comm.rank, n=2 * comm.size + comm.rank))


class TestReduceScatterPerRankInputs:
    """Inputs the stacked reduce_scatter cannot take (mixed dtypes or
    unequal sizes) go through the per-rank ring, which must return the
    message path's arrays or fail on the same ranks with the same
    errors."""

    @staticmethod
    def _outcome(size, program, **kwargs):
        try:
            out = run_spmd(size, program, machine=MACHINE, timeout=20.0, **kwargs)
        except RankFailedError as exc:
            return "failed", {
                r: (type(e).__name__, str(e)) for r, e in exc.failures.items()
            }
        return "ok", (
            out.report.counts_signature(),
            [r.vtime for r in out.report.ranks],
            [_flatten(r) for r in out.results],
        )

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("size", (4, 7, 16))
    @pytest.mark.parametrize(
        "program,expect",
        [
            (_rs_mixed_dtypes, "ok"),
            (_rs_broadcasting_sizes, "ok"),
            (_rs_mismatched_sizes, "failed"),
        ],
        ids=["mixed-dtypes", "broadcasting-sizes", "mismatched-sizes"],
    )
    def test_matches_message_path(self, program, expect, size, mode):
        fast = self._outcome(size, program, payload_mode=mode)
        slow = self._outcome(size, program, payload_mode=mode, fastpath=False)
        assert fast[0] == expect
        assert fast == slow


class TestFallbacks:
    """Each per-message observer must take the envelope path. Proven by
    poisoning the resolver table: if the fast path engaged, the run
    would fail loudly."""

    @pytest.fixture
    def poisoned(self, monkeypatch):
        def boom(*_a, **_k):  # pragma: no cover - must never run
            raise AssertionError("fast path engaged but should have fallen back")

        monkeypatch.setattr(
            fastpath_mod, "_RESOLVERS", {k: boom for k in fastpath_mod._RESOLVERS}
        )

    def test_fastpath_false_forces_message_path(self, poisoned):
        out = run_spmd(4, _prog_allreduce, fastpath=False)
        assert len(out.results) == 4

    def test_trace_forces_message_path(self, poisoned):
        out = run_spmd(4, _prog_allreduce, trace=True)
        assert any(e.kind == "coll" for e in out.event_logs[0].events())

    def test_metrics_forces_message_path(self, poisoned):
        # run metrics come from the event log, so they ride the traced
        # message path
        out = run_spmd(4, _prog_allreduce, trace=True)
        assert out.metrics.get(
            "simmpi_collectives_total", {"collective": "allreduce"}
        ).value == 4.0

    def test_faults_force_message_path(self, poisoned):
        plan = FaultPlan([SlowdownFault(rank=1, factor=2.0, first_op=2, last_op=4)])
        out = run_spmd(4, _prog_allreduce, faults=plan)
        assert len(out.results) == 4

    def test_custom_op_forces_message_path(self, poisoned):
        def prog(comm):
            a = comm.reduce(float(comm.rank), op=lambda x, y: max(x, y), root=0)
            b = comm.reduce_scatter(
                np.arange(8.0), op=lambda x, y: np.maximum(x, y)
            )
            return (a, float(b.sum()))

        out = run_spmd(4, prog)
        assert out.results[0][0] == 3.0

    def test_nondefault_algorithms_force_message_path(self, poisoned):
        # Both variants below are raw point-to-point implementations —
        # no nested default-algorithm collectives to accelerate.
        def prog(comm):
            b = comm.reduce(
                np.arange(32.0), root=0, algorithm="reduce_scatter_gather"
            )
            c = comm.allreduce(float(comm.rank), algorithm="recursive_doubling")
            return (None if b is None else float(b.sum()), c)

        out = run_spmd(4, prog)
        assert out.results[0][1] == 6.0

    def test_composites_accelerate_their_inner_stages(self):
        # allreduce(reduce_bcast) and bcast(scatter_allgather) are built
        # from default-algorithm collectives, which ride the fast path
        # even though the outer composite has no resolver of its own —
        # and stay bit-identical to the full message path.
        def prog(comm):
            a = comm.allreduce(_payload(comm.rank))
            b = comm.bcast(
                np.arange(64.0) if comm.rank == 0 else None,
                root=0,
                algorithm="scatter_allgather",
            )
            return (float(a.sum()), float(b.sum()))

        _compare_runs(8, prog, max_message_words=16.0)

    def test_default_world_uses_fast_path(self, poisoned):
        with pytest.raises(RankFailedError):
            run_spmd(4, _prog_allreduce)

    def test_fastpath_enabled_property(self):
        def prog(comm):
            return comm.fastpath_enabled

        assert run_spmd(4, prog).results == (True,) * 4
        assert run_spmd(4, prog, fastpath=False).results == (False,) * 4
        assert run_spmd(4, prog, trace=True).results == (False,) * 4
        assert run_spmd(1, prog).results == (False,)


class TestSingleClosedForm:
    """The fast path takes its costs from the oracles in
    :mod:`repro.simmpi.closedform`, so a wrong closed form is wrong on
    the fast path and in the conformance predictions alike. The message
    path is the witness that catches it: with the shared tally metering
    one extra message per ring step, every fast-path run of a ring
    collective must diverge from the message path, and nothing else may."""

    RING = {"barrier", "allgather", "reduce_scatter", "alltoall", "alltoall_bruck"}

    @pytest.fixture
    def crooked_tally(self, monkeypatch):
        ring = Tally.ring

        def crooked(self, words, shifts):
            ring(self, words, shifts)
            steps = np.atleast_1d(shifts).size
            self.ms += steps
            self.mr += steps

        monkeypatch.setattr(Tally, "ring", crooked)

    @pytest.mark.parametrize("collective", ["allgather", "alltoall"])
    def test_fast_path_diverges_from_message_path(self, crooked_tally, collective):
        with pytest.raises(AssertionError):
            _compare_runs(8, PROGRAMS[collective])

    def test_only_fastpath_variants_diverge(self, crooked_tally):
        from repro.conformance import BASELINE_VARIANT, collective_cases, run_grid

        families = self.RING | {"bcast", "gather"}
        cases = [
            c for c in collective_cases((5, 8)) if c.name.split("/")[0] in families
        ]
        report = run_grid(cases, grid="custom", fail_limit=10**6)
        against_message = {
            (d.case, d.variant)
            for d in report.divergences
            if d.reference == BASELINE_VARIANT
        }
        fast_variants = ("fastpath+engine+cow", "fastpath+engine+copy", "fastpath+pool+cow")
        ring_cases = [c.name for c in cases if c.name.split("/")[0] in self.RING]
        assert against_message == {(c, v) for c in ring_cases for v in fast_variants}
        # The wrong predictions disagree with the message path too.
        against_oracle = {
            d.case for d in report.divergences if d.reference == "oracle"
        }
        assert against_oracle == set(ring_cases)


class TestImportOrder:
    """``repro.conformance`` imports ``repro.simmpi``, whose collectives
    import the fast path, which imports the closed forms: each entry
    point must import cleanly when it is the first module loaded."""

    @pytest.mark.parametrize(
        "module",
        [
            "repro.simmpi.fastpath",
            "repro.simmpi",
            "repro.conformance",
            "repro.sweep",
            "repro.cli",
        ],
    )
    def test_imports_first_in_a_fresh_interpreter(self, module):
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src},
            timeout=120,
        )
        assert out.returncode == 0, out.stderr


class TestGateErrors:
    def test_out_of_range_root_raises_everywhere(self):
        def prog(comm):
            return comm.bcast(1.0, root=99)

        with pytest.raises(RankFailedError) as info:
            run_spmd(4, prog)
        assert all(
            isinstance(e, CommunicatorError) for e in info.value.failures.values()
        )

    def test_root_mismatch_is_diagnosed(self):
        # The message path would time out on mismatched tags; the gate
        # sees all arguments at once and upgrades this to an immediate
        # CommunicatorError on every rank.
        def prog(comm):
            return comm.bcast(1.0, root=comm.rank % 2)

        with pytest.raises(RankFailedError) as info:
            run_spmd(4, prog, timeout=5.0)
        assert any(
            "root mismatch" in str(e) for e in info.value.failures.values()
        )

    def test_scatter_bad_length_blames_root(self):
        def prog(comm):
            return comm.scatter([1, 2] if comm.rank == 0 else None, root=0)

        with pytest.raises(RankFailedError) as info:
            run_spmd(4, prog)
        assert any(
            isinstance(e, CommunicatorError) and "length-4" in str(e)
            for e in info.value.failures.values()
        )

    def test_mismatched_collectives_are_diagnosed(self):
        def prog(comm):
            if comm.rank == 0:
                comm.barrier()
            else:
                comm.allgather(comm.rank)
            return True

        with pytest.raises(RankFailedError) as info:
            run_spmd(4, prog, timeout=5.0)
        assert any(
            "collective mismatch" in str(e) for e in info.value.failures.values()
        )

    def test_peer_failure_interrupts_parked_ranks(self):
        def prog(comm):
            if comm.rank == 0:
                raise ValueError("boom before the collective")
            comm.barrier()
            return True

        with pytest.raises(RankFailedError) as info:
            run_spmd(4, prog, timeout=5.0)
        assert isinstance(info.value.failures[0], ValueError)


class TestDeadRankMailboxPruning:
    def test_close_drops_pending_and_refuses_deposits(self):
        from repro.simmpi.mailbox import NOTHING, Mailbox

        box = Mailbox(0)
        box.put(1, "ctx", 0, "a")
        box.put(2, "ctx", 1, "b")
        assert box.pending() == 2
        box.close()
        assert box.pending() == 0
        assert box._boxes == {}
        box.put(3, "ctx", 0, "late")
        assert box.pending() == 0
        assert box.try_get(3, "ctx", 0) is NOTHING
        box.close()  # idempotent

    def test_mark_dead_prunes_the_dead_ranks_index(self):
        from repro.simmpi.world import World

        world = World(4)
        world.mailboxes[2].put(0, "ctx", 0, "never drained")
        assert world.mailboxes[2].pending() == 1
        world.mark_dead(2)
        assert world.mailboxes[2].pending() == 0
        assert world.mailboxes[2]._boxes == {}
        # Survivors' boxes are untouched and still accept traffic.
        world.mailboxes[1].put(0, "ctx", 0, "fine")
        assert world.mailboxes[1].pending() == 1


def _frozen_owner(block: np.ndarray) -> np.ndarray:
    """The simulator-frozen buffer at the end of a view's base chain."""
    from repro.simmpi.payload import _FrozenBase

    node = block
    while not isinstance(node, _FrozenBase):
        node = node.base
    return node


class TestBatchedDelivery:
    """The uniform-input forms of allgather and all-to-all hand every
    receiver its own list of its own read-only blocks, each backed by a
    simulator-frozen buffer (so a relay forwards it without copying)."""

    P = 8

    @staticmethod
    def _check_private(results, p):
        from repro.simmpi.payload import _is_frozen_view

        assert len({id(lst) for lst in results}) == p
        blocks = [b for lst in results for b in lst]
        assert len({id(b) for b in blocks}) == p * p  # none shared
        for b in blocks:
            assert type(b) is np.ndarray
            assert not b.flags.writeable
            assert _is_frozen_view(b)
        return blocks

    @pytest.mark.parametrize("collective", ["alltoall", "alltoall_bruck"])
    def test_uniform_exchange_blocks_are_private_frozen_views(self, collective):
        fast, _slow = _compare_runs(
            self.P, _uniform_program(collective, _block_f64)
        )
        blocks = self._check_private(fast.results, self.P)
        # The batched form engaged: one frozen buffer backs every block.
        assert len({id(_frozen_owner(b)) for b in blocks}) == 1

    @pytest.mark.parametrize(
        "program",
        [_prog_allgather, lambda comm: comm.allgather(_payload(comm.rank, n=4))],
        ids=["ragged", "equal"],
    )
    def test_allgather_blocks_are_private_frozen_views(self, program):
        fast, _slow = _compare_runs(self.P, program)
        blocks = self._check_private(fast.results, self.P)
        # One freeze per sender: receivers' views of a sender share it.
        assert len({id(_frozen_owner(b)) for b in blocks}) == self.P

    def test_allgather_of_relayed_blocks_gives_fresh_views(self):
        """A payload that is already a frozen view (received earlier) is
        adopted without a copy, yet each receiver still gets its own
        view object of it."""

        def prog(comm):
            mine = comm.bcast(
                _payload(comm.rank) if comm.rank == 0 else None, root=0
            )
            return comm.allgather(mine)

        fast, _slow = _compare_runs(self.P, prog)
        blocks = self._check_private(fast.results, self.P)
        assert len({id(_frozen_owner(b)) for b in blocks}) == 1

    @pytest.mark.parametrize(
        "payload",
        [
            lambda r: (np.arange(3.0) * r, float(r)),
            lambda r: {"a": np.arange(2.0) + r, "s": "tag"},
            lambda r: np.arange(3, dtype=np.int64 if r % 2 else np.float64),
            lambda r: np.array(float(r)),
            lambda r: r + 0.5,
        ],
        ids=["tuple", "dict", "mixed-dtype", "0d", "scalar"],
    )
    @pytest.mark.parametrize("mode", MODES)
    def test_allgather_fallback_inputs_route(self, payload, mode):
        _compare_runs(
            6, lambda comm: comm.allgather(payload(comm.rank)), payload_mode=mode
        )

    @pytest.mark.parametrize(
        "block",
        [
            lambda k: (np.arange(2.0) * k, k),
            lambda k: {"x": np.arange(3.0) + k},
            lambda k: np.arange(3, dtype=np.int64 if k % 2 else np.float64),
        ],
        ids=["tuple", "dict", "mixed-dtype"],
    )
    @pytest.mark.parametrize("collective", ["alltoall", "alltoall_bruck"])
    @pytest.mark.parametrize("mode", MODES)
    def test_exchange_fallback_inputs_route(self, block, collective, mode):
        _compare_runs(8, _uniform_program(collective, block), payload_mode=mode)

    def test_uniform_check_rejects_each_fallback_table(self):
        ok = [np.arange(3.0) for _ in range(4)]
        assert fastpath_mod._uniform_blocks(ok)
        for odd in (
            np.arange(3, dtype=np.int64),  # mixed dtype
            np.arange(4.0),  # ragged shape
            np.array(1.0),  # 0-d
            np.arange(3.0).view(np.recarray),  # ndarray subclass
            (1.0, 2.0, 3.0),  # container
        ):
            assert not fastpath_mod._uniform_blocks(ok[:3] + [odd])
        assert not fastpath_mod._uniform_blocks([np.array(1.0)] * 4)
        assert not fastpath_mod._uniform_blocks([np.array(["a"])] * 4)
