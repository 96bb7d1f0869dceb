"""Bit-identity pins for the point-to-point path.

These tests pin what a simulated message must keep doing however its
per-message work is arranged: the scenario cells' committed count and
clock digests, the copy-or-share outcome of freezing each kind of
array, the error text of an out-of-range peer, and the metering seam
``conformance.deliberately_perturbed`` patches.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.conformance import deliberately_perturbed
from repro.exceptions import CommunicatorError, RankFailedError
from repro.simmpi import CartComm, FrozenPayload, run_spmd
from repro.sweep import SweepSpec, build_cell_program, cell_machine, run_sweep

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_workloads():
    """perfbench/workloads.py, loaded by path (perfbench is no package)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


class TestScenarioDigests:
    def test_smallest_cell_of_each_family_matches_committed_digest(self):
        """The benchmark's warm-up cells (the smallest p of each
        scenario family) reproduce perfbench/digests.json exactly."""
        wl = _perfbench_workloads()
        digests = wl.load_digests()
        cells = wl.warmup_subset(wl.plan("scenario-sweep", 1).cells)
        assert len(cells) == 6
        outcome = run_sweep(cells, workers=0)
        assert outcome.ok
        for cell in cells:
            record = outcome.records[cell.cell_id]
            assert wl.record_digest(record.counts, record.vtimes) == digests[
                cell.cell_id
            ], cell.cell_id


class _Sub(np.ndarray):
    """A user ndarray subclass (its frozen copy is a plain buffer)."""


def _frozen_view():
    return FrozenPayload.freeze(np.arange(12.0).reshape(3, 4)).view()


def _user_read_only():
    arr = np.arange(12.0).reshape(3, 4)
    arr.flags.writeable = False
    return arr


#: name -> (payload builder, words, shares memory with the sent array)
ALIASING = {
    "writable": (lambda: np.arange(12.0).reshape(3, 4), 12, False),
    "user_read_only": (_user_read_only, 12, False),
    "frozen_view": (_frozen_view, 12, True),
    "frozen_view_slice": (lambda: _frozen_view()[1:, ::2], 4, True),
    "subclass": (lambda: np.arange(6.0).view(_Sub), 6, False),
    "zero_d": (lambda: np.array(7.5), 1, False),
    "non_contiguous": (lambda: np.arange(24.0).reshape(4, 6)[:, ::2], 12, False),
}


class TestFreezeAliasingMatrix:
    @pytest.mark.parametrize("name", sorted(ALIASING))
    def test_words_and_copy_or_share(self, name):
        build, words, shares = ALIASING[name]
        sent = build()
        frozen = FrozenPayload.freeze(sent)
        assert frozen.words == words
        got = frozen.view()
        assert type(got) is np.ndarray
        assert not got.flags.writeable
        assert got.shape == sent.shape and got.dtype == sent.dtype
        assert np.array_equal(got, sent)
        assert np.shares_memory(got, sent) is shares
        # Re-freezing a delivered view forwards it without a copy.
        assert np.shares_memory(FrozenPayload.freeze(got).view(), got)

    @pytest.mark.parametrize("name", sorted(ALIASING))
    def test_received_payload_matches_freeze(self, name):
        """A real hop delivers the same words and the same copy-or-share
        outcome as freeze/view."""
        build, words, shares = ALIASING[name]

        def prog(comm):
            if comm.rank == 0:
                sent = build()
                comm.send(sent, 1)
                return sent
            return comm.recv(0)

        out = run_spmd(2, prog)
        sent, got = out.results
        assert np.array_equal(got, sent)
        assert not got.flags.writeable
        assert out.report.ranks[1].words_received == words
        assert np.shares_memory(got, sent) is shares

    def test_nested_payload_words_and_views(self):
        arr = np.arange(4.0)
        frozen = FrozenPayload.freeze({"a": (arr, 2.0), "b": [np.ones(3), "label"]})
        assert frozen.words == 4 + 1 + 3 + 1
        got = frozen.view()
        assert not got["a"][0].flags.writeable
        assert not np.shares_memory(got["a"][0], arr)
        assert got["b"][1] == "label"


def _peer_error(op: str, peer: int) -> str:
    def prog(comm):
        if op == "send":
            comm.send(1.0, peer)
        elif op == "recv":
            comm.recv(peer)
        elif op == "irecv":
            comm.irecv(peer)
        elif op == "sendrecv_dest":
            comm.sendrecv(1.0, peer, 0)
        elif op == "sendrecv_source":
            comm.sendrecv(1.0, 0, peer)

    with pytest.raises(RankFailedError) as exc:
        run_spmd(2, prog)
    errors = set()
    for err in exc.value.failures.values():
        assert type(err) is CommunicatorError
        errors.add(str(err))
    assert len(errors) == 1
    return errors.pop()


class TestPeerRangeErrors:
    @pytest.mark.parametrize(
        "op, peer, text",
        [
            ("send", 2, "dest 2 out of range for communicator of size 2"),
            ("send", -1, "dest -1 out of range for communicator of size 2"),
            ("recv", 5, "source 5 out of range for communicator of size 2"),
            ("recv", -3, "source -3 out of range for communicator of size 2"),
            ("irecv", 2, "source 2 out of range for communicator of size 2"),
            ("irecv", -1, "source -1 out of range for communicator of size 2"),
            ("sendrecv_dest", 2, "dest 2 out of range for communicator of size 2"),
            ("sendrecv_source", -1, "source -1 out of range for communicator of size 2"),
        ],
    )
    def test_identical_text(self, op, peer, text):
        assert _peer_error(op, peer) == text

    def test_cart_shift_off_a_non_periodic_edge(self):
        def prog(comm):
            CartComm(comm, (2,), periodic=False).shift(1.0, 0, 1)

        with pytest.raises(RankFailedError) as exc:
            run_spmd(2, prog)
        assert {str(e) for e in exc.value.failures.values()} == {
            "coordinate 2 out of bounds for non-periodic extent 2",
            "coordinate -1 out of bounds for non-periodic extent 2",
        }


class TestMeteringSeam:
    def test_perturbed_build_moves_cannon_sent_words(self):
        """``deliberately_perturbed`` patches CostCounter.add_send on the
        class: every send of a Cannon p=16 cell picks it up at call
        time, so each rank's sent words grow by 2 per message."""
        cell = SweepSpec("cannon", n=48, p_values=(16,)).cells()[0]
        program, args, _label = build_cell_program(cell)
        machine = cell_machine(cell)

        def ranks():
            return run_spmd(cell.p, program, *args, machine=machine).report.ranks

        clean = ranks()
        with deliberately_perturbed(extra_words=2):
            crooked = ranks()
        assert all(r.messages_sent > 0 for r in clean)
        for a, b in zip(clean, crooked):
            assert b.words_sent == a.words_sent + 2 * a.messages_sent
            assert b.words_received == a.words_received
            assert b.messages_sent == a.messages_sent
        again = ranks()
        assert [r.words_sent for r in again] == [r.words_sent for r in clean]
