"""Tests for the differential conformance harness.

Covers the four contract layers: oracle exactness on hand-derived
closed forms (including the non-power-of-two edges: binomial remainder
rounds, recursive-doubling fold/unfold, uneven reduce_scatter
chunking), oracle-vs-measured bit-identity, divergence *detection*
via a deliberately mis-metered build (the harness must not pass
vacuously), and the CLI exit-code / reproducer contract.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.conformance import (
    BASELINE_VARIANT,
    MACHINE,
    OracleSpec,
    VARIANTS,
    chunk_sizes,
    binomial_send_masks,
    deliberately_perturbed,
    error_cases,
    grid_cases,
    oracle_allgather,
    oracle_allreduce_recursive_doubling,
    oracle_barrier,
    oracle_bcast,
    oracle_reduce_scatter,
    oracle_scenario,
    replay_cell,
    run_cell,
    run_grid,
    smoke_cases,
    string_words,
)
from repro.cli import main
from repro.exceptions import ParameterError
from repro.simmpi import collectives as coll
from repro.simmpi import run_spmd


class TestOracleClosedForms:
    """Oracle exactness against hand-derived values (no simulator)."""

    def test_barrier_dissemination_rounds(self):
        # ceil(log2 p) rounds; every rank sends one zero-word message
        # per round (zero-word payloads still cost one message).
        for p, rounds in ((2, 1), (4, 2), (5, 3), (8, 3), (9, 4)):
            sig = oracle_barrier(OracleSpec(p)).signature()
            assert all(s == (0.0, 0, rounds, 0, rounds) for s in sig)

    def test_bcast_binomial_power_of_two(self):
        # p=8, root 0, 5 words: rank 0 sends at masks 1,2,4 (3 sends);
        # every other rank receives exactly once.
        sig = oracle_bcast(OracleSpec(8), 5, root=0).signature()
        assert sig[0] == (0.0, 15, 3, 0, 0)
        assert all(s[3:] == (5, 1) for s in sig[1:])
        total_sent = sum(s[1] for s in sig)
        assert total_sent == 7 * 5

    def test_bcast_binomial_remainder_rounds(self):
        # Non-power-of-two p=6: pinned against the measured signature.
        sig = oracle_bcast(OracleSpec(6), 3, root=0).signature()
        assert sig == (
            (0.0, 9, 3, 0, 0),
            (0.0, 6, 2, 3, 1),
            (0.0, 0, 0, 3, 1),
            (0.0, 0, 0, 3, 1),
            (0.0, 0, 0, 3, 1),
            (0.0, 0, 0, 3, 1),
        )

    def test_recursive_doubling_fold_edges(self):
        # p=5: one extra rank folds into rank 0 (k=4), then 2 exchange
        # rounds, then the unfold. Pinned non-power-of-two regression.
        sig = oracle_allreduce_recursive_doubling(OracleSpec(5), 4).signature()
        assert sig == (
            (0.0, 12, 3, 12, 3),
            (0.0, 8, 2, 8, 2),
            (0.0, 8, 2, 8, 2),
            (0.0, 8, 2, 8, 2),
            (0.0, 4, 1, 4, 1),
        )

    def test_reduce_scatter_uneven_chunking(self):
        # p=5, 11 words: chunks (3,2,2,2,2); over p-1 ring rounds plus
        # the rotation hop every rank ships each chunk exactly once.
        sig = oracle_reduce_scatter(OracleSpec(5), 11).signature()
        assert sig == tuple((0.0, 11, 5, 11, 5) for _ in range(5))

    def test_allgather_ring_total(self):
        # Ring allgather forwards every other rank's block once.
        sig = oracle_allgather(OracleSpec(7), 4).signature()
        assert all(s == (0.0, 24, 6, 24, 6) for s in sig)

    def test_chunk_sizes_matches_array_split(self):
        for total, parts in ((11, 5), (7, 3), (4, 8), (0, 3), (16, 4)):
            want = [len(c) for c in np.array_split(np.arange(total), parts)]
            assert list(chunk_sizes(total, parts)) == want

    def test_binomial_masks_cover_all_ranks(self):
        # Every non-root vrank is sent to exactly once across the tree.
        for p in (2, 3, 6, 8, 13):
            hit = [0] * p
            for v in range(p):
                for mask in binomial_send_masks(v, p):
                    hit[v + mask] += 1
            assert hit == [0] + [1] * (p - 1)

    def test_message_chunking_in_word_costs(self):
        # max_message_words caps messages: 5 words at m=2 -> 3 messages.
        spec = OracleSpec(2, max_message_words=2.0)
        sig = oracle_bcast(spec, 5, root=0).signature()
        assert sig[0] == (0.0, 5, 3, 0, 0)
        assert sig[1] == (0.0, 0, 0, 5, 3)

    def test_vtimes_use_machine_constants(self):
        spec = OracleSpec(2, machine=MACHINE)
        oc = oracle_bcast(spec, 5, root=0)
        cost = MACHINE.alpha_t * 1 + MACHINE.beta_t * 5
        assert oc.vtimes == (cost, cost)

    def test_scenario_oracle_total_flops(self):
        # summa at p=4, n=16: 2 n^3 total flops, uniform per rank.
        so = oracle_scenario("summa", 4, 16)
        assert so.total_flops == 2.0 * 16**3
        assert so.rank_flops == tuple([2.0 * 16**3 / 4] * 4)

    def test_lu2d_oracle_hand_derived(self):
        # p=4, n=48: tiles of order b=24. The diagonal ranks factor a
        # tile, sum_{m=1..24} 2m(m-1) = 2(24^3 - 24)/3 = 9200 flops; the
        # off-diagonal ranks do one triangular solve, 24^3 = 13824; rank
        # (1, 1) first updates once, 2 * 24^3, then factors.
        so = oracle_scenario("lu2d", 4, 48)
        assert so.rank_flops == (9200.0, 13824.0, 13824.0, 2 * 13824.0 + 9200.0)
        assert so.per_rank is None

    @pytest.mark.parametrize("p, n", [(4, 48), (9, 48), (16, 48), (16, 64)])
    def test_lu2d_oracle_equals_measured_flops(self, p, n):
        from repro.scenarios import build_scenario

        program, args, _ = build_scenario("lu2d", p, n)
        report = run_spmd(p, program, *args).report
        assert tuple(r.flops for r in report.ranks) == oracle_scenario(
            "lu2d", p, n
        ).rank_flops

    def test_lu2d_oracle_rejects_bad_layouts(self):
        with pytest.raises(ParameterError):
            oracle_scenario("lu2d", 8, 48)
        with pytest.raises(ParameterError):
            oracle_scenario("lu2d", 9, 50)

    def test_string_words_convention(self):
        assert string_words("") == 1
        assert string_words("x" * 8) == 1
        assert string_words("x" * 9) == 2


class TestOracleVsMeasured:
    """Oracle counts and vtimes are bit-identical to the simulator."""

    @pytest.mark.parametrize("p", [3, 5, 8])
    def test_allreduce_recursive_doubling(self, p):
        out = run_spmd(
            p,
            lambda comm: coll.allreduce(
                comm, np.arange(6.0), algorithm="recursive_doubling"
            ),
            machine=MACHINE,
        )
        oc = oracle_allreduce_recursive_doubling(
            OracleSpec(p, machine=MACHINE), 6
        )
        assert out.report.counts_signature() == oc.signature()
        assert tuple(r.vtime for r in out.report.ranks) == oc.vtimes

    @pytest.mark.parametrize("p", [3, 6, 8])
    def test_reduce_scatter(self, p):
        out = run_spmd(
            p,
            lambda comm: coll.reduce_scatter(comm, np.arange(11.0)),
            machine=MACHINE,
        )
        oc = oracle_reduce_scatter(OracleSpec(p, machine=MACHINE), 11)
        assert out.report.counts_signature() == oc.signature()
        assert tuple(r.vtime for r in out.report.ranks) == oc.vtimes


class TestDiffer:
    def test_smoke_grid_meets_acceptance_floor(self):
        cases = smoke_cases()
        assert len(VARIANTS) * len(cases) >= 200
        non_pow2 = {c.size for c in cases if c.size & (c.size - 1)}
        assert len(non_pow2) >= 5
        # Every collective family, the Bruck error cells and every
        # registry scenario: the grid cannot silently lose a family.
        from repro.conformance import BATTERY
        from repro.scenarios import SCENARIOS

        families = {c.name.split("/", 1)[0] for c in cases}
        expected = (
            set(BATTERY)
            | {"bruck_non_pow2"}
            | {f"scenario:{w}" for w in SCENARIOS}
        )
        assert expected <= families, sorted(expected - families)

    def test_registries_agree(self):
        from repro import sweep
        from repro.conformance import BATTERY, COLLECTIVE_ORACLES
        from repro.simmpi import fastpath

        default_ops = {op for op, coll in BATTERY.items() if coll.default}
        assert set(sweep.COLLECTIVE_OPS) == default_ops == set(COLLECTIVE_ORACLES)
        # allreduce is a composite (reduce + bcast): no resolver of its own
        assert set(fastpath._RESOLVERS) == set(sweep.COLLECTIVE_OPS) - {"allreduce"}

    def test_grid_slice_conformant(self):
        cases = [c for c in smoke_cases() if c.size == 3][:6]
        report = run_grid(cases, grid="smoke")
        assert report.ok
        assert report.cells == len(VARIANTS) * len(cases)
        assert "CONFORMANT" in report.summary()

    def test_all_variants_run(self):
        assert len(VARIANTS) == 7
        case = next(c for c in smoke_cases() if c.name.startswith("allreduce/p=5"))
        baseline = run_cell(case, BASELINE_VARIANT)
        for variant, _ in VARIANTS[1:]:
            cell = run_cell(case, variant)
            assert cell.signature == baseline.signature
            assert cell.vtimes == baseline.vtimes
            assert cell.payloads == baseline.payloads

    def test_perturbed_build_diverges(self):
        cases = [c for c in smoke_cases() if c.size == 3][:3]
        with deliberately_perturbed(extra_words=2):
            report = run_grid(cases, grid="smoke", fail_limit=1)
        assert not report.ok
        first = report.first()
        assert first.which in ("counts", "vtimes")
        assert "replay_cell" in first.reproducer
        assert "FIRST DIVERGENCE" in report.summary()

    def test_perturbation_is_scoped(self):
        from repro.simmpi.counters import CostCounter

        original = CostCounter.add_send
        with deliberately_perturbed():
            assert CostCounter.add_send is not original
        assert CostCounter.add_send is original

    def test_replay_cell_reproducer(self, capsys):
        case = smoke_cases()[0]
        assert replay_cell(case.name, grid="smoke") is None
        assert "cell conforms" in capsys.readouterr().out
        with deliberately_perturbed(extra_words=2):
            div = replay_cell(case.name, grid="smoke")
        assert div is not None
        assert div.reference == "oracle"
        assert case.name in capsys.readouterr().out

    def test_replay_cell_unknown_case(self):
        with pytest.raises(ParameterError):
            replay_cell("no-such-case", grid="smoke")

    def test_grid_cases_unknown_grid(self):
        with pytest.raises(ParameterError):
            grid_cases("nope")

    def test_random_grid_deterministic(self):
        a = grid_cases("random", seed=11, cells=6)
        b = grid_cases("random", seed=11, cells=6)
        assert [c.name for c in a] == [c.name for c in b]
        report = run_grid(a, grid="random", seed=11)
        assert report.ok

    @pytest.mark.slow
    def test_smoke_grid_full_run_divergence_free(self):
        """Tier-2: the entire smoke grid (every case x all 7 variants),
        not just the size-3 slice tier-1 samples."""
        cases = smoke_cases()
        report = run_grid(cases, grid="smoke")
        assert report.ok
        assert report.cells == len(VARIANTS) * len(cases)

    @pytest.mark.slow
    def test_full_grid_divergence_free(self):
        """Tier-2: the `full` grid — smoke + extended sizes up to 33 +
        the seeded random sweep — must run divergence-free."""
        cases = grid_cases("full", seed=20130527, cells=20)
        report = run_grid(cases, grid="full", seed=20130527)
        assert report.ok
        assert len(report.non_pow2_sizes) >= 8


class TestBatteryInputs:
    @pytest.mark.parametrize("op", ["alltoall", "alltoall_bruck"])
    @pytest.mark.parametrize("p,block", [(2, 3), (8, 3), (16, 1), (4, 7)])
    def test_exchange_blocks_equal_per_block_aranges(self, monkeypatch, op, p, block):
        """The all-to-all programs build their blocks as rows of one
        tiled array; each must equal the ``np.arange(float(block))``
        it replaced: same type, dtype, shape and values."""
        from types import SimpleNamespace

        from repro.conformance import BATTERY, Shape

        monkeypatch.setattr(coll, op, lambda comm, blocks: blocks)
        program = BATTERY[op].program(Shape(p, block=block))
        blocks = program(SimpleNamespace(rank=p - 1, size=p))
        old = [np.arange(float(block)) for _ in range(p)]
        assert type(blocks) is list and len(blocks) == p
        for new, ref in zip(blocks, old):
            assert type(new) is np.ndarray
            assert (new.dtype, new.shape) == (ref.dtype, ref.shape)
            assert new.tobytes() == ref.tobytes()


class TestBruckErrorConformance:
    """alltoall_bruck at non-power-of-two p: both paths raise the same
    CommunicatorError with the same message on all ranks (pinned)."""

    @pytest.mark.parametrize("p", [3, 6, 12])
    def test_same_error_all_ranks_both_paths(self, p):
        (case,) = error_cases((p,))
        want = tuple(
            (
                r,
                "CommunicatorError",
                f"alltoall_bruck requires a power-of-two size, got {p}",
            )
            for r in range(p)
        )
        for variant in (BASELINE_VARIANT, "fastpath+engine+cow", "fastpath+pool+cow"):
            cell = run_cell(case, variant)
            assert cell.errors == want, variant


class TestConformanceCLI:
    def test_random_grid_exits_zero(self, capsys):
        assert main(["conformance", "--grid", "random", "--seed", "1",
                     "--cells", "4"]) == 0
        assert "CONFORMANT" in capsys.readouterr().out

    def test_json_report(self, capsys):
        assert main(["conformance", "--grid", "random", "--seed", "2",
                     "--cells", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["cells"] == payload["cases"] * len(VARIANTS)
        assert payload["divergences"] == []

    def test_demo_divergence_exits_four(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["conformance", "--grid", "random", "--seed", "3",
                  "--cells", "3", "--demo-divergence", "--fail-limit", "1"])
        assert exc.value.code == 4
        out = capsys.readouterr().out
        assert "FIRST DIVERGENCE" in out
        assert "replay_cell" in out

    def test_help_mentions_grids(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["conformance", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "random" in out and "full" in out
