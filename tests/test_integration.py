"""Integration tests: the paper's headline claims, measured end-to-end
on the simulator (real algorithms, real counts, models applied to the
measured counts)."""

import math
import threading

import numpy as np
import pytest

from repro.analysis.validation import scaling_points
from repro.core.costs import ClassicalMatMulCosts, NBodyCosts
from repro.exceptions import ParameterError, RankFailedError, SimulationError
from repro.simmpi.engine import run_spmd
from repro.sweep import SweepSpec


class TestHeadlineNBody:
    """Perfect strong scaling of the replicated n-body algorithm:
    p grows by c at fixed per-rank memory -> measured-count runtime falls
    ~1/c, measured-count energy ~constant."""

    @pytest.fixture(scope="class")
    def sweep(self):
        specs = [
            SweepSpec("nbody", n=96, p_values=(4 * c,), params={"c": c})
            for c in (1, 2, 4)
        ]
        return scaling_points(specs, "nbody c={c}")

    def test_time_scales_down(self, sweep):
        t = [pt.est_time for pt in sweep]
        assert t[1] < 0.65 * t[0]  # ideal 0.50
        assert t[2] < 0.40 * t[0]  # ideal 0.25

    def test_energy_constant(self, sweep):
        e = [pt.est_energy for pt in sweep]
        for v in e[1:]:
            assert v == pytest.approx(e[0], rel=0.15)

    def test_flops_conserved_across_c(self, sweep):
        f = [pt.total_flops for pt in sweep]
        assert f[1] == pytest.approx(f[0])
        assert f[2] == pytest.approx(f[0])

    def test_per_rank_words_fall_with_c(self, sweep):
        w = [pt.max_words for pt in sweep]
        assert w[2] < w[0]

    def test_measured_words_match_model_shape(self, sweep):
        """W * p should track the model's n^2/M within a small constant.

        The paper's n-body M counts particles (each O(1) words); our
        meter counts words (4 per particle), so convert the measured
        traffic to particles before comparing.
        """
        costs = NBodyCosts(interaction_flops=20.0)
        n = 96
        m_particles = n // 4  # block size at r = 4 teams
        predicted_total = costs.words(n, sweep[0].p, m_particles) * sweep[0].p
        measured_total = sweep[0].max_words / 4.0 * sweep[0].p
        assert 0.2 < measured_total / predicted_total < 5.0


class TestHeadlineMatmul:
    @pytest.fixture(scope="class")
    def sweep(self):
        spec = SweepSpec("matmul25d", n=96, q=6, c_values=(1, 2, 3))
        return scaling_points(spec, "matmul25d c={c}")

    def test_time_scales_down(self, sweep):
        t = [pt.est_time for pt in sweep]
        assert t[1] < 0.70 * t[0]  # ideal 0.50 + bcast constants
        assert t[2] < 0.55 * t[0]  # ideal 0.33

    def test_energy_nearly_constant(self, sweep):
        e = [pt.est_energy for pt in sweep]
        for v in e[1:]:
            assert v == pytest.approx(e[0], rel=0.35)

    def test_per_rank_words_fall_with_c(self, sweep):
        w = [pt.max_words for pt in sweep]
        assert w[1] < w[0]
        assert w[2] < w[0]

    def test_flops_constant(self, sweep):
        f = [pt.total_flops for pt in sweep]
        assert f[1] == pytest.approx(f[0])
        assert f[2] == pytest.approx(f[0])

    def test_measured_vs_model_2d_words(self, sweep):
        costs = ClassicalMatMulCosts()
        n = 96
        pt = sweep[0]  # c=1 run
        M = 3 * (n // 6) ** 2
        predicted = costs.words(n, pt.p, (n // 6) ** 2)
        assert 0.2 < pt.max_words / predicted < 5.0


class TestCapsShape:
    def test_bandwidth_power_law(self):
        pts = scaling_points(
            SweepSpec("caps", n=28, p_values=(7, 49)), "caps n={n} p={p}"
        )
        w7 = next(pt for pt in pts if pt.p == 7).max_words
        w49 = next(pt for pt in pts if pt.p == 49).max_words
        ideal = 7.0 ** (2.0 / math.log2(7.0))  # ~3.99
        assert 2.0 < w7 / w49 < 8.0
        assert w7 / w49 == pytest.approx(ideal, rel=0.8)


class TestFFTNoPerfectScaling:
    @pytest.fixture(scope="class")
    def res(self):
        return {
            mode: scaling_points(
                SweepSpec(
                    "fft",
                    n=1024,
                    p_values=(2, 4, 8, 16),
                    params={"all_to_all": mode},
                ),
                "fft {all_to_all} p={p}",
            )
            for mode in ("naive", "bruck")
        }

    def test_naive_messages_grow_linearly(self, res):
        s = [pt.max_messages for pt in res["naive"]]
        assert s == [1, 3, 7, 15]

    def test_bruck_messages_grow_logarithmically(self, res):
        s = [pt.max_messages for pt in res["bruck"]]
        assert s == [1, 2, 3, 4]

    def test_bruck_words_exceed_naive(self, res):
        for nv, bk in zip(res["naive"][1:], res["bruck"][1:]):
            if nv.p >= 4:
                assert bk.max_words > nv.max_words

    def test_energy_not_constant_across_p(self, res):
        """No 'no additional energy' region for FFT: estimated energy
        varies across p in either mode."""
        for mode in ("naive", "bruck"):
            e = [pt.est_energy for pt in res[mode]]
            spread = max(e) / min(e)
            assert spread > 1.05


class TestLULatency:
    @pytest.fixture(scope="class")
    def pts(self):
        return scaling_points(
            SweepSpec("lu2d", n=48, p_values=(4, 16)), "lu2d p={p}"
        )

    def test_messages_grow_with_p(self, pts):
        assert pts[1].max_messages > pts[0].max_messages

    def test_flops_constant_across_p(self, pts):
        assert pts[0].total_flops == pytest.approx(pts[1].total_flops, rel=1e-6)


class TestScalingPoints:
    def test_failed_cell_raises_naming_it(self, monkeypatch):
        # p = 12 ranks as c = 3 teams of r = 4: c must divide r. The
        # plan raises the rank program's message once, before any rank
        # thread starts.
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t))
        with pytest.raises(ParameterError) as exc:
            spec = SweepSpec("nbody", n=96, p_values=(12,), params={"c": 3})
            scaling_points(spec, "nbody c={c}")
        assert str(exc.value) == (
            "team count r=4 must be divisible by c=3 so each member runs "
            "r/c ring steps (got p=12, c=3)"
        )
        assert started == []

    def test_cell_failing_at_run_time_chains_the_rank_error(self, monkeypatch):
        """A cell that fails while it runs is one SimulationError naming
        the cell, chained to the run's RankFailedError, which holds the
        rank's own exception."""
        from repro.sweep import runner

        build = runner.build_cell_program

        def build_failing(cell):
            _, args, label = build(cell)

            def failing(comm, *args):
                if comm.rank == 1:
                    raise ValueError("rank 1 broke")

            return failing, args, label

        monkeypatch.setattr(runner, "build_cell_program", build_failing)
        spec = SweepSpec("fft", n=64, p_values=(4,))
        with pytest.raises(SimulationError) as exc:
            scaling_points(spec, "fft p={p}")
        (cell,) = spec.cells()
        assert str(exc.value) == (
            f"sweep cell {cell.cell_id} failed: RankFailedError: 1 rank(s) "
            "failed: rank 1: ValueError: rank 1 broke"
        )
        cause = exc.value.__cause__
        assert isinstance(cause, RankFailedError)
        assert str(cause.failures[1]) == "rank 1 broke"


class TestCrossAlgorithmConsistency:
    def test_all_matmuls_agree(self, rng):
        """Cannon, SUMMA, 2.5D and CAPS must produce the same product
        (different p requirements, same answer)."""
        from repro.algorithms import (
            cannon_matmul,
            caps_assemble,
            caps_matmul,
            matmul_25d,
            summa_matmul,
        )

        n = 28
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        ref = a @ b

        out = run_spmd(4, summa_matmul, a, b)
        got_summa = np.block(
            [[out.results[0], out.results[1]], [out.results[2], out.results[3]]]
        )
        out = run_spmd(4, cannon_matmul, a, b)
        got_cannon = np.block(
            [[out.results[0], out.results[1]], [out.results[2], out.results[3]]]
        )
        out = run_spmd(8, matmul_25d, a, b, 2)
        got_25d = np.block(
            [[out.results[0], out.results[2]], [out.results[4], out.results[6]]]
        )
        out = run_spmd(7, caps_matmul, a, b)
        got_caps = caps_assemble(list(out.results), n, 7, 0)

        for got in (got_summa, got_cannon, got_25d, got_caps):
            assert np.allclose(got, ref)

    def test_nbody_ring_equals_replicated_c1(self, rng):
        from repro.algorithms import GRAVITY, nbody_replicated, nbody_ring

        n = 32
        pos = rng.standard_normal((n, 3))
        q = np.ones(n)
        out_ring = run_spmd(4, nbody_ring, pos, q, GRAVITY)
        out_repl = run_spmd(4, nbody_replicated, pos, q, 1, GRAVITY)
        assert np.allclose(
            np.vstack(out_ring.results), np.vstack(out_repl.results)
        )
