"""Tests for LU factorization, the n-body algorithms, and the FFT."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import fft as fft_module
from repro.algorithms import nbody as nbody_module
from repro.algorithms import nbody_sim
from repro.algorithms.distributions import block_ranges
from repro.algorithms.fft import (
    assemble_fft_output,
    fft_flop_count,
    fft_parallel,
    fft_rows,
    fft_serial,
)
from repro.algorithms.lu import blocked_lu, lu_2d, lu_flop_count
from repro.algorithms.nbody import (
    COULOMB,
    GRAVITY,
    LENNARD_JONES,
    nbody_replicated,
    nbody_ring,
    nbody_serial,
)
from repro.exceptions import ParameterError, RankFailedError
from repro.simmpi.engine import run_spmd


def dominant(n, rng):
    return rng.standard_normal((n, n)) + n * np.eye(n)


class TestBlockedLU:
    @pytest.mark.parametrize("n,block", [(8, 2), (16, 16), (24, 8), (30, 7)])
    def test_factors(self, n, block, rng):
        a = dominant(n, rng)
        lo, up = blocked_lu(a, block=block)
        assert np.allclose(lo @ up, a)
        assert np.allclose(np.diag(lo), 1.0)
        assert np.allclose(lo, np.tril(lo))
        assert np.allclose(up, np.triu(up))

    def test_flops_order(self, rng):
        n = 32
        flops = []
        blocked_lu(dominant(n, rng), block=8, flop_counter=flops.append)
        measured = sum(flops)
        # Leading term (2/3) n^3 within a factor ~2 at this size.
        assert 0.5 * lu_flop_count(n) < measured < 3 * lu_flop_count(n)

    def test_zero_pivot_detected(self):
        with pytest.raises(ParameterError):
            blocked_lu(np.zeros((4, 4)))

    def test_nonsquare_rejected(self):
        with pytest.raises(ParameterError):
            blocked_lu(np.zeros((4, 6)))


class TestParallelLU:
    @pytest.mark.parametrize("p", [1, 4, 9, 16])
    def test_factors(self, p, rng):
        n = 24
        a = dominant(n, rng)
        out = run_spmd(p, lu_2d, a)
        q = int(p**0.5)
        lo = np.block([[out.results[i * q + j][0] for j in range(q)] for i in range(q)])
        up = np.block([[out.results[i * q + j][1] for j in range(q)] for i in range(q)])
        assert np.allclose(lo @ up, a)
        assert np.allclose(np.diag(lo), 1.0)
        assert np.allclose(up, np.triu(up))

    def test_matches_serial_factors(self, rng):
        """LU without pivoting is unique: parallel == serial factors."""
        n = 16
        a = dominant(n, rng)
        lo_s, up_s = blocked_lu(a, block=4)
        out = run_spmd(4, lu_2d, a)
        lo = np.block([[out.results[0][0], out.results[1][0]],
                       [out.results[2][0], out.results[3][0]]])
        up = np.block([[out.results[0][1], out.results[1][1]],
                       [out.results[2][1], out.results[3][1]]])
        assert np.allclose(lo, lo_s)
        assert np.allclose(up, up_s)

    def test_message_count_grows_with_p(self, rng):
        """The latency anti-scaling the paper attributes to LU's critical
        path: per-rank S grows with p at fixed n."""
        n = 48
        a = dominant(n, rng)
        s4 = run_spmd(4, lu_2d, a).report.max_messages
        s16 = run_spmd(16, lu_2d, a).report.max_messages
        assert s16 > s4

    def test_indivisible_rejected(self, rng):
        with pytest.raises(RankFailedError):
            run_spmd(4, lu_2d, dominant(9, rng))


class TestNBodySerial:
    def test_newtons_third_law_gravity(self, rng):
        pos = rng.standard_normal((20, 3))
        q = rng.uniform(0.5, 2.0, 20)
        f = nbody_serial(pos, q, GRAVITY)
        assert np.allclose(f.sum(axis=0), 0.0, atol=1e-9)

    def test_newtons_third_law_lj(self, rng):
        pos = rng.standard_normal((16, 3)) * 3
        q = np.ones(16)
        f = nbody_serial(pos, q, LENNARD_JONES)
        assert np.allclose(f.sum(axis=0), 0.0, atol=1e-6)

    def test_two_body_gravity_attracts(self):
        pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        q = np.array([1.0, 1.0])
        f = nbody_serial(pos, q, GRAVITY)
        assert f[0, 0] > 0  # particle 0 pulled toward +x
        assert f[1, 0] < 0

    def test_two_body_coulomb_repels(self):
        pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        q = np.array([1.0, 1.0])
        f = nbody_serial(pos, q, COULOMB)
        assert f[0, 0] < 0
        assert f[1, 0] > 0

    def test_gravity_inverse_square(self):
        q = np.array([1.0, 1.0])
        near = nbody_serial(np.array([[0.0, 0, 0], [1.0, 0, 0]]), q, GRAVITY)
        far = nbody_serial(np.array([[0.0, 0, 0], [2.0, 0, 0]]), q, GRAVITY)
        assert near[0, 0] / far[0, 0] == pytest.approx(4.0, rel=1e-6)

    def test_validation(self, rng):
        with pytest.raises(ParameterError):
            nbody_serial(rng.standard_normal(5), np.ones(5))
        with pytest.raises(ParameterError):
            nbody_serial(rng.standard_normal((5, 3)), np.ones(4))


class TestNBodyParallel:
    @pytest.mark.parametrize("p", [1, 2, 4, 6])
    def test_ring_matches_serial(self, p, rng):
        n = 24
        pos = rng.standard_normal((n, 3))
        q = rng.uniform(0.5, 2.0, n)
        ref = nbody_serial(pos, q, GRAVITY)
        out = run_spmd(p, nbody_ring, pos, q, GRAVITY)
        assert np.allclose(np.vstack(out.results), ref)

    def test_ring_flop_count(self, rng):
        n, p = 24, 4
        pos = rng.standard_normal((n, 3))
        q = np.ones(n)
        out = run_spmd(p, nbody_ring, pos, q, GRAVITY)
        assert out.report.total_flops == pytest.approx(
            GRAVITY.flops_per_pair * n * n
        )

    @pytest.mark.parametrize("p,c", [(4, 1), (4, 2), (8, 2), (16, 4), (12, 2)])
    def test_replicated_matches_serial(self, p, c, rng):
        n = 48
        pos = rng.standard_normal((n, 3))
        q = rng.uniform(0.5, 2.0, n)
        ref = nbody_serial(pos, q, GRAVITY)
        out = run_spmd(p, nbody_replicated, pos, q, c, GRAVITY)
        r = p // c
        got = np.vstack([out.results[i * c] for i in range(r)])
        assert np.allclose(got, ref)

    def test_replicated_non_leader_none(self, rng):
        pos = rng.standard_normal((8, 3))
        q = np.ones(8)
        out = run_spmd(8, nbody_replicated, pos, q, 2, GRAVITY)
        for rank, res in enumerate(out.results):
            if rank % 2 == 0:
                assert res is not None
            else:
                assert res is None

    def test_replication_cuts_ring_traffic(self, rng):
        """W per rank must drop ~1/c at fixed block size."""
        n = 96
        pos = rng.standard_normal((n, 3))
        q = np.ones(n)
        w1 = run_spmd(4, nbody_replicated, pos, q, 1, GRAVITY).report.max_words
        w4 = run_spmd(16, nbody_replicated, pos, q, 4, GRAVITY).report.max_words
        assert w4 < 0.75 * w1

    def test_c_must_divide_p(self, rng):
        pos = rng.standard_normal((12, 3))
        with pytest.raises(RankFailedError):
            run_spmd(6, nbody_replicated, pos, np.ones(12), 4)

    def test_c_must_divide_teams(self, rng):
        # p=8, c=4 -> r=2 teams, 2 % 4 != 0
        pos = rng.standard_normal((8, 3))
        with pytest.raises(RankFailedError):
            run_spmd(8, nbody_replicated, pos, np.ones(8), 4)

    def test_lj_replicated(self, rng):
        n = 24
        pos = rng.standard_normal((n, 3)) * 3
        q = np.ones(n)
        ref = nbody_serial(pos, q, LENNARD_JONES)
        out = run_spmd(8, nbody_replicated, pos, q, 2, LENNARD_JONES)
        got = np.vstack([out.results[i * 2] for i in range(4)])
        assert np.allclose(got, ref)


def _fft_reference(x, flop_counter):
    """The radix-2 FFT computed from scratch on every call, as
    fft_serial did before it cached its per-length tables."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    count = flop_counter if flop_counter is not None else (lambda _: None)
    stages = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=int)
    for _ in range(stages):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    y = x[rev].copy()
    half = 1
    while half < n:
        w = np.exp(-2j * np.pi * np.arange(half) / (2 * half))
        y = y.reshape(-1, 2 * half)
        lo = y[:, :half]
        hi = y[:, half:] * w
        y[:, half:] = lo - hi
        y[:, :half] = lo + hi
        count(10.0 * (n // 2))
        y = y.reshape(-1)
        half *= 2
    return y


class TestFFTSerial:
    @pytest.mark.parametrize("n", [1, 2, 8, 64, 512])
    def test_matches_numpy(self, n, rng):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.allclose(fft_serial(x), np.fft.fft(x))

    def test_real_input(self, rng):
        x = rng.standard_normal(128)
        assert np.allclose(fft_serial(x), np.fft.fft(x))

    def test_flop_count(self, rng):
        x = rng.standard_normal(256)
        flops = []
        fft_serial(x, flop_counter=flops.append)
        assert sum(flops) == pytest.approx(fft_flop_count(256))
        assert fft_flop_count(256) == 5 * 256 * 8

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ParameterError):
            fft_serial(np.zeros(12))

    @pytest.mark.parametrize("n", [2**k for k in range(1, 13)])
    def test_bitwise_equal_to_uncached_reference(self, n, rng):
        """Cached bit-reversal and twiddles change no output bit and no
        flop_counter call, on a first call and a repeated one."""
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        want_flops: list = []
        want = _fft_reference(x, want_flops.append)
        for _ in range(2):
            flops: list = []
            got = fft_serial(x, flop_counter=flops.append)
            assert got.tobytes() == want.tobytes()
            assert flops == want_flops

    def test_cached_tables_stay_private(self, rng):
        """Writing into one output leaves later transforms untouched."""
        x = rng.standard_normal(16) + 0j
        first = fft_serial(x)
        first[:] = 0
        assert fft_serial(x).tobytes() == _fft_reference(x, None).tobytes()

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_parseval_property(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(64)
        y = fft_serial(x)
        assert np.sum(np.abs(y) ** 2) == pytest.approx(64 * np.sum(x**2), rel=1e-9)


class TestFFTParallel:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    @pytest.mark.parametrize("mode", ["naive", "bruck"])
    def test_matches_numpy(self, p, mode, rng):
        n = 256
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        out = run_spmd(p, fft_parallel, x, mode)
        spec = assemble_fft_output(list(out.results), n)
        assert np.allclose(spec, np.fft.fft(x))

    def test_message_counts(self, rng):
        x = rng.standard_normal(1024)
        p = 8
        s_naive = run_spmd(p, fft_parallel, x, "naive").report.max_messages
        s_bruck = run_spmd(p, fft_parallel, x, "bruck").report.max_messages
        assert s_naive == p - 1
        # Bruck: log2 p exchanges + a couple of metadata-free... exactly log2 p
        assert s_bruck == math.log2(p)

    def test_word_tradeoff(self, rng):
        x = rng.standard_normal(1024)
        p = 8
        w_naive = run_spmd(p, fft_parallel, x, "naive").report.max_words
        w_bruck = run_spmd(p, fft_parallel, x, "bruck").report.max_words
        assert w_bruck > w_naive  # log p hops vs direct

    def test_flops_scale(self, rng):
        x = rng.standard_normal(256)
        out = run_spmd(4, fft_parallel, x, "naive")
        # Two local FFT passes + twiddle: within 2x of 5 n log n.
        base = fft_flop_count(256)
        assert 0.5 * base < out.report.total_flops < 2.5 * base

    def test_bad_mode(self, rng):
        with pytest.raises(RankFailedError):
            run_spmd(2, fft_parallel, np.zeros(64), "quantum")

    def test_too_short_signal(self, rng):
        with pytest.raises(RankFailedError):
            run_spmd(8, fft_parallel, np.zeros(16), "naive")


# -- batched host kernels ---------------------------------------------------
#
# The ring algorithms evaluate chunks of received source blocks in one
# batched kernel call, and fft_parallel transforms all of a rank's rows
# at once. The witnesses below are the per-step and per-row forms those
# replaced; every output bit, count, clock and trace event must match.


def _gravity_2d(tp, tq, sp, sq, exclude_self, eps=1e-12):
    """The gravity kernel as a plain 2-D formula, one source block."""
    diff = sp[None, :, :] - tp[:, None, :]
    dist2 = np.sum(diff * diff, axis=2) + eps
    inv = dist2 ** (-1.5)
    if exclude_self:
        np.fill_diagonal(inv, 0.0)
    w = (tq[:, None] * sq[None, :]) * inv
    return np.einsum("ts,tsd->td", w, diff)


def _lj_2d(tp, tq, sp, sq, exclude_self, eps=1e-12, sigma=1.0):
    """The Lennard-Jones kernel as a plain 2-D formula, one source block."""
    diff = sp[None, :, :] - tp[:, None, :]
    dist2 = np.sum(diff * diff, axis=2) + eps
    inv2 = sigma * sigma / dist2
    inv6 = inv2**3
    mag = 24.0 * (2.0 * inv6 * inv6 - inv6) / dist2
    if exclude_self:
        np.fill_diagonal(mag, 0.0)
    return -np.einsum("ts,tsd->td", mag, diff)


_LAWS_2D = [
    (GRAVITY, _gravity_2d),
    (COULOMB, lambda *a: -_gravity_2d(*a)),
    (LENNARD_JONES, _lj_2d),
]


def _check_batched_law(law, formula, t, s, chunk, seed, exclude_self=False):
    """A batched call's slices equal the per-block calls, and the last
    equals the plain 2-D formula, bit for bit."""
    rng = np.random.default_rng(seed)
    tp = rng.standard_normal((t, 3))
    tq = rng.uniform(0.5, 2.0, t)
    if exclude_self:
        sp, sq = np.stack([tp] * chunk), np.stack([tq] * chunk)
    else:
        sp = rng.standard_normal((chunk, s, 3))
        sq = rng.uniform(0.5, 2.0, (chunk, s))
    batched = law(tp, tq, sp, sq, exclude_self)
    assert batched.shape == (chunk, t, 3)
    for i in range(chunk):
        assert batched[i].tobytes() == law(tp, tq, sp[i], sq[i], exclude_self).tobytes()
    want = formula(tp, tq, sp[-1], sq[-1], exclude_self)
    assert batched[-1].tobytes() == want.tobytes()


def _ring_per_step(comm, pos, q, law=GRAVITY):
    """nbody_ring with one kernel call per ring step."""
    p, r = comm.size, comm.rank
    lo, hi = block_ranges(pos.shape[0], p)[r]
    my_pos = pos[lo:hi].copy()
    my_q = q[lo:hi].copy()
    comm.allocate(my_pos.size + my_q.size)
    forces = law(my_pos, my_q, my_pos, my_q, True)
    comm.add_flops(law.flops_per_pair * len(my_pos) * len(my_pos))
    travel_pos, travel_q = my_pos, my_q
    for step in range(1, p):
        travel_pos = comm.shift(travel_pos, 1, tag=("nbody_pos", step))
        travel_q = comm.shift(travel_q, 1, tag=("nbody_q", step))
        forces += law(my_pos, my_q, travel_pos, travel_q, False)
        comm.add_flops(law.flops_per_pair * len(my_pos) * len(travel_pos))
    comm.release()
    return forces


def _team_forces_per_step(comm, ring, member, c, law, tp, tq,
                          tags=("align_p", "align_q", "p", "q")):
    """team_forces with one kernel call per team-ring step."""
    travel_pos, travel_q = tp, tq
    if member:
        travel_pos = ring.shift(travel_pos, member, tag=tags[0])
        travel_q = ring.shift(travel_q, member, tag=tags[1])
    forces = np.zeros_like(tp)
    rounds = ring.size // c
    for rnd in range(rounds):
        forces += law(tp, tq, travel_pos, travel_q, member + rnd * c == 0)
        comm.add_flops(law.flops_per_pair * len(tp) * len(travel_pos))
        if rnd < rounds - 1:
            travel_pos = ring.shift(travel_pos, c, tag=(tags[2], rnd))
            travel_q = ring.shift(travel_q, c, tag=(tags[3], rnd))
    return forces


def _fft_rows_per_row(x, flop_counter=None):
    """fft_rows as one from-scratch transform per row."""
    return np.stack([_fft_reference(row, flop_counter) for row in x])


def _result_bytes(value):
    if value is None:
        return None
    if isinstance(value, nbody_sim.SimulationResult):
        return (value.positions.tobytes(), value.velocities.tobytes(),
                value.potential_proxy)
    return (value.shape, value.tobytes())


def _traced_signature(out):
    """Everything a traced run shows: result bytes, counts, per-rank
    virtual clocks and every event's fields."""
    return (
        [_result_bytes(r) for r in out.results],
        out.report.counts_signature(),
        [r.vtime for r in out.report.ranks],
        [[dataclasses.astuple(e) for e in log.events()] for log in out.event_logs],
    )


def _run_both(monkeypatch, patch, p, program, *args):
    """A traced run of the batched program, then of its per-step witness
    (``patch`` installs the witness)."""
    batched = run_spmd(p, program, *args, trace=True)
    with monkeypatch.context() as m:
        patch(m)
        witness = run_spmd(p, program, *args, trace=True)
    return _traced_signature(batched), _traced_signature(witness)


def _particles(n, seed=7):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 3)) * 2, rng.uniform(0.5, 2.0, n)


class TestBatchedForceLaws:
    @given(
        st.integers(0, 12), st.integers(0, 12), st.integers(1, 6),
        st.integers(0, 2**32 - 1), st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_call_equals_per_block_calls(self, t, s, chunk, seed, self_block):
        for law, formula in _LAWS_2D:
            _check_batched_law(law, formula, t, t if self_block else s, chunk,
                               seed, exclude_self=self_block)

    def test_two_batch_dimensions(self, rng):
        tp, tq = rng.standard_normal((5, 3)), rng.uniform(0.5, 2, 5)
        sp, sq = rng.standard_normal((2, 3, 4, 3)), rng.uniform(0.5, 2, (2, 3, 4))
        got = GRAVITY(tp, tq, sp, sq, False)
        assert got.shape == (2, 3, 5, 3)
        for i in range(2):
            for j in range(3):
                want = GRAVITY(tp, tq, sp[i, j], sq[i, j], False)
                assert got[i, j].tobytes() == want.tobytes()

    @pytest.mark.slow
    def test_exhaustive_grid(self):
        for t in range(49):
            for s in range(49):
                chunk = 1 + (7 * t + 11 * s) % 70
                for law, formula in (_LAWS_2D[0], _LAWS_2D[2]):
                    _check_batched_law(law, formula, t, s, chunk, seed=t * 64 + s)


class TestBatchedRing:
    """Ring, team and integration results, counts, clocks and events
    equal their per-step witnesses'."""

    @pytest.mark.parametrize("law", [GRAVITY, COULOMB, LENNARD_JONES], ids=lambda law: law.name)
    @pytest.mark.parametrize("p,n", [(4, 64), (5, 23), (7, 7), (8, 5), (6, 1), (1, 9)])
    def test_ring_matches_per_step_witness(self, p, n, law):
        pos, q = _particles(n)
        got = run_spmd(p, nbody_ring, pos, q, law, trace=True)
        want = run_spmd(p, _ring_per_step, pos, q, law, trace=True)
        assert _traced_signature(got) == _traced_signature(want)

    @pytest.mark.parametrize("budget", [1, 5, 18, 100])
    def test_chunks_closing_at_the_pair_budget_change_nothing(self, monkeypatch, budget):
        pos, q = _particles(29)
        want = run_spmd(6, _ring_per_step, pos, q, GRAVITY, trace=True)
        monkeypatch.setattr(nbody_module, "PAIR_BUDGET", budget)
        got = run_spmd(6, nbody_ring, pos, q, GRAVITY, trace=True)
        assert _traced_signature(got) == _traced_signature(want)

    @pytest.mark.parametrize("budget", [1, 16, nbody_module.PAIR_BUDGET])
    @pytest.mark.parametrize("p,n,c", [(4, 8, 1), (8, 24, 2), (16, 48, 4), (18, 12, 3), (9, 6, 3)])
    def test_team_matches_per_step_witness(self, monkeypatch, p, n, c, budget):
        pos, q = _particles(n)
        monkeypatch.setattr(nbody_module, "PAIR_BUDGET", budget)
        got, want = _run_both(
            monkeypatch,
            lambda m: m.setattr(nbody_module, "team_forces", _team_forces_per_step),
            p, nbody_replicated, pos, q, c, LENNARD_JONES,
        )
        assert got == want

    @pytest.mark.parametrize("p,n,c", [(4, 8, 1), (8, 16, 2), (16, 32, 4)])
    def test_simulation_matches_per_step_witness(self, monkeypatch, p, n, c):
        pos, masses = _particles(n)
        vel = np.random.default_rng(3).standard_normal((n, 3)) * 0.1
        got, want = _run_both(
            monkeypatch,
            lambda m: m.setattr(nbody_sim, "team_forces", _team_forces_per_step),
            p, nbody_sim.simulate_replicated, pos, vel, masses, 1e-3, 2, c,
        )
        assert got == want

    @pytest.mark.slow
    def test_exhaustive_ring_grid(self):
        for p in range(1, 10):
            for n in range(0, 41):
                pos, q = _particles(n, seed=p * 64 + n)
                got = run_spmd(p, nbody_ring, pos, q, GRAVITY)
                want = run_spmd(p, _ring_per_step, pos, q, GRAVITY)
                assert [r.tobytes() for r in got.results] == [
                    r.tobytes() for r in want.results
                ]
                assert got.report.counts_signature() == want.report.counts_signature()


class TestFFTRows:
    @pytest.mark.parametrize("rows", [1, 3, 8])
    @pytest.mark.parametrize("n", [1, 2, 16, 256])
    def test_rows_match_reference(self, n, rows, rng):
        x = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
        want_flops: list = []
        want = _fft_rows_per_row(x, want_flops.append)
        flops: list = []
        got = fft_rows(x, flops.append)
        assert got.tobytes() == want.tobytes()
        assert flops == want_flops

    @pytest.mark.parametrize("shape", [(2, 12), (8,), (2, 2, 4)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(ParameterError):
            fft_rows(np.zeros(shape))

    @pytest.mark.parametrize("mode", ["naive", "bruck"])
    @pytest.mark.parametrize("p,n", [(1, 8), (2, 64), (4, 1024), (8, 256)])
    def test_parallel_matches_per_row_witness(self, monkeypatch, p, n, mode, rng):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got, want = _run_both(
            monkeypatch,
            lambda m: m.setattr(fft_module, "fft_rows", _fft_rows_per_row),
            p, fft_parallel, x, mode,
        )
        assert got == want

    @pytest.mark.slow
    def test_exhaustive_grid(self):
        rng = np.random.default_rng(5)
        for k in range(13):
            n = 1 << k
            for rows in range(1, 65):
                x = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
                want_flops: list = []
                want = _fft_rows_per_row(x, want_flops.append)
                flops: list = []
                assert fft_rows(x, flops.append).tobytes() == want.tobytes()
                assert flops == want_flops
