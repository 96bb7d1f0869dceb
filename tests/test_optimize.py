"""Tests for the Section V closed-form n-body optimizer.

Strategy: every closed form is checked twice — against hand algebra on
small cases, and against brute-force/perturbation properties (M0 really
is the argmin; the budget solutions are tight at the boundary; the
quadratics satisfy their defining constraints)."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.optimize import NBodyOptimizer
from repro.core.parameters import MachineParameters
from repro.exceptions import InfeasibleError, ParameterError

from conftest import machine_strategy


@pytest.fixture
def opt(machine):
    return NBodyOptimizer(machine, interaction_flops=10.0)


def subnormal_b_optimizer(interaction_flops=10.0):
    """Only time per flop, memory energy and a subnormal B = beta_e: M0
    and the runtime threshold are subnormal, so a 1e-3 fraction of it
    asks for p far beyond float range."""
    machine = MachineParameters(
        gamma_t=1e-13, beta_t=0.0, alpha_t=0.0,
        gamma_e=0.0, beta_e=5e-324, alpha_e=0.0,
        delta_e=1e-15, epsilon_e=0.0,
        memory_words=1024.0, max_message_words=1.0,
    )
    return NBodyOptimizer(machine, interaction_flops=interaction_flops)


def pmin_sqrt_p(o, n, t_max):
    """The paper's 2D-limit root sqrt(p_min) = (bt' n + sqrt(bt'^2 n^2 +
    4 t_max gamma_t f n^2)) / (2 t_max), in 60-digit decimals: no term
    underflows or overflows, independently of the optimizer's floats."""
    with localcontext() as ctx:
        ctx.prec = 60
        bt, n, t = Decimal(o.bt_eff), Decimal(n), Decimal(t_max)
        gt_f = Decimal(o.machine.gamma_t) * Decimal(o.f)
        root = ((bt * n) ** 2 + 4 * t * gt_f * n**2).sqrt()
        return float((bt * n + root) / (2 * t))


def optimizer_strategy():
    return machine_strategy().map(
        lambda m: NBodyOptimizer(m, interaction_flops=10.0)
    )


class TestCoefficients:
    def test_A(self, machine, opt):
        g = machine
        expected = 10.0 * (g.gamma_e + g.gamma_t * g.epsilon_e) + g.delta_e * (
            g.beta_t + g.alpha_t / g.max_message_words
        )
        assert opt.A == pytest.approx(expected)

    def test_B(self, machine, opt):
        assert opt.B == pytest.approx(machine.comm_energy_per_word)

    def test_Dm(self, machine, opt):
        assert opt.Dm == pytest.approx(machine.delta_e * machine.gamma_t * 10.0)

    def test_f_validation(self, machine):
        with pytest.raises(ParameterError):
            NBodyOptimizer(machine, interaction_flops=0)


class TestModelEvaluation:
    def test_energy_formula(self, opt):
        n, M = 1e4, 1e3
        assert opt.energy(n, M) == pytest.approx(
            n**2 * (opt.A + opt.B / M + opt.Dm * M)
        )

    def test_energy_independent_of_p_by_construction(self, opt):
        # The signature doesn't even take p — Eq. (16)'s whole point.
        assert opt.energy(1e4, 1e3) == opt.energy(1e4, 1e3)

    def test_time_formula(self, machine, opt):
        n, p, M = 1e4, 16.0, 1e3
        expected = n**2 * (machine.gamma_t * 10.0 + opt.bt_eff / M) / p
        assert opt.time(n, p, M) == pytest.approx(expected)

    def test_time_scales_inversely_with_p(self, opt):
        assert opt.time(1e4, 32.0, 1e3) == pytest.approx(
            opt.time(1e4, 16.0, 1e3) / 2
        )

    def test_memory_bounds(self, opt):
        lo, hi = opt.memory_bounds(1e4, 16.0)
        assert lo == pytest.approx(1e4 / 16)
        assert hi == pytest.approx(1e4 / 4)

    def test_invalid_inputs(self, opt):
        with pytest.raises(ParameterError):
            opt.energy(0, 10)
        with pytest.raises(ParameterError):
            opt.time(10, 0, 10)


class TestOptimalMemory:
    def test_closed_form(self, opt):
        assert opt.optimal_memory() == pytest.approx(math.sqrt(opt.B / opt.Dm))

    @given(optimizer_strategy())
    @settings(max_examples=50)
    def test_M0_is_argmin(self, o):
        if o.Dm == 0 or o.B == 0:
            return
        M0 = o.optimal_memory()
        n = 1e6
        e0 = o.energy(n, M0)
        for factor in (0.5, 0.9, 1.1, 2.0):
            assert o.energy(n, M0 * factor) >= e0 * (1 - 1e-12)

    def test_free_memory_infeasible(self, machine):
        o = NBodyOptimizer(machine.replace(delta_e=0.0), interaction_flops=1.0)
        with pytest.raises(InfeasibleError):
            o.optimal_memory()

    def test_min_energy_eq18(self, opt):
        n = 1e5
        expected = n**2 * (opt.A + 2 * math.sqrt(opt.B * opt.Dm))
        assert opt.min_energy(n) == pytest.approx(expected)

    def test_min_energy_equals_energy_at_M0(self, opt):
        n = 1e5
        assert opt.min_energy(n) == pytest.approx(opt.energy(n, opt.optimal_memory()))

    def test_p_range_at_M0(self, opt):
        n = 1e6
        M0 = opt.optimal_memory()
        lo, hi = opt.p_range_at_optimal_memory(n)
        assert lo == pytest.approx(n / M0)
        assert hi == pytest.approx(n**2 / M0**2)


class TestMinRuntime:
    def test_uses_max_memory(self, machine, opt):
        n, p = 1e6, 100.0
        run = opt.min_runtime(n, p)
        assert run.M == pytest.approx(min(n / 10.0, machine.memory_words))

    def test_faster_with_more_p(self, opt):
        assert opt.min_runtime(1e6, 400.0).time < opt.min_runtime(1e6, 100.0).time


class TestMinEnergyGivenRuntime:
    def test_loose_deadline_attains_global_min(self, opt):
        n = 1e6
        t_loose = opt.runtime_threshold_for_min_energy(n) * 100
        run = opt.min_energy_given_runtime(n, t_loose)
        assert run.energy == pytest.approx(opt.min_energy(n), rel=1e-9)
        assert run.time <= t_loose * (1 + 1e-9)

    def test_tight_deadline_met_exactly_at_2d_limit(self, opt):
        n = 1e6
        t_tight = opt.runtime_threshold_for_min_energy(n) / 50
        run = opt.min_energy_given_runtime(n, t_tight)
        # The paper's p_min quadratic: deadline met with equality at the
        # 2D limit M = n/sqrt(p).
        assert run.time == pytest.approx(t_tight, rel=1e-6)
        assert run.M == pytest.approx(n / math.sqrt(run.p), rel=1e-9)

    def test_tight_deadline_costs_more_energy(self, opt):
        n = 1e6
        t_tight = opt.runtime_threshold_for_min_energy(n) / 50
        run = opt.min_energy_given_runtime(n, t_tight)
        assert run.energy > opt.min_energy(n)

    @given(optimizer_strategy(), st.floats(min_value=0.001, max_value=0.5))
    @example(o=subnormal_b_optimizer(), frac=0.001)
    @example(
        # subnormal bt' and B: 4 t_max gamma_t f underflowed to 0 in the
        # float form, which then returned a p that missed the deadline
        o=NBodyOptimizer(
            MachineParameters(
                gamma_t=1e-13, beta_t=2.2250738585e-313, alpha_t=0.0,
                gamma_e=0.0, beta_e=0.0, alpha_e=2.2250738585e-313,
                delta_e=9.57047513261198e-08, epsilon_e=0.0,
                memory_words=2097152.0, max_message_words=2097152.0,
            ),
            interaction_flops=10.0,
        ),
        frac=0.5,
    )
    @settings(max_examples=30)
    def test_pmin_quadratic_is_tight(self, o, frac):
        if o.Dm == 0 or o.B == 0:
            return
        n = 1e6
        t_max = o.runtime_threshold_for_min_energy(n) * frac
        try:
            run = o.min_energy_given_runtime(n, t_max)
        except InfeasibleError:
            # refused only when p really is beyond float range
            assert pmin_sqrt_p(o, n, t_max) > 1e150
            return
        assert run.time <= t_max * (1 + 1e-6)
        # Any fewer processors would miss the deadline.
        t_fewer = o.time(n, run.p * 0.99, n / math.sqrt(run.p * 0.99))
        assert t_fewer > t_max * (1 - 1e-9)

    @pytest.mark.parametrize("interaction_flops", [10.0, 1.0])
    def test_subnormal_b_deadline_infeasible(self, interaction_flops):
        # The paper's float form overflowed at sqrt_p**2 for f=10; for
        # f=1 its discriminant underflowed to 0 and p = 0 divided by zero.
        o = subnormal_b_optimizer(interaction_flops)
        n = 1e6
        t_max = o.runtime_threshold_for_min_energy(n) * 0.001
        assert pmin_sqrt_p(o, n, t_max) > 1e150
        with pytest.raises(InfeasibleError, match="deadline"):
            o.min_energy_given_runtime(n, t_max)

    def test_invalid(self, opt):
        with pytest.raises(ParameterError):
            opt.min_energy_given_runtime(0, 1)


class TestMinRuntimeGivenEnergy:
    def test_budget_below_minimum_infeasible(self, opt):
        n = 1e6
        with pytest.raises(InfeasibleError):
            opt.min_runtime_given_energy(n, opt.min_energy(n) * 0.99)

    def test_budget_met_with_equality(self, opt):
        n = 1e6
        e_max = opt.min_energy(n) * 1.5
        run = opt.min_runtime_given_energy(n, e_max)
        assert run.energy == pytest.approx(e_max, rel=1e-6)
        assert run.M == pytest.approx(n / math.sqrt(run.p), rel=1e-9)

    def test_more_budget_less_time(self, opt):
        n = 1e6
        r1 = opt.min_runtime_given_energy(n, opt.min_energy(n) * 1.2)
        r2 = opt.min_runtime_given_energy(n, opt.min_energy(n) * 2.0)
        assert r2.time < r1.time

    @given(optimizer_strategy(), st.floats(min_value=1.05, max_value=5.0))
    @settings(max_examples=30)
    def test_solution_is_on_2d_boundary(self, o, factor):
        if o.Dm == 0 or o.B == 0:
            return
        n = 1e6
        run = o.min_runtime_given_energy(n, o.min_energy(n) * factor)
        if math.isinf(run.p):
            return
        assert run.M == pytest.approx(n / math.sqrt(run.p), rel=1e-9)


class TestPowerBudgets:
    def test_processor_power_independent_of_n_p(self, opt):
        assert opt.processor_power(1e3) == opt.processor_power(1e3)

    def test_eq19_inversion(self, opt):
        M = 1e3
        p1 = opt.processor_power(M)
        assert opt.max_p_given_total_power(M, 100 * p1) == pytest.approx(100.0)

    def test_total_power_run_meets_budget(self, opt):
        n = 1e6
        budget = 500 * opt.processor_power(opt.optimal_memory())
        run = opt.min_runtime_given_total_power(n, budget)
        used = run.p * opt.processor_power(run.M)
        assert used <= budget * (1 + 1e-6)
        assert used == pytest.approx(budget, rel=1e-2)  # bisection tightness

    def test_total_power_infeasible(self, opt):
        with pytest.raises(InfeasibleError):
            opt.min_runtime_given_total_power(1e6, 1e-30)

    def test_proc_power_cap_is_tight(self, opt):
        M0 = opt.optimal_memory()
        cap = opt.processor_power(M0 * 4)  # a cap binding below M0*4
        m_cap = opt.max_memory_given_proc_power(cap)
        assert opt.processor_power(m_cap) == pytest.approx(cap, rel=1e-9)

    def test_proc_power_cap_monotone(self, opt):
        M0 = opt.optimal_memory()
        cap_small = opt.processor_power(M0 * 2)
        cap_large = opt.processor_power(M0 * 8)
        assert opt.max_memory_given_proc_power(cap_small) < (
            opt.max_memory_given_proc_power(cap_large)
        )

    def test_proc_power_infeasible(self, opt):
        with pytest.raises(InfeasibleError):
            opt.max_memory_given_proc_power(1e-30)

    def test_min_energy_under_generous_proc_cap(self, opt):
        n = 1e6
        generous = opt.processor_power(opt.optimal_memory()) * 10
        run = opt.min_energy_given_proc_power(n, generous)
        assert run.energy == pytest.approx(opt.min_energy(n), rel=1e-9)

    def test_min_energy_under_binding_proc_cap(self, opt):
        n = 1e6
        M0 = opt.optimal_memory()
        binding = opt.processor_power(M0 / 4)
        run = opt.min_energy_given_proc_power(n, binding)
        assert run.M < M0
        assert run.energy > opt.min_energy(n)


class TestEfficiencyTarget:
    def test_formula(self, opt):
        expected = 10.0 / (opt.A + 2 * math.sqrt(opt.B * opt.Dm))
        assert opt.flops_per_joule_optimal() == pytest.approx(expected)

    def test_consistent_with_min_energy(self, opt):
        n = 1e5
        total_flops = 10.0 * n**2
        assert opt.flops_per_joule_optimal() == pytest.approx(
            total_flops / opt.min_energy(n)
        )

    def test_gflops_conversion(self, opt):
        assert opt.gflops_per_watt_optimal() == pytest.approx(
            opt.flops_per_joule_optimal() / 1e9
        )


class TestRaceToHaltObservation:
    def test_race_to_halt_not_optimal(self, machine):
        """Section V-A: minimizing time and minimizing energy select
        different (p, M) — running flat-out costs extra energy whenever
        the memory term is material."""
        opt = NBodyOptimizer(machine, interaction_flops=10.0)
        n = 1e6
        p_max = opt.p_range_at_optimal_memory(n)[1] * 100
        fastest = opt.min_runtime(n, p_max)
        assert fastest.energy > opt.min_energy(n)
