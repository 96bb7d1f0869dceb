"""Numeric optimizers for matrix multiplication and Strassen.

Section V solves the energy/time/power questions in closed form for the
n-body problem and notes that "the same techniques give qualitatively
similar, but more complicated, answers in the case of classical matrix
multiplication and Strassen's matrix multiplication" (deferring details
to the companion technical report). This module supplies those answers
numerically for *any* data-replicating
:class:`~repro.core.costs.AlgorithmCosts` model.

The key structural facts exploited (shared by all data-replicating
algorithms in the paper):

* Inside the perfect strong scaling range the total energy depends only
  on (n, M), never on p — so we may evaluate ``E(n, M)`` at the 1-copy
  processor count p_min(n, M) and optimize over M alone.
* For fixed M the runtime is proportional to 1/p, so the fastest run at
  memory M uses the largest in-range p = p_max_perfect(n, M), and
  feasibility questions reduce to one-dimensional searches over M.

The optimizers use a dense logarithmic grid over M followed by a
golden-section refinement (scipy.optimize.minimize_scalar) around the
best grid cell — robust for the smooth single-minimum energy curves the
models produce (E(M) = const + B'/M^a + D' M^b with positive
coefficients is strictly unimodal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.costs import AlgorithmCosts
from repro.core.energy import energy
from repro.core.optimize import OptimalRun
from repro.core.parameters import MachineParameters
from repro.core.timing import runtime
from repro.exceptions import InfeasibleError, ParameterError

__all__ = ["NumericOptimizer", "matmul_optimal_memory"]

_GRID_POINTS = 512


def matmul_optimal_memory(machine: MachineParameters) -> float:
    """Closed-form energy-optimal M for classical 2.5D matmul.

    Eq. (10) divided by n^3 is
    ``e(M) = Gamma + B M^{-1/2} + d_g M + d_b M^{1/2}`` with
    B = machine.comm_energy_per_word, d_g = delta_e gamma_t and
    d_b = delta_e (beta_t + alpha_t/m). Setting u = sqrt(M),
    e'(M) = 0 becomes the depressed-free cubic

        2 d_g u^3 + d_b u^2 - B = 0

    whose unique positive root (Descartes: one sign change) is M* = u^2 —
    the matmul analogue of the n-body M0 the paper defers to its tech
    report. Independent of n and p, like M0.

    Raises :class:`~repro.exceptions.InfeasibleError` when delta_e or
    gamma_t make memory free (no finite optimum), mirroring
    :meth:`~repro.core.optimize.NBodyOptimizer.optimal_memory`.
    """
    B = machine.comm_energy_per_word
    d_g = machine.delta_e * machine.gamma_t
    d_b = machine.delta_e * (
        machine.beta_t + machine.alpha_t / machine.max_message_words
    )
    if d_g == 0 and d_b == 0:
        raise InfeasibleError(
            "delta_e * gamma_t = 0 and delta_e * beta_t' = 0: memory is "
            "free, no finite optimum"
        )
    if B == 0:
        # Communication free: any memory only costs; M* -> 0 (use the
        # smallest legal footprint).
        return 1.0
    if d_g == 0:
        # Quadratic: d_b u^2 = B.
        return max(1.0, B / d_b)  # u^2 = B/d_b -> M = u^2
    # Normalize with u = s t, s = (B / (2 d_g))^(1/3), so the cubic
    # becomes t^3 + k t^2 - 1 = 0 with k = d_b s^2 / B — well
    # conditioned across the enormous dynamic range machine constants
    # span (raw coefficients can differ by 100+ orders of magnitude).
    s = (B / (2.0 * d_g)) ** (1.0 / 3.0)
    k = d_b * s * s / B
    if not math.isfinite(k):
        # The cubic term is negligible beyond float range: the quadratic
        # d_b u^2 = B limit applies (same as the d_g == 0 branch).
        return max(1.0, B / d_b)
    # f(t) = t^3 + k t^2 - 1 is strictly increasing on t > 0 (k >= 0)
    # with f(0) = -1 and f(1) = k >= 0, so the unique positive root lies
    # in (0, 1]. For large k it sits near t = k^{-1/2}; bracket a little
    # below that and solve with Brent — unlike a companion-matrix
    # eigensolve (np.roots), this cannot lose the root to rounding when
    # k is huge (k ~ 1e49 arises from realistic machine constants).
    from scipy import optimize as _sciopt

    lo = 0.5 * min(1.0, k**-0.5) if k > 0 else 0.0
    t = float(_sciopt.brentq(lambda x: x * x * (x + k) - 1.0, lo, 1.0))
    u = s * t
    # Less than one word of memory is not a physical operating point.
    return max(1.0, u * u)


@dataclass(frozen=True)
class NumericOptimizer:
    """Numeric Section-V optimizer for a data-replicating cost model.

    Parameters
    ----------
    costs:
        Cost expressions (e.g. ``ClassicalMatMulCosts()`` or
        ``StrassenMatMulCosts()``).
    machine:
        Machine constants. ``machine.memory_words`` caps usable M.
    """

    costs: AlgorithmCosts
    machine: MachineParameters

    # -- helpers --------------------------------------------------------

    def energy_at(self, n: float, M: float) -> float:
        """Total energy at memory M (independent of p in range):
        evaluated at the 1-copy processor count p_min(n, M)."""
        p = self.costs.p_min(n, M)
        return energy(self.costs, self.machine, n, p, M).total

    def fastest_time_at(self, n: float, M: float) -> tuple[float, float]:
        """(T, p) of the fastest in-range run at memory M
        (p = p_max_perfect)."""
        p = self.costs.p_max_perfect(n, M)
        t = runtime(self.costs, self.machine, n, p, M).total
        return t, p

    def _memory_grid(self, n: float) -> np.ndarray:
        """Log-spaced candidate memories in (0, min(machine memory,
        one-processor footprint)] — M beyond the whole problem's size
        would imply p < 1."""
        hi = min(self.machine.memory_words, self.costs.memory_min(n, 1.0))
        # A useful lower end: the memory of a heavily partitioned run.
        lo = max(hi * 1e-12, 1.0)
        return np.geomspace(lo, hi, _GRID_POINTS)

    def _refine_minimum(
        self, fn, lo: float, hi: float
    ) -> tuple[float, float]:
        """Golden-section refinement of a unimodal fn over [lo, hi] in
        log-space. Returns (argmin M, min value)."""

        from scipy import optimize as _sciopt

        def g(logM: float) -> float:
            return fn(math.exp(logM))

        res = _sciopt.minimize_scalar(
            g, bounds=(math.log(lo), math.log(hi)), method="bounded"
        )
        M = math.exp(res.x)
        return M, fn(M)

    # -- question 1: minimum energy --------------------------------------

    def min_energy(self, n: float) -> OptimalRun:
        """Minimum-energy execution: optimal M* and the slowest-p point
        admitting it (any p in [p_min(M*), p_max(M*)] gives the same E)."""
        if n <= 0:
            raise ParameterError(f"n must be > 0, got {n!r}")
        grid = self._memory_grid(n)
        vals = np.array([self.energy_at(n, M) for M in grid])
        i = int(np.argmin(vals))
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, len(grid) - 1)]
        M, E = self._refine_minimum(lambda M: self.energy_at(n, M), lo, hi)
        p = self.costs.p_min(n, M)
        t = runtime(self.costs, self.machine, n, p, M).total
        return OptimalRun(p=p, M=M, time=t, energy=E)

    # -- question 2: min energy under a runtime cap -----------------------

    def min_energy_given_runtime(self, n: float, t_max: float) -> OptimalRun:
        """Minimum-energy run with T <= t_max.

        For each M the fastest run uses p_max_perfect(n, M); M is
        feasible iff that run meets the deadline. We minimize E over the
        feasible M set (grid + refinement), then back off p to the
        smallest value still meeting the deadline (same energy, less
        parallelism).
        """
        if n <= 0 or t_max <= 0:
            raise ParameterError("n and t_max must be > 0")
        grid = self._memory_grid(n)
        feasible = []
        for M in grid:
            t, _ = self.fastest_time_at(n, M)
            if t <= t_max:
                feasible.append(M)
        if not feasible:
            raise InfeasibleError(
                f"runtime cap {t_max!r} s is unachievable for n={n!r} "
                f"within memory {self.machine.memory_words!r} words/proc"
            )
        lo, hi = min(feasible), max(feasible)

        def penalized(M: float) -> float:
            t, _ = self.fastest_time_at(n, M)
            if t > t_max:
                return math.inf
            return self.energy_at(n, M)

        M, E = self._refine_minimum(penalized, lo, hi)
        if math.isinf(E):
            # Refinement stepped outside the feasible set; fall back to grid.
            M = min(feasible, key=lambda Mi: self.energy_at(n, Mi))
            E = self.energy_at(n, M)
        # Smallest p meeting the deadline at this M.
        t_fast, p_fast = self.fastest_time_at(n, M)
        p = max(self.costs.p_min(n, M), p_fast * t_fast / t_max)
        t = runtime(self.costs, self.machine, n, p, M).total
        return OptimalRun(p=p, M=M, time=t, energy=E)

    # -- question 3: min runtime under an energy cap -----------------------

    def min_runtime_given_energy(self, n: float, e_max: float) -> OptimalRun:
        """Fastest run with E <= e_max: over feasible M, minimize the
        p_max_perfect runtime."""
        if n <= 0 or e_max <= 0:
            raise ParameterError("n and e_max must be > 0")
        grid = self._memory_grid(n)
        best: OptimalRun | None = None
        for M in grid:
            E = self.energy_at(n, M)
            if E > e_max:
                continue
            t, p = self.fastest_time_at(n, M)
            if best is None or t < best.time:
                best = OptimalRun(p=p, M=M, time=t, energy=E)
        if best is None:
            raise InfeasibleError(
                f"energy budget {e_max!r} J is below the attainable minimum "
                f"{self.min_energy(n).energy!r} J for n={n!r}"
            )
        return best

    # -- question 4: power budgets -----------------------------------------

    def average_power(self, n: float, p: float, M: float) -> float:
        """P = E / T for the run (n, p, M)."""
        E = energy(self.costs, self.machine, n, p, M).total
        T = runtime(self.costs, self.machine, n, p, M).total
        return E / T

    def min_runtime_given_total_power(
        self, n: float, total_power: float
    ) -> OptimalRun:
        """Fastest run whose average total power stays under the budget.

        For fixed M, E is constant and T = k/p, so P = E/T = (E/k) p is
        increasing in p: the power cap directly caps p at each M. Search
        over the M grid.
        """
        if n <= 0 or total_power <= 0:
            raise ParameterError("n and total_power must be > 0")
        grid = self._memory_grid(n)
        best: OptimalRun | None = None
        for M in grid:
            p_lo = self.costs.p_min(n, M)
            p_hi = self.costs.p_max_perfect(n, M)
            if self.average_power(n, p_lo, M) > total_power:
                continue  # even the slowest run blows the budget at this M
            # P is linear in p at fixed M: solve for the cap.
            P_lo = self.average_power(n, p_lo, M)
            p_cap = min(p_hi, p_lo * total_power / P_lo)
            t = runtime(self.costs, self.machine, n, p_cap, M).total
            E = energy(self.costs, self.machine, n, p_cap, M).total
            if best is None or t < best.time:
                best = OptimalRun(p=p_cap, M=M, time=t, energy=E)
        if best is None:
            raise InfeasibleError(
                f"total power budget {total_power!r} W cannot run n={n!r} "
                "at any admissible (p, M)"
            )
        return best

    # -- question 5: GFLOPS/W target ----------------------------------------

    def flops_per_joule_optimal(self, n: float) -> float:
        """Best achievable flops/J at problem size n (total flops divided
        by the minimum energy). For matmul total flops = n^3 (or
        n^omega0); asymptotically independent of n once the n^omega0
        terms dominate."""
        run = self.min_energy(n)
        total_flops = self.costs.flops(n, run.p, run.M) * run.p
        return total_flops / run.energy

    def gflops_per_watt_optimal(self, n: float) -> float:
        """:meth:`flops_per_joule_optimal` in GFLOPS/W."""
        return self.flops_per_joule_optimal(n) / 1e9
