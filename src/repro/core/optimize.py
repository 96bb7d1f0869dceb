"""Section V — closed-form energy/time/power optimization for the
replicated direct n-body algorithm.

With the shorthand (all derived from the machine constants and the
per-interaction flop count f):

    bt' = beta_t + alpha_t / m          effective seconds per word
    A   = f (gamma_e + gamma_t eps_e) + delta_e bt'      [V-C's A]
    B   = beta_e + beta_t eps_e + (alpha_e + alpha_t eps_e)/m  [V-C's B]
    Dm  = delta_e gamma_t f             memory-energy coefficient

the n-body energy (Eq. 16) is ``E(n, M) = n^2 (A + B/M + Dm M)`` —
independent of p — and the runtime (Eq. 15) is
``T(n, p, M) = n^2 (gamma_t f + bt'/M) / p``.

This module answers the paper's five introduction questions for n-body:

1.  minimum energy                      -> :meth:`NBodyOptimizer.min_energy`
    (memory M0 = sqrt(B/Dm), Eq. 18)
2.  min energy given max runtime Tmax   -> :meth:`min_energy_given_runtime`
3.  min runtime given max energy Emax   -> :meth:`min_runtime_given_energy`
4.  runtime/energy under power budgets  -> :meth:`max_p_given_total_power`,
    :meth:`max_memory_given_proc_power`, :meth:`min_runtime_given_total_power`
5.  machine constraint for a GFLOPS/W target -> :meth:`flops_per_joule_optimal`

Known paper errata (documented, corrected here, and covered by tests
that verify the constraints are tight):

* V-E prints D = beta_e + alpha_e/m - (bt')Pmax - eps_e bt'; the
  leakage-during-transfer term enters with a *plus* sign
  (D = beta_e + alpha_e/m + eps_e bt' - Pmax bt').
* V-E prints the discriminant as C^2 - 4 gamma_e gamma_t f D; deriving
  the quadratic delta_e gamma_t f M^2 - C M + D <= 0 gives
  C^2 - 4 delta_e gamma_t f D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.parameters import MachineParameters
from repro.exceptions import InfeasibleError, ParameterError

__all__ = ["OptimalRun", "NBodyOptimizer"]


@dataclass(frozen=True)
class OptimalRun:
    """A concrete execution point returned by the optimizers."""

    p: float  # processors
    M: float  # words of memory used per processor
    time: float  # seconds, Eq. (15)
    energy: float  # joules, Eq. (16)

    @property
    def average_power(self) -> float:
        """P = E / T in watts."""
        return self.energy / self.time if self.time > 0 else math.inf


@dataclass(frozen=True)
class NBodyOptimizer:
    """Closed-form Section V optimizer for the replicated n-body algorithm.

    Parameters
    ----------
    machine:
        Machine constants.
    interaction_flops:
        f — flops per pairwise particle interaction.
    """

    machine: MachineParameters
    interaction_flops: float = 1.0

    def __post_init__(self) -> None:
        if self.interaction_flops <= 0:
            raise ParameterError(
                f"interaction_flops must be > 0, got {self.interaction_flops!r}"
            )

    # -- model coefficients -------------------------------------------

    @property
    def f(self) -> float:
        return self.interaction_flops

    @property
    def bt_eff(self) -> float:
        """bt' = beta_t + alpha_t/m."""
        return self.machine.beta_t_eff

    @property
    def A(self) -> float:
        """Constant-term coefficient: f(gamma_e + gamma_t eps_e) + delta_e bt'."""
        g = self.machine
        return self.f * (g.gamma_e + g.gamma_t * g.epsilon_e) + g.delta_e * self.bt_eff

    @property
    def B(self) -> float:
        """1/M-term coefficient: beta_e + beta_t eps_e + (alpha_e + alpha_t eps_e)/m."""
        return self.machine.comm_energy_per_word

    @property
    def Dm(self) -> float:
        """M-term coefficient: delta_e gamma_t f."""
        g = self.machine
        return g.delta_e * g.gamma_t * self.f

    # -- direct model evaluation --------------------------------------

    def energy(self, n: float, M: float) -> float:
        """Eq. (16): E(n, M) = n^2 (A + B/M + Dm M). Independent of p."""
        if n <= 0 or M <= 0:
            raise ParameterError(f"n and M must be > 0, got n={n!r}, M={M!r}")
        return n**2 * (self.A + self.B / M + self.Dm * M)

    def time(self, n: float, p: float, M: float) -> float:
        """Eq. (15): T = n^2 (gamma_t f + bt'/M) / p."""
        if n <= 0 or p <= 0 or M <= 0:
            raise ParameterError("n, p, M must all be > 0")
        g = self.machine
        return n**2 * (g.gamma_t * self.f + self.bt_eff / M) / p

    def average_power(self, n: float, p: float, M: float) -> float:
        """P = E/T (independent of n): Section V-D expression."""
        return self.energy(n, M) / self.time(n, p, M)

    def memory_bounds(self, n: float, p: float) -> tuple[float, float]:
        """Admissible M range: [n/p, n/sqrt(p)] (1D limit to 2D limit)."""
        if n <= 0 or p <= 0:
            raise ParameterError("n and p must be > 0")
        return n / p, n / math.sqrt(p)

    # -- V-A: minimize runtime or energy ------------------------------

    def optimal_memory(self) -> float:
        """M0 = sqrt(B / Dm), the energy-minimizing memory (V-A).

        Independent of n and p. Raises
        :class:`~repro.exceptions.InfeasibleError` when Dm = 0 (free
        memory: more replication always pays and no finite optimum
        exists).
        """
        if self.Dm == 0:
            raise InfeasibleError(
                "delta_e * gamma_t * f = 0: memory is free, no finite M0"
            )
        return math.sqrt(self.B / self.Dm)

    def min_energy(self, n: float) -> float:
        """Eq. (18): E* = n^2 (A + 2 sqrt(B Dm))."""
        if n <= 0:
            raise ParameterError(f"n must be > 0, got {n!r}")
        return n**2 * (self.A + 2.0 * math.sqrt(self.B * self.Dm))

    def p_range_at_optimal_memory(self, n: float) -> tuple[float, float]:
        """Processor counts at which M0 is admissible: n/M0 <= p <= n^2/M0^2."""
        M0 = self.optimal_memory()
        return n / M0, n**2 / M0**2

    def min_runtime(self, n: float, p: float) -> OptimalRun:
        """Fastest run on p processors: use maximum memory M = n/sqrt(p)."""
        _, M_hi = self.memory_bounds(n, p)
        M = min(M_hi, self.machine.memory_words)
        return OptimalRun(
            p=p, M=M, time=self.time(n, p, M), energy=self.energy(n, M)
        )

    # -- V-B: minimize energy given a runtime bound --------------------

    def runtime_threshold_for_min_energy(self, n: float) -> float:
        """The smallest Tmax that still admits the global minimum energy:
        T at (M = M0, p = n^2/M0^2), which is gamma_t f M0^2 + bt' M0."""
        M0 = self.optimal_memory()
        g = self.machine
        return g.gamma_t * self.f * M0**2 + self.bt_eff * M0

    def min_energy_given_runtime(self, n: float, t_max: float) -> OptimalRun:
        """V-B: the minimum-energy run with T <= t_max.

        If t_max admits an M0 run, returns (M0, p chosen minimal such
        that T <= t_max). Otherwise runs at the 2D limit M = n/sqrt(p)
        with the paper's p_min quadratic. Raises
        :class:`~repro.exceptions.InfeasibleError` when that p exceeds
        1e300 (sqrt(p) > 1e150), as a subnormal B can ask for.
        """
        if n <= 0 or t_max <= 0:
            raise ParameterError("n and t_max must be > 0")
        g = self.machine
        bt = self.bt_eff
        if t_max >= self.runtime_threshold_for_min_energy(n):
            M0 = self.optimal_memory()
            # Smallest p that meets the deadline at M = M0 (stay in range).
            p_needed = n**2 * (g.gamma_t * self.f + bt / M0) / t_max
            p_lo, p_hi = n / M0, n**2 / M0**2
            p = min(max(p_needed, p_lo), p_hi)
            return OptimalRun(
                p=p, M=M0, time=self.time(n, p, M0), energy=self.energy(n, M0)
            )
        # 2D limit: p_min = ((bt n)/(2 Tmax) + sqrt(bt^2 n^2 + 4 Tmax gt f n^2)/(2 Tmax))^2,
        # divided through by Tmax so that a vanishing deadline (a subnormal
        # B makes M0 and the threshold subnormal) overflows towards the
        # guard instead of underflowing terms of the root to 0.
        h = bt / (2.0 * t_max)
        sqrt_p = n * (h + math.sqrt(h * h + g.gamma_t * self.f / t_max))
        if sqrt_p > 1e150:
            raise InfeasibleError(
                f"deadline {t_max!r} s for n={n!r} needs p = {sqrt_p!r}**2 "
                f"processors at the 2D limit, beyond the sqrt(p) <= 1e150 guard"
            )
        p = sqrt_p**2
        M = n / math.sqrt(p)
        return OptimalRun(p=p, M=M, time=self.time(n, p, M), energy=self.energy(n, M))

    # -- V-C: minimize runtime given an energy bound --------------------

    def min_runtime_given_energy(self, n: float, e_max: float) -> OptimalRun:
        """V-C: the fastest run with E <= e_max.

        The optimum is always a 2D run (M = n/sqrt(p)) at the largest p
        allowed by the energy budget:

            p <= ( (Emax - A n^2)/(2 n B)
                   + sqrt((Emax - A n^2)^2 - 4 B Dm n^4) / (2 n B) )^2

        Raises :class:`~repro.exceptions.InfeasibleError` if e_max is
        below the attainable minimum (imaginary root, as the paper notes).
        """
        if n <= 0 or e_max <= 0:
            raise ParameterError("n and e_max must be > 0")
        slack = e_max - self.A * n**2
        disc = slack**2 - 4.0 * self.B * self.Dm * n**4
        if slack <= 0 or disc < 0:
            raise InfeasibleError(
                f"energy budget {e_max!r} J is below the attainable minimum "
                f"{self.min_energy(n)!r} J for n={n!r}"
            )
        if self.B == 0:
            # Communication is free: p unbounded by energy; signal infinity.
            return OptimalRun(p=math.inf, M=0.0, time=0.0, energy=e_max)
        sqrt_p = (slack + math.sqrt(disc)) / (2.0 * n * self.B)
        if sqrt_p > 1e150:
            # Vanishing communication energy: effectively unbounded p.
            return OptimalRun(p=math.inf, M=0.0, time=0.0, energy=e_max)
        p = sqrt_p**2
        M = n / math.sqrt(p)
        return OptimalRun(p=p, M=M, time=self.time(n, p, M), energy=self.energy(n, M))

    # -- V-D: bounds on total power -------------------------------------

    def processor_power(self, M: float) -> float:
        """Per-processor average power at memory M (independent of n, p):

            P1(M) = (gamma_e f + beta_e'/M) / (gamma_t f + bt'/M)
                    + delta_e M + eps_e
        """
        if M <= 0:
            raise ParameterError(f"M must be > 0, got {M!r}")
        g = self.machine
        num = g.gamma_e * self.f + (g.beta_e + g.alpha_e / g.max_message_words) / M
        den = g.gamma_t * self.f + self.bt_eff / M
        return num / den + g.delta_e * M + g.epsilon_e

    def max_p_given_total_power(self, M: float, total_power: float) -> float:
        """Eq. (19): the most processors usable under a total power budget."""
        if total_power <= 0:
            raise ParameterError(f"total_power must be > 0, got {total_power!r}")
        return total_power / self.processor_power(M)

    def min_runtime_given_total_power(
        self, n: float, total_power: float
    ) -> OptimalRun:
        """Fastest run under a total power cap: the largest admissible p.

        At the 2D limit M = n/sqrt(p) both sides depend on p; we solve
        p * P1(n/sqrt(p)) = total_power by bisection on p (P1 decreases
        toward the compute-bound limit as M grows, but p * P1 is strictly
        increasing in p, so the root is unique).
        """
        if n <= 0 or total_power <= 0:
            raise ParameterError("n and total_power must be > 0")

        def used(p: float) -> float:
            M = n / math.sqrt(p)
            return p * self.processor_power(M)

        lo = 1.0
        if used(lo) > total_power:
            raise InfeasibleError(
                f"total power budget {total_power!r} W cannot run even one "
                f"processor (needs {used(lo)!r} W)"
            )
        hi = 2.0
        while used(hi) <= total_power:
            hi *= 2.0
            if hi > 1e30:
                raise InfeasibleError("power budget appears unbounded; aborting")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if used(mid) <= total_power:
                lo = mid
            else:
                hi = mid
        p = lo
        M = n / math.sqrt(p)
        return OptimalRun(p=p, M=M, time=self.time(n, p, M), energy=self.energy(n, M))

    # -- V-E: bound on power per processor ------------------------------

    def max_memory_given_proc_power(self, proc_power: float) -> float:
        """V-E: largest M meeting a per-processor power cap.

        Solves delta_e gamma_t f M^2 - C M + D <= 0 with

            C = gamma_t f Pmax - gamma_e f - eps_e gamma_t f - delta_e bt'
            D = beta_e + alpha_e/m + eps_e bt' - Pmax bt'

        (paper's V-E with the two errata corrected; see module
        docstring). Returns the upper root. Raises InfeasibleError when
        no M > 0 satisfies the cap.
        """
        if proc_power <= 0:
            raise ParameterError(f"proc_power must be > 0, got {proc_power!r}")
        g = self.machine
        bt = self.bt_eff
        be = g.beta_e + g.alpha_e / g.max_message_words
        a2 = g.delta_e * g.gamma_t * self.f  # quadratic coefficient (= Dm)
        C = (
            g.gamma_t * self.f * proc_power
            - g.gamma_e * self.f
            - g.epsilon_e * g.gamma_t * self.f
            - g.delta_e * bt
        )
        D = be + g.epsilon_e * bt - proc_power * bt
        if a2 == 0:
            # Linear: -C M + D <= 0  ->  M >= D / C if C > 0 (no upper cap).
            if C > 0:
                return math.inf
            raise InfeasibleError(
                f"per-processor power cap {proc_power!r} W is below the "
                "compute floor; no admissible memory"
            )
        disc = C**2 - 4.0 * a2 * D
        if disc < 0 or (C <= 0 and D > 0):
            raise InfeasibleError(
                f"per-processor power cap {proc_power!r} W is infeasible "
                "for this machine"
            )
        M_hi = (C + math.sqrt(disc)) / (2.0 * a2)
        if M_hi <= 0:
            raise InfeasibleError(
                f"per-processor power cap {proc_power!r} W admits no M > 0"
            )
        return M_hi

    def min_energy_given_proc_power(self, n: float, proc_power: float) -> OptimalRun:
        """V-E: minimum-energy run under a per-processor power cap.

        If M0 satisfies the cap, the global optimum is attainable.
        Otherwise E is decreasing in M below M0, so the best M is the cap
        value; any p in [n/M, n^2/M^2] works — we return the largest
        (fastest) admissible p.
        """
        if n <= 0:
            raise ParameterError(f"n must be > 0, got {n!r}")
        M_cap = self.max_memory_given_proc_power(proc_power)
        M0 = self.optimal_memory()
        M = min(M0, M_cap, self.machine.memory_words)
        p = n**2 / M**2  # fastest p admitting this M
        return OptimalRun(p=p, M=M, time=self.time(n, p, M), energy=self.energy(n, M))

    # -- open problem: minimize average power -----------------------------

    def min_average_power(self, n: float) -> OptimalRun:
        """Minimize average power P = E/T (a paper open problem).

        At fixed M the energy is fixed and T ~ 1/p, so P = p * P1(M) is
        minimized by the fewest processors that fit: p = n/M. Over M,
        P(M) = (n/M) * P1(M) is minimized numerically (golden section on
        log M within (0, min(n, machine memory)]); the optimum trades
        the per-processor memory power delta_e M against amortizing the
        fixed compute power over fewer, larger processors.
        """
        if n <= 0:
            raise ParameterError(f"n must be > 0, got {n!r}")
        m_hi = min(n, self.machine.memory_words)
        m_lo = max(m_hi * 1e-12, 1.0)

        def power(log_m: float) -> float:
            M = math.exp(log_m)
            return (n / M) * self.processor_power(M)

        lo, hi = math.log(m_lo), math.log(m_hi)
        # Golden-section search (the function is smooth and unimodal for
        # positive coefficient machines; endpoints win otherwise).
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c1, c2 = b - phi * (b - a), a + phi * (b - a)
        f1, f2 = power(c1), power(c2)
        for _ in range(200):
            if f1 <= f2:
                b, c2, f2 = c2, c1, f1
                c1 = b - phi * (b - a)
                f1 = power(c1)
            else:
                a, c1, f1 = c1, c2, f2
                c2 = a + phi * (b - a)
                f2 = power(c2)
        best_log_m = min((power(x), x) for x in (a, b, c1, c2, lo, hi))[1]
        M = math.exp(best_log_m)
        p = max(1.0, n / M)
        return OptimalRun(p=p, M=M, time=self.time(n, p, M), energy=self.energy(n, M))

    # -- V-F: GFLOPS/W target -------------------------------------------

    def flops_per_joule_optimal(self) -> float:
        """V-F: the machine's best achievable n-body efficiency
        f n^2 / E* = f / (A + 2 sqrt(B Dm)), independent of n, p, M."""
        return self.f / (self.A + 2.0 * math.sqrt(self.B * self.Dm))

    def gflops_per_watt_optimal(self) -> float:
        """:meth:`flops_per_joule_optimal` in GFLOPS/W (flops/J / 1e9)."""
        return self.flops_per_joule_optimal() / 1e9
