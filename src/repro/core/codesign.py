"""Inverse design — introduction question 5 and Section VI's closing.

Question 5: *given an algorithm, problem size, processor count and
target energy efficiency (GFLOPS/W), can we determine a set of
architectural parameters to describe a conforming computer
architecture?* Section VI adds: *if we consider the problem of finding
optimal machine parameters within a given energy efficiency envelope
and cost metrics, we can solve the optimization problem via a steepest
descents approach to guide hardware development.*

This module implements both:

* :func:`efficiency` — GFLOPS/W of a cost model on a machine (the
  forward map).
* :func:`feasible_scaling` — is a uniform scaling of chosen parameters
  enough to hit a target? Returns the required factor (bisection on the
  forward map; exact-closed-form 1/x when every energy term carries a
  scaled parameter).
* :class:`CodesignProblem` / :func:`cheapest_conforming_machine` — the
  Section VI program: given per-parameter improvement *cost* weights
  (how hard engineering each J/flop, J/word, J/word/s down is), find
  the cheapest parameter vector meeting the efficiency target, via
  scipy gradient descent (L-BFGS-B on log-scalings) with a closed-form
  fallback check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.costs import AlgorithmCosts, ClassicalMatMulCosts
from repro.core.energy import energy
from repro.core.parameters import MachineParameters
from repro.exceptions import InfeasibleError, ParameterError

__all__ = [
    "efficiency",
    "feasible_scaling",
    "CodesignProblem",
    "cheapest_conforming_machine",
]

#: Parameters the designer may scale (energy side; time side is the
#: process technology the paper holds fixed).
DESIGN_PARAMETERS: tuple[str, ...] = (
    "gamma_e",
    "beta_e",
    "alpha_e",
    "delta_e",
    "epsilon_e",
)


def efficiency(
    costs: AlgorithmCosts,
    machine: MachineParameters,
    n: float,
    M: float | None = None,
) -> float:
    """GFLOPS/W of the algorithm on the machine: total flops / E / 1e9.

    Uses the one-copy processor count p = p_min(n, M) (any p in the
    perfect range gives the same E for data-replicating algorithms). M
    is clamped to the whole-problem footprint — memory beyond one copy
    on one processor is meaningless for the model."""
    if M is None:
        M = machine.memory_words
    M = min(M, machine.memory_words, costs.memory_min(n, 1.0))
    p = max(1.0, costs.p_min(n, M))
    e = energy(costs, machine, n, p, M).total
    total_flops = costs.flops(n, p, M) * p
    return total_flops / e / 1e9


def feasible_scaling(
    target_gflops_per_watt: float,
    machine: MachineParameters,
    costs: AlgorithmCosts | None = None,
    n: float = 35000.0,
    parameters: tuple[str, ...] = ("gamma_e", "beta_e", "delta_e"),
    min_factor: float = 1e-9,
) -> float:
    """The uniform factor f <= 1 by which ``parameters`` must shrink to
    reach the target (1.0 if already met).

    Raises :class:`~repro.exceptions.InfeasibleError` when even scaling
    to ``min_factor`` falls short (some unscaled term binds — e.g.
    leakage when epsilon_e is excluded).
    """
    if target_gflops_per_watt <= 0:
        raise ParameterError("target must be > 0")
    costs = costs if costs is not None else ClassicalMatMulCosts()

    def eff(factor: float) -> float:
        scaled = machine.scale(**{p: factor for p in parameters})
        return efficiency(costs, scaled, n)

    if eff(1.0) >= target_gflops_per_watt:
        return 1.0
    if eff(min_factor) < target_gflops_per_watt:
        raise InfeasibleError(
            f"target {target_gflops_per_watt} GFLOPS/W unreachable by scaling "
            f"{parameters} alone (an unscaled energy term binds)"
        )
    lo, hi = min_factor, 1.0
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if eff(mid) >= target_gflops_per_watt:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class CodesignProblem:
    """Find the cheapest machine meeting an efficiency target.

    ``cost_weights[name]`` is the engineering cost of each *e-folding*
    of improvement in parameter ``name`` (improving a parameter by a
    factor s < 1 costs ``weight * (-ln s)``). The total design cost is
    the weighted sum over scaled parameters; the constraint is
    efficiency >= target.
    """

    machine: MachineParameters
    target_gflops_per_watt: float
    costs: AlgorithmCosts = field(default_factory=ClassicalMatMulCosts)
    n: float = 35000.0
    cost_weights: dict = field(
        default_factory=lambda: {"gamma_e": 1.0, "beta_e": 1.0, "delta_e": 1.0}
    )

    def __post_init__(self) -> None:
        if self.target_gflops_per_watt <= 0:
            raise ParameterError("target must be > 0")
        for name, w in self.cost_weights.items():
            if name not in DESIGN_PARAMETERS:
                raise ParameterError(
                    f"{name!r} is not a design parameter {DESIGN_PARAMETERS}"
                )
            if w <= 0:
                raise ParameterError(f"cost weight for {name} must be > 0")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.cost_weights)

    def design_cost(self, scalings: np.ndarray) -> float:
        """Weighted e-foldings of improvement."""
        w = np.array([self.cost_weights[n] for n in self.names])
        return float(np.sum(w * (-np.log(np.minimum(scalings, 1.0)))))

    def scaled_machine(self, scalings: np.ndarray) -> MachineParameters:
        return self.machine.scale(
            **{name: float(s) for name, s in zip(self.names, scalings)}
        )

    def efficiency_of(self, scalings: np.ndarray) -> float:
        return efficiency(self.costs, self.scaled_machine(scalings), self.n)


def cheapest_conforming_machine(
    problem: CodesignProblem, floor: float = 1e-6
) -> tuple[MachineParameters, np.ndarray, float]:
    """Solve the Section VI co-design program by projected descent.

    Returns (machine, scalings, design_cost). Parameterizes each scaling
    as exp(-x), x >= 0, and minimizes ``design_cost + penalty`` with an
    exact-penalty continuation on the efficiency constraint via
    L-BFGS-B; the result is polished by a bisection along the final
    descent direction so the constraint is active to ~1e-6.

    Raises :class:`~repro.exceptions.InfeasibleError` when no scaling of
    the chosen parameters (down to ``floor``) meets the target.
    """
    names = problem.names
    k = len(names)
    full = np.full(k, floor)
    if problem.efficiency_of(full) < problem.target_gflops_per_watt:
        raise InfeasibleError(
            f"target {problem.target_gflops_per_watt} GFLOPS/W unreachable by "
            f"scaling {names} (floor {floor})"
        )
    if problem.efficiency_of(np.ones(k)) >= problem.target_gflops_per_watt:
        machine = problem.scaled_machine(np.ones(k))
        return machine, np.ones(k), 0.0

    w = np.array([problem.cost_weights[n] for n in names])
    x_max = -math.log(floor)
    target = problem.target_gflops_per_watt

    def objective(x: np.ndarray, mu: float) -> float:
        s = np.exp(-x)
        eff = problem.efficiency_of(s)
        gap = max(0.0, target - eff)
        return float(np.sum(w * x)) + mu * (gap / target) ** 2

    from scipy import optimize as _sciopt

    x = np.full(k, 0.1)
    for mu in (1e2, 1e4, 1e6, 1e8):
        res = _sciopt.minimize(
            objective,
            x,
            args=(mu,),
            method="L-BFGS-B",
            bounds=[(0.0, x_max)] * k,
        )
        x = res.x
    # Polish: scale x up uniformly until the constraint holds exactly.
    s = np.exp(-x)
    if problem.efficiency_of(s) < target:
        lo, hi = 1.0, x_max / max(float(np.max(x)), 1e-12)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if problem.efficiency_of(np.exp(-x * mid)) >= target:
                hi = mid
            else:
                lo = mid
        x = x * hi
    s = np.exp(-x)
    machine = problem.scaled_machine(s)
    return machine, s, problem.design_cost(s)
