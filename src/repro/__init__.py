"""repro — reproduction of "Perfect Strong Scaling Using No Additional
Energy" (Demmel, Gearhart, Lipshitz, Schwartz; IPDPS 2013).

Layout
------
* :mod:`repro.core` — the paper's analytic models: Eq. (1) runtime,
  Eq. (2) energy, communication lower bounds, perfect strong scaling
  ranges, and the Section V optimization closed forms.
* :mod:`repro.simmpi` — a metered simulated message-passing machine the
  algorithms execute on (flop/word/message counts feed the models).
* :mod:`repro.algorithms` — Cannon, SUMMA, 2.5D/3D matmul, Strassen and
  CAPS, LU, the replicated n-body algorithm, parallel FFT.
* :mod:`repro.machines` — the paper's Table I/II machine data and the
  Section VI technology-scaling case study.
* :mod:`repro.analysis` — figure/table series generators (Fig. 3, 4, 6,
  7) and measured-vs-analytic validation.
* :mod:`repro.conformance` — closed-form per-rank cost oracles and the
  differential harness that checks every execution mode against them
  (``repro conformance``).

Quickstart::

    from repro import MachineParameters, NBodyOptimizer

    machine = MachineParameters(
        gamma_t=2.5e-12, beta_t=1.6e-10, alpha_t=6e-8,
        gamma_e=3.8e-10, beta_e=3.8e-10, alpha_e=0.0,
        delta_e=5.8e-9, epsilon_e=0.0,
        memory_words=2**34, max_message_words=2**34,
    )
    opt = NBodyOptimizer(machine, interaction_flops=10)
    opt.optimal_memory()     # M0 — energy-optimal words per processor
    opt.min_energy(1_000_000)  # E* in joules, independent of p
"""

from repro.core import (
    AlgorithmCosts,
    CodesignProblem,
    HeterogeneousMachine,
    Classical2DMatMulCosts,
    ClassicalMatMulCosts,
    EnergyBreakdown,
    FFTCosts,
    LU25DCosts,
    MachineParameters,
    NBodyCosts,
    NBodyOptimizer,
    NumericOptimizer,
    OptimalRun,
    PerfectScalingReport,
    ScalingRange,
    StrassenMatMulCosts,
    TimeBreakdown,
    TwoLevelMachineParameters,
    energy,
    energy_from_counts,
    perfect_scaling_range,
    runtime,
    runtime_from_counts,
    verify_perfect_scaling,
)
from repro.exceptions import (
    CommunicatorError,
    DeadlockError,
    InfeasibleError,
    MemoryRangeError,
    ParameterError,
    RankFailedError,
    ReproError,
    SimulationError,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core re-exports
    "MachineParameters",
    "TwoLevelMachineParameters",
    "AlgorithmCosts",
    "ClassicalMatMulCosts",
    "Classical2DMatMulCosts",
    "StrassenMatMulCosts",
    "LU25DCosts",
    "NBodyCosts",
    "FFTCosts",
    "TimeBreakdown",
    "EnergyBreakdown",
    "runtime",
    "runtime_from_counts",
    "energy",
    "energy_from_counts",
    "ScalingRange",
    "PerfectScalingReport",
    "perfect_scaling_range",
    "verify_perfect_scaling",
    "NBodyOptimizer",
    "NumericOptimizer",
    "OptimalRun",
    # extensions
    "HeterogeneousMachine",
    "CodesignProblem",
    # exceptions
    "ReproError",
    "ParameterError",
    "InfeasibleError",
    "MemoryRangeError",
    "SimulationError",
    "DeadlockError",
    "RankFailedError",
    "CommunicatorError",
]
