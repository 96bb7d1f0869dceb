"""Model-term attribution profiler: where Eq. (1)/(2) say the cost goes.

A :class:`~repro.simmpi.trace.TraceReport` already evaluates the
paper's models on measured counts; this module *attributes* those
predictions to the model's additive terms and to the run's structure:

* per term — how many predicted seconds are gamma_t F vs beta_t W vs
  alpha_t S (:attr:`ModelProfile.time_terms`), and how many predicted
  joules are each of Eq. (2)'s five terms
  (:attr:`ModelProfile.energy_terms`);
* per rank — the Eq. (1) term split of every rank, with the critical
  (slowest) rank marked;
* per phase — when the run was traced, the depth-0 event categories
  (top-level collectives, kernels, p2p) priced per term, so "bcast is
  80% of the latency cost" becomes a table row.

Bit-exactness contract: the top-level term values *are* the fields of
the :class:`~repro.core.timing.TimeBreakdown` /
:class:`~repro.core.energy.EnergyBreakdown` that
``report.estimate_time`` / ``report.estimate_energy`` return, exposed
in the same order those classes' ``total`` properties add them. Summing
``time_terms.values()`` / ``energy_terms.values()`` therefore replays
the identical float additions and reproduces the model totals
bit-for-bit — the profiler is a *view* of the model evaluation, never a
re-derivation that could drift (the test suite asserts this across
every ``repro trace`` workload).

Phase rows are priced from the traced per-category F/W/S tallies
(:meth:`repro.analysis.timeline.Timeline.breakdown`), so their term
columns sum to the run totals only up to float re-association and only
when no events were dropped; they answer "which phase", not "exactly
how much".

:func:`profile_strong_scaling_matmul` runs the paper's headline
experiment — 2.5D matmul at fixed per-rank tiles while p grows — and
profiles every sweep point, making the theorem visible *per term*:
each time term falls like 1/p while each energy term stays flat
(:func:`render_term_sweep` prints the table).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.asciiplot import stacked_bars
from repro.core.energy import EnergyBreakdown
from repro.core.parameters import MachineParameters
from repro.core.timing import TimeBreakdown
from repro.exceptions import ParameterError
from repro.simmpi.trace import TraceReport

__all__ = [
    "ModelProfile",
    "PhaseCost",
    "profile_strong_scaling_matmul",
    "render_term_sweep",
]

#: JSON schema tag of :meth:`ModelProfile.to_json` payloads.
SCHEMA = "repro_profile/v1"

#: Eq. (1) term keys, in ``TimeBreakdown.total`` addition order.
TIME_TERM_KEYS = ("gammaF", "betaW", "alphaS")
#: Eq. (2) term keys, in ``EnergyBreakdown.total`` addition order.
ENERGY_TERM_KEYS = ("gammaF", "betaW", "alphaS", "deltaMT", "epsT")


def _time_terms(t: TimeBreakdown) -> dict[str, float]:
    """The breakdown's fields keyed by term, in ``total``'s sum order."""
    return {"gammaF": t.compute, "betaW": t.bandwidth, "alphaS": t.latency}


def _energy_terms(e: EnergyBreakdown) -> dict[str, float]:
    return {
        "gammaF": e.compute,
        "betaW": e.bandwidth,
        "alphaS": e.latency,
        "deltaMT": e.memory,
        "epsT": e.leakage,
    }


@dataclass(frozen=True)
class PhaseCost:
    """One depth-0 event category priced per model term.

    ``time_terms`` are modeled seconds (gamma_t F, beta_t W, alpha_t S
    on the category's rank-summed tallies); ``energy_terms`` are the
    *dynamic* joules (gamma_e F, beta_e W, alpha_e S) — the memory and
    leakage terms charge the whole run's duration and are reported at
    run level, not split across phases.
    """

    name: str
    count: int
    flops: float
    words: float
    messages: float
    seconds: float  # traced virtual seconds, summed over ranks
    time_terms: dict[str, float]
    energy_terms: dict[str, float]

    @property
    def model_seconds(self) -> float:
        return sum(self.time_terms.values())

    @property
    def dynamic_joules(self) -> float:
        return sum(self.energy_terms.values())


@dataclass(frozen=True)
class ModelProfile:
    """Per-term attribution of one run's modeled time and energy."""

    report: TraceReport
    machine: MachineParameters
    label: str
    memory_words: float  # the M charged to Eq. (2)'s delta_e M T term
    time: TimeBreakdown  # report.estimate_time(machine), verbatim
    energy: EnergyBreakdown  # report.estimate_energy(...), verbatim
    critical_rank: int  # slowest rank under Eq. (1)
    phases: tuple[PhaseCost, ...] | None  # traced runs only
    dropped_events: int  # ring-overflow drops (phases undercount if > 0)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_report(
        cls,
        report: TraceReport,
        machine: MachineParameters,
        memory_words: float | None = None,
        event_logs: tuple | None = None,
        label: str = "",
    ) -> "ModelProfile":
        """Profile a report (optionally with its event logs for phases).

        ``memory_words`` follows the
        :meth:`~repro.simmpi.trace.TraceReport.estimate_energy` default:
        the measured memory high-water mark if any rank tracked memory,
        else the machine's physical memory.
        """
        if memory_words is None:
            measured = report.max_mem_peak
            memory_words = measured if measured > 0 else machine.memory_words
        # One Eq. (1) pass: the first slowest rank is both the critical
        # rank and estimate_time's pick, and its total is
        # estimate_energy's default T.
        per_rank = [report.rank_time(machine, r) for r in range(report.size)]
        critical_rank = max(range(report.size), key=lambda r: per_rank[r].total)
        time = per_rank[critical_rank]
        energy = report.estimate_energy(
            machine, memory_words=memory_words, runtime_seconds=time.total
        )
        phases = None
        dropped = 0
        if event_logs is not None:
            from repro.analysis.timeline import Timeline

            timeline = Timeline(event_logs, report)
            dropped = timeline.dropped
            phases = tuple(
                cls._price_phase(machine, name, agg)
                for name, agg in sorted(
                    timeline.breakdown().items(),
                    key=lambda kv: -kv[1]["seconds"],
                )
            )
        return cls(
            report=report,
            machine=machine,
            label=label,
            memory_words=float(memory_words),
            time=time,
            energy=energy,
            critical_rank=critical_rank,
            phases=phases,
            dropped_events=dropped,
        )

    @classmethod
    def from_result(
        cls,
        result,
        machine: MachineParameters,
        memory_words: float | None = None,
        label: str = "",
    ) -> "ModelProfile":
        """Profile an :class:`~repro.simmpi.engine.SpmdResult` (phase
        attribution included when the run was traced)."""
        return cls.from_report(
            result.report,
            machine,
            memory_words=memory_words,
            event_logs=result.event_logs,
            label=label,
        )

    @staticmethod
    def _price_phase(
        machine: MachineParameters, name: str, agg: dict[str, float]
    ) -> PhaseCost:
        F, W, S = agg["flops"], agg["words"], agg["messages"]
        if name == "p2p-wait":
            # Receive events tally the *received* words/messages. The
            # models charge the injecting side, which the p2p-send row
            # already prices — zero here avoids double counting.
            W = S = 0.0
        return PhaseCost(
            name=name,
            count=int(agg["count"]),
            flops=F,
            words=W,
            messages=S,
            seconds=agg["seconds"],
            time_terms={
                "gammaF": machine.gamma_t * F,
                "betaW": machine.beta_t * W,
                "alphaS": machine.alpha_t * S,
            },
            energy_terms={
                "gammaF": machine.gamma_e * F,
                "betaW": machine.beta_e * W,
                "alphaS": machine.alpha_e * S,
            },
        )

    # -- term views ------------------------------------------------------

    @property
    def size(self) -> int:
        return self.report.size

    @property
    def time_terms(self) -> dict[str, float]:
        """Eq. (1) seconds per term; ``sum(...values())`` equals
        ``report.estimate_time(machine).total`` bit-exactly."""
        return _time_terms(self.time)

    @property
    def energy_terms(self) -> dict[str, float]:
        """Eq. (2) joules per term; ``sum(...values())`` equals
        ``report.estimate_energy(...).total`` bit-exactly."""
        return _energy_terms(self.energy)

    def rank_terms(self, rank: int) -> dict[str, float]:
        """Eq. (1) seconds per term for one rank's counts."""
        return _time_terms(self.report.rank_time(self.machine, rank))

    @property
    def time_vector(self) -> tuple[float, float, float]:
        """The critical rank's (F, W, S) — the counts row whose dot
        product with (gamma_t, beta_t, alpha_t) is Eq. (1)'s T. This is
        the regression row the observatory's
        :func:`repro.observatory.fit.fit_time` inverts."""
        c = self.report.ranks[self.critical_rank]
        return (
            float(c.flops),
            float(c.words_sent),
            float(c.messages_sent),
        )

    @property
    def energy_vector(self) -> tuple[float, float, float, float, float]:
        """The run's (F_tot, W_tot, S_tot, p*M*T, p*T) — the counts row
        whose dot product with (gamma_e, beta_e, alpha_e, delta_e,
        eps_e) is Eq. (2)'s E. Regression row for
        :func:`repro.observatory.fit.fit_energy`."""
        r = self.report
        T = self.time.total
        return (
            float(r.total_flops),
            float(r.total_words),
            float(r.total_messages),
            self.size * self.memory_words * T,
            self.size * T,
        )

    # -- recovery attribution (fault-injected runs) ----------------------

    @property
    def has_recovery(self) -> bool:
        """True when the run metered fault-recovery work (see
        :meth:`~repro.simmpi.comm.Comm.recovery`)."""
        return self.report.has_recovery

    @property
    def recovery_time_terms(self) -> dict[str, float]:
        """The recovery tallies priced at Eq. (1) rates — seconds of
        gamma_t F / beta_t W / alpha_t S the injected failures added on
        top of the algorithm's own counts. Totals across ranks: recovery
        concentrates on the acting roots, so this is (an upper bound on)
        the critical-path impact. All zero for fault-free runs."""
        r = self.report
        return {
            "gammaF": self.machine.gamma_t * r.total_recovery_flops,
            "betaW": self.machine.beta_t * r.total_recovery_words,
            "alphaS": self.machine.alpha_t * r.total_recovery_messages,
        }

    @property
    def recovery_energy_terms(self) -> dict[str, float]:
        """The recovery tallies priced at Eq. (2)'s dynamic rates
        (gamma_e F, beta_e W, alpha_e S; the delta_e M T and eps_e T
        terms charge duration, not counts, so recovery's share of them
        shows up only through any runtime stretch). All zero for
        fault-free runs."""
        r = self.report
        return {
            "gammaF": self.machine.gamma_e * r.total_recovery_flops,
            "betaW": self.machine.beta_e * r.total_recovery_words,
            "alphaS": self.machine.alpha_e * r.total_recovery_messages,
        }

    # -- export ----------------------------------------------------------

    def to_json(self) -> dict:
        """JSON-serializable payload (``schema`` tags the layout)."""
        per_rank = []
        for rank, counts in enumerate(self.report.ranks):
            terms = self.rank_terms(rank)
            per_rank.append(
                {
                    "rank": rank,
                    "flops": counts.flops,
                    "words": counts.words_sent,
                    "messages": counts.messages_sent,
                    "time_terms": terms,
                    "time_total": sum(terms.values()),
                }
            )
        payload = {
            "schema": SCHEMA,
            "label": self.label,
            "p": self.size,
            "memory_words": self.memory_words,
            "counts": {
                "total_flops": self.report.total_flops,
                "total_words": self.report.total_words,
                "total_messages": self.report.total_messages,
                "max_words": self.report.max_words,
                "max_messages": self.report.max_messages,
                "max_mem_peak": self.report.max_mem_peak,
            },
            "time": {
                "terms": self.time_terms,
                "total": self.time.total,
                "critical_rank": self.critical_rank,
            },
            "energy": {
                "terms": self.energy_terms,
                "total": self.energy.total,
            },
            "per_rank": per_rank,
            "dropped_events": self.dropped_events,
            "phases": None,
            "recovery": None,
        }
        if self.has_recovery:
            payload["recovery"] = {
                "flops": self.report.total_recovery_flops,
                "words": self.report.total_recovery_words,
                "messages": self.report.total_recovery_messages,
                "time_terms": self.recovery_time_terms,
                "energy_terms": self.recovery_energy_terms,
            }
        if self.phases is not None:
            payload["phases"] = [
                {
                    "name": ph.name,
                    "count": ph.count,
                    "flops": ph.flops,
                    "words": ph.words,
                    "messages": ph.messages,
                    "seconds": ph.seconds,
                    "time_terms": ph.time_terms,
                    "energy_terms": ph.energy_terms,
                }
                for ph in self.phases
            ]
        return payload

    # -- rendering -------------------------------------------------------

    def render(self, width: int = 48, max_ranks: int = 16) -> str:
        """Human-readable profile: term totals, per-rank stacked time
        bars (term mix + load balance in one picture), the energy split,
        and the phase table when the run was traced."""
        title = self.label or "run"
        lines = [
            f"model profile: {title} on p={self.size} "
            f"(T = {self.time.total:.6g} s, E = {self.energy.total:.6g} J, "
            f"M = {self.memory_words:.4g} words)"
        ]
        lines.append("")
        lines.append("Eq. (1) time per term [s]:")
        for key, value in self.time_terms.items():
            share = value / self.time.total if self.time.total else 0.0
            lines.append(f"  {key:<8s} {value:>12.6g}  ({share:6.1%})")
        lines.append("")
        lines.append(
            f"per-rank Eq. (1) split (critical rank: {self.critical_rank}):"
        )
        bars = {}
        for rank in range(min(self.size, max_ranks)):
            mark = "*" if rank == self.critical_rank else " "
            bars[f"{mark}rank {rank}"] = self.rank_terms(rank)
        if self.size > max_ranks:
            lines.append(f"  (first {max_ranks} of {self.size} ranks)")
            if self.critical_rank >= max_ranks:
                bars[f"*rank {self.critical_rank}"] = self.rank_terms(
                    self.critical_rank
                )
        lines.append(stacked_bars(bars, width=width, unit=" s"))
        lines.append("")
        lines.append("Eq. (2) energy per term [J]:")
        for key, value in self.energy_terms.items():
            share = value / self.energy.total if self.energy.total else 0.0
            lines.append(f"  {key:<8s} {value:>12.6g}  ({share:6.1%})")
        lines.append(
            stacked_bars({"energy": self.energy_terms}, width=width, unit=" J")
        )
        if self.has_recovery:
            rt, re_ = self.recovery_time_terms, self.recovery_energy_terms
            r = self.report
            lines.append("")
            lines.append(
                "fault-recovery overhead (extra counts metered under "
                "comm.recovery()):"
            )
            lines.append(
                f"  F_rec={r.total_recovery_flops:.6g} "
                f"W_rec={r.total_recovery_words} "
                f"S_rec={r.total_recovery_messages}"
            )
            for key in TIME_TERM_KEYS:
                base = self.time_terms[key]
                share = rt[key] / base if base else 0.0
                lines.append(
                    f"  T {key:<8s} {rt[key]:>12.6g} s  "
                    f"(+{share:.1%} of the term)"
                )
            for key in TIME_TERM_KEYS:
                base = self.energy_terms[key]
                share = re_[key] / base if base else 0.0
                lines.append(
                    f"  E {key:<8s} {re_[key]:>12.6g} J  "
                    f"(+{share:.1%} of the term)"
                )
        if self.phases is not None:
            lines.append("")
            lines.append(self.render_phases())
        return "\n".join(lines)

    def render_phases(self) -> str:
        """The phase table: depth-0 categories priced per model term."""
        if self.phases is None:
            raise ParameterError(
                "phase attribution needs a traced run — pass trace=True"
            )
        if not self.phases:
            return "(no depth-0 events recorded)"
        lines = []
        if self.dropped_events:
            lines.append(
                f"warning: {self.dropped_events} events dropped by ring "
                f"overflow — phase rows undercount"
            )
        name_w = max(len(ph.name) for ph in self.phases)
        name_w = max(name_w, len("phase"))
        lines.append(
            f"{'phase':<{name_w}s} {'count':>6s} {'gammaF[s]':>11s} "
            f"{'betaW[s]':>11s} {'alphaS[s]':>11s} {'dyn E[J]':>11s}"
        )
        for ph in self.phases:
            lines.append(
                f"{ph.name:<{name_w}s} {ph.count:>6d} "
                f"{ph.time_terms['gammaF']:>11.4g} "
                f"{ph.time_terms['betaW']:>11.4g} "
                f"{ph.time_terms['alphaS']:>11.4g} "
                f"{ph.dynamic_joules:>11.4g}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Strong-scaling sweep, per term
# ----------------------------------------------------------------------


def profile_strong_scaling_matmul(
    n: int,
    q: int,
    c_values: tuple[int, ...] = (1, 2, 4),
    machine: MachineParameters | None = None,
) -> list[ModelProfile]:
    """Profile the fixed-tile 2.5D sweep (p = q^2 c, constant tiles).

    The per-term face of the paper's headline theorem: inside the
    perfect-strong-scaling range each Eq. (1) term falls like 1/p while
    each Eq. (2) term stays flat. The runs are the cells of the
    ``matmul25d`` q/c :class:`~repro.sweep.spec.SweepSpec`, so the
    program and the charged memory (3 tiles of (n/q)^2 words, identical
    at every c by construction) are the ones ``repro validate``
    measures.
    """
    from repro.analysis.validation import default_machine
    from repro.simmpi.pool import shared_pool
    from repro.sweep import SweepSpec, build_cell_program

    if machine is None:
        machine = default_machine()
    profiles = []
    for cell in SweepSpec("matmul25d", n=n, q=q, c_values=c_values).cells():
        program, args, _label = build_cell_program(cell)
        res = shared_pool().run(cell.p, program, *args)
        profiles.append(
            ModelProfile.from_report(
                res.report,
                machine,
                memory_words=cell.memory_words,
                label=f"matmul25d n={n} c={cell.params['c']}",
            )
        )
    return profiles


def render_term_sweep(profiles: list[ModelProfile]) -> str:
    """Per-term sweep table: one row per profiled p, one column per
    Eq. (1)/(2) term. Flat energy columns over falling time columns are
    the theorem."""
    if not profiles:
        raise ParameterError("need at least one profile")
    header = (
        f"{'p':>6s} "
        + " ".join(f"{'T:' + k:>11s}" for k in TIME_TERM_KEYS)
        + f" {'T':>11s} "
        + " ".join(f"{'E:' + k:>11s}" for k in ENERGY_TERM_KEYS)
        + f" {'E':>11s}"
    )
    lines = ["per-term strong scaling (fixed per-rank tiles):", header]
    for prof in profiles:
        tt, et = prof.time_terms, prof.energy_terms
        lines.append(
            f"{prof.size:>6d} "
            + " ".join(f"{tt[k]:>11.4g}" for k in TIME_TERM_KEYS)
            + f" {prof.time.total:>11.4g} "
            + " ".join(f"{et[k]:>11.4g}" for k in ENERGY_TERM_KEYS)
            + f" {prof.energy.total:>11.4g}"
        )
    return "\n".join(lines)
