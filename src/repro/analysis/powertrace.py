"""Time-resolved power telemetry: P(t) traces from traced SPMD runs.

The paper's power-capping arguments (Section V, Eq. 19) talk about
*instantaneous* machine power, while :mod:`repro.core.power` can only
state the run-average ratio P = E / T. The event logs of a traced run
(``trace=True``) contain everything needed to reconstruct the
time-resolved view: this module converts per-rank
:class:`~repro.simmpi.events.EventLog` rings into piecewise-constant
per-rank power traces P_r(t) and a machine-wide envelope, entirely
post-hoc — the simulation hot path is untouched.

Pricing model (per rank):

* an always-on **baseline** ``delta_e * M + eps_e`` watts — Eq. (2)'s
  memory and leakage terms are duration-priced, so idle and stalled
  intervals draw exactly the baseline;
* a **flop span** adds ``gamma_e * F / cost`` dynamic watts on top of
  the baseline for its duration (``= gamma_e / gamma_t`` — on the Table
  I machine this is exactly the chip TDP, by construction of both
  constants);
* a **send span** adds ``(beta_e * W + alpha_e * S) / cost`` link watts;
  collective traffic appears through the primary send events the
  collective executes (tracing disables the analytic fast path), so
  derived ``coll`` span events are never priced — that would double
  count;
* a **stalled receive** draws baseline only: the wait's time belongs to
  the sender's chain and its words are charged to the injecting side,
  matching the models' send-side convention.

Two timebases, one bookkeeping:

* The **virtual timebase** (event ``t0``/``t1`` clocks, horizon
  ``T_sim = report.simulated_time``) is what the segments, the
  machine-wide envelope, peak power, cap violations and the Perfetto
  counter tracks use — it is where "when" questions live.
* The **model timebase** is Eq. (1)'s per-rank cost sum (horizon
  ``T_model = estimate_time(machine).total``). ``T_sim >= T_model``
  always (stalls only add time), so a rank's virtual-timebase trace
  draws baseline for longer than the model charges it.

Bit-exactness contract (the hard invariant, test-enforced across every
CLI scenario): the integral of P_r(t) over the model timebase equals
the rank's Eq. (2) share *bit-for-bit*. Float addition does not
associate, so the integral is evaluated the only order-safe way — in
closed form per term (rate x replayed count, then summed in
``ENERGY_TERM_KEYS`` order; see :meth:`PowerTrace.rank_energy_terms`),
never by accumulating ``watts * dt`` products, which would re-round.
The aggregate terms are not re-derived at all: they are the
:class:`~repro.core.energy.EnergyBreakdown` fields of
``report.estimate_energy`` verbatim, so
:attr:`PowerTrace.average_watts` equals
:func:`repro.core.power.average_power_from_report` bitwise. Summing the
numeric segments instead reproduces the same joules only up to float
re-association plus ``baseline * (T_sim - T_model)`` of extra baseline
draw (a sanity test pins that identity to 1e-9 relative).

Zero-cost events with nonzero energy (a machine with ``gamma_t = 0``
but ``gamma_e > 0``) are Dirac impulses: their joules are tallied in
``impulse_joules`` and never appear in the piecewise P(t).

Cap semantics: a **total** cap bounds the machine-wide envelope (Eq. 19
— in the replication band E is constant and T ~ 1/p, so machine power
grows linearly in p and a total cap is a linear cap on p); a
**per-processor** cap bounds every rank's own trace (Section V-E — P/p
is p-independent in the band, so a per-processor cap is purely a cap on
M). :func:`catalog_power_caps` derives both from the Table I catalog
(chip TDP + DRAM DIMMs + link active power).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.analysis.profiler import ENERGY_TERM_KEYS, _energy_terms
from repro.core.energy import EnergyBreakdown
from repro.core.parameters import MachineParameters
from repro.core.timing import TimeBreakdown
from repro.exceptions import ParameterError
from repro.simmpi.events import Event, EventLog
from repro.simmpi.trace import TraceReport

__all__ = [
    "PowerSegment",
    "RankPowerTrace",
    "PowerTrace",
    "CapViolation",
    "PowerCaps",
    "catalog_power_caps",
]

#: JSON schema tag of :meth:`PowerTrace.to_json` payloads.
SCHEMA = "repro_power/v1"

#: Event kinds that draw power (everything else is baseline or a mark).
_PRICED_KINDS = ("flops", "send", "recv")


@dataclass(frozen=True, slots=True)
class PowerSegment:
    """One piecewise-constant interval of a power trace.

    ``kind`` is ``"flops"``/``"send"`` (dynamic draw), ``"stall"``
    (receive wait at baseline), ``"idle"`` (gap at baseline) or
    ``"total"`` (machine-wide envelope interval).
    """

    t0: float
    t1: float
    watts: float
    kind: str

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True, slots=True)
class CapViolation:
    """A maximal interval on which a power trace exceeds a cap.

    ``rank`` is the violating rank, or ``None`` for the machine-wide
    envelope.
    """

    rank: int | None
    t0: float
    t1: float
    peak_watts: float

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class RankPowerTrace:
    """One rank's piecewise-constant P_r(t) on the virtual timebase.

    ``segments`` tile ``[0, T_sim]`` exactly (shared endpoints, no
    gaps); ``flops``/``words``/``messages`` are the counts replayed
    chronologically from the rank's priced events — bit-identical to
    the rank's :class:`~repro.simmpi.counters.CounterSnapshot` tallies,
    which a test asserts for every scenario.
    """

    rank: int
    baseline_watts: float
    segments: tuple[PowerSegment, ...]
    flops: float
    words: int
    messages: int
    busy_seconds: float
    stall_seconds: float
    idle_seconds: float
    impulse_joules: float

    @property
    def peak_watts(self) -> float:
        return max(seg.watts for seg in self.segments)

    def utilization(self) -> dict[str, float]:
        """Busy/stall/idle fractions of the simulated horizon."""
        horizon = self.segments[-1].t1
        if horizon <= 0.0:
            raise ParameterError("utilization needs a nonzero horizon")
        return {
            "busy": self.busy_seconds / horizon,
            "stall": self.stall_seconds / horizon,
            "idle": self.idle_seconds / horizon,
        }


def _dynamic_joules(machine: MachineParameters, ev: Event) -> float:
    """The Eq. (2) dynamic energy one priced event carries."""
    if ev.kind == "flops":
        return machine.gamma_e * ev.flops
    return machine.beta_e * ev.words + machine.alpha_e * ev.messages


def _build_rank(
    log: EventLog,
    machine: MachineParameters,
    baseline: float,
    horizon: float,
) -> RankPowerTrace:
    segments: list[PowerSegment] = []
    cursor = 0.0
    flops = 0.0
    words = 0
    messages = 0
    busy = stall = 0.0
    impulse = 0.0
    for ev in log.events():
        if ev.kind not in _PRICED_KINDS:
            continue  # coll spans are derived counter deltas; marks are free
        if ev.kind == "recv":
            if ev.t1 > ev.t0:  # stalled wait: baseline draw only
                if ev.t0 > cursor:
                    segments.append(
                        PowerSegment(cursor, ev.t0, baseline, "idle")
                    )
                segments.append(PowerSegment(ev.t0, ev.t1, baseline, "stall"))
                stall += ev.t1 - ev.t0
                cursor = ev.t1
            continue
        # flops / send: replay the exact counts in metering order
        if ev.kind == "flops":
            flops += ev.flops
        else:
            words += ev.words
            messages += ev.messages
        dyn = _dynamic_joules(machine, ev)
        if ev.cost <= 0.0 or ev.t1 <= ev.t0:
            impulse += dyn  # Dirac impulse: joules without extent
            continue
        if ev.t0 > cursor:
            segments.append(PowerSegment(cursor, ev.t0, baseline, "idle"))
        segments.append(
            PowerSegment(ev.t0, ev.t1, baseline + dyn / ev.cost, ev.kind)
        )
        busy += ev.t1 - ev.t0
        cursor = ev.t1
    if cursor < horizon:
        segments.append(PowerSegment(cursor, horizon, baseline, "idle"))
    idle = max(0.0, horizon - busy - stall)
    return RankPowerTrace(
        rank=log.rank,
        baseline_watts=baseline,
        segments=tuple(segments),
        flops=flops,
        words=words,
        messages=messages,
        busy_seconds=busy,
        stall_seconds=stall,
        idle_seconds=idle,
        impulse_joules=impulse,
    )


def _violations(
    segments: tuple[PowerSegment, ...],
    cap_watts: float,
    rank: int | None,
) -> list[CapViolation]:
    """Maximal over-cap intervals of one tiled segment list."""
    out: list[CapViolation] = []
    open_: list[float] | None = None  # [t0, t1, peak]
    for seg in segments:
        if seg.watts > cap_watts:
            if open_ is not None and seg.t0 == open_[1]:
                open_[1] = seg.t1
                open_[2] = max(open_[2], seg.watts)
            else:
                if open_ is not None:
                    out.append(CapViolation(rank, open_[0], open_[1], open_[2]))
                open_ = [seg.t0, seg.t1, seg.watts]
        elif open_ is not None:
            out.append(CapViolation(rank, open_[0], open_[1], open_[2]))
            open_ = None
    if open_ is not None:
        out.append(CapViolation(rank, open_[0], open_[1], open_[2]))
    return out


@dataclass(frozen=True)
class PowerTrace:
    """Per-rank power traces + machine-wide envelope of one traced run."""

    report: TraceReport
    machine: MachineParameters
    label: str
    memory_words: float
    horizon: float  # T_sim — the virtual timebase's extent
    time: TimeBreakdown  # report.estimate_time(machine), verbatim
    energy: EnergyBreakdown  # report.estimate_energy(...), verbatim
    ranks: tuple[RankPowerTrace, ...]
    envelope: tuple[PowerSegment, ...]  # sum over ranks, tiles [0, T_sim]

    # -- construction ----------------------------------------------------

    @classmethod
    def from_events(
        cls,
        logs: tuple[EventLog, ...],
        report: TraceReport,
        machine: MachineParameters,
        memory_words: float | None = None,
        label: str = "",
    ) -> "PowerTrace":
        if not logs:
            raise ParameterError("power trace needs at least one event log")
        if len(logs) != report.size:
            raise ParameterError(
                f"got {len(logs)} event logs for {report.size} ranks"
            )
        dropped = sum(log.dropped for log in logs)
        if dropped:
            raise ParameterError(
                f"power trace needs the complete event history but "
                f"{dropped} events were dropped by ring overflow; rerun "
                f"with a larger trace_capacity"
            )
        horizon = report.simulated_time
        if horizon <= 0.0:
            raise ParameterError(
                "power trace needs a machine-modeled run (all virtual "
                "times are zero); pass machine= to run_spmd"
            )
        if memory_words is None:
            measured = report.max_mem_peak
            memory_words = measured if measured > 0 else machine.memory_words
        baseline = machine.delta_e * memory_words + machine.epsilon_e
        ranks = tuple(
            _build_rank(log, machine, baseline, horizon) for log in logs
        )
        return cls(
            report=report,
            machine=machine,
            label=label,
            memory_words=float(memory_words),
            horizon=horizon,
            time=report.estimate_time(machine),
            energy=report.estimate_energy(machine, memory_words=memory_words),
            ranks=ranks,
            envelope=cls._sum_envelope(ranks, baseline, horizon),
        )

    @classmethod
    def from_result(
        cls,
        result,
        machine: MachineParameters,
        memory_words: float | None = None,
        label: str = "",
    ) -> "PowerTrace":
        """Build from an :class:`~repro.simmpi.engine.SpmdResult`."""
        if result.event_logs is None:
            raise ParameterError(
                "run was not traced — pass trace=True to run_spmd/SpmdPool.run"
            )
        return cls.from_events(
            result.event_logs,
            result.report,
            machine,
            memory_words=memory_words,
            label=label,
        )

    @classmethod
    def from_timeline(
        cls,
        timeline,
        machine: MachineParameters,
        memory_words: float | None = None,
        label: str = "",
    ) -> "PowerTrace":
        """Build from a :class:`~repro.analysis.timeline.Timeline`."""
        return cls.from_events(
            timeline.logs,
            timeline.report,
            machine,
            memory_words=memory_words,
            label=label,
        )

    @staticmethod
    def _sum_envelope(
        ranks: tuple[RankPowerTrace, ...],
        baseline: float,
        horizon: float,
    ) -> tuple[PowerSegment, ...]:
        """Sum the per-rank step functions by dynamic-delta sweep."""
        floor = len(ranks) * baseline
        deltas: dict[float, float] = {}
        for rt in ranks:
            for seg in rt.segments:
                extra = seg.watts - baseline
                if extra != 0.0:
                    deltas[seg.t0] = deltas.get(seg.t0, 0.0) + extra
                    deltas[seg.t1] = deltas.get(seg.t1, 0.0) - extra
        times = sorted(set(deltas) | {0.0, horizon})
        out: list[PowerSegment] = []
        running = 0.0
        for t, t_next in zip(times, times[1:]):
            running += deltas.get(t, 0.0)
            if t_next > t and t < horizon:
                out.append(
                    PowerSegment(t, min(t_next, horizon), floor + running, "total")
                )
        if not out:  # degenerate: no dynamic spans at all
            out.append(PowerSegment(0.0, horizon, floor, "total"))
        return tuple(out)

    # -- headline numbers ------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.ranks)

    @property
    def time_total(self) -> float:
        """Eq. (1)'s T — the model timebase's horizon."""
        return self.time.total

    @property
    def energy_total(self) -> float:
        """Eq. (2)'s E, verbatim from ``estimate_energy``."""
        return self.energy.total

    @property
    def energy_terms(self) -> dict[str, float]:
        """Eq. (2) joules per term; ``sum(...values())`` replays
        ``energy.total``'s additions and matches
        :attr:`~repro.analysis.profiler.ModelProfile.energy_terms`
        bit-for-bit."""
        return _energy_terms(self.energy)

    @property
    def average_watts(self) -> float:
        """Whole-run average power E / T — bitwise equal to
        :func:`repro.core.power.average_power_from_report`."""
        return self.energy.total / self.time.total

    @property
    def peak_watts(self) -> float:
        """Maximum of the machine-wide envelope."""
        return max(seg.watts for seg in self.envelope)

    @property
    def baseline_watts(self) -> float:
        """Per-rank always-on draw delta_e * M + eps_e."""
        return self.ranks[0].baseline_watts

    @property
    def energy_delay_product(self) -> float:
        """E * T in joule-seconds (lower is better on both axes)."""
        return self.energy.total * self.time.total

    # -- the exact integral ----------------------------------------------

    def rank_energy_terms(self, rank: int) -> dict[str, float]:
        """The exact ∫P_r(t)dt over the model timebase, per Eq. (2) term.

        Evaluated in closed form — dynamic terms as rate x replayed
        count, baseline terms as rate x ``T_model`` — because that is
        the only float-associativity-safe evaluation; summing the
        values in dict (= ``ENERGY_TERM_KEYS``) order gives the rank's
        Eq. (2) share. Summing any term across ranks reproduces the
        matching aggregate term bit-exactly for the count-priced terms
        (the replayed counts sum in rank order, exactly as
        ``estimate_energy``'s totals do) and up to p-fold re-association
        for the baseline terms (``p * x`` vs ``x + ... + x``).
        """
        rt = self.ranks[rank]
        T = self.time.total
        m = self.machine
        return {
            "gammaF": m.gamma_e * rt.flops,
            "betaW": m.beta_e * rt.words,
            "alphaS": m.alpha_e * rt.messages,
            "deltaMT": m.delta_e * self.memory_words * T,
            "epsT": m.epsilon_e * T,
        }

    def rank_energy(self, rank: int) -> float:
        """``rank_energy_terms`` summed in ``ENERGY_TERM_KEYS`` order."""
        terms = self.rank_energy_terms(rank)
        return sum(terms[k] for k in ENERGY_TERM_KEYS)

    def trace_joules(self, rank: int) -> float:
        """Numeric ``sum(watts * dt)`` over the rank's virtual-timebase
        segments plus impulses — equals the dynamic terms plus
        ``baseline * T_sim`` up to float re-association (diagnostic;
        the exact bookkeeping is :meth:`rank_energy_terms`)."""
        rt = self.ranks[rank]
        return (
            sum(seg.watts * seg.duration for seg in rt.segments)
            + rt.impulse_joules
        )

    def utilization(self) -> dict[int, dict[str, float]]:
        """Per-rank busy/stall/idle fractions of the simulated horizon."""
        return {rt.rank: rt.utilization() for rt in self.ranks}

    # -- cap violations --------------------------------------------------

    def cap_violations(self, cap_watts: float) -> tuple[CapViolation, ...]:
        """Maximal intervals where machine power exceeds a total cap."""
        if cap_watts <= 0:
            raise ParameterError(f"cap must be > 0 W, got {cap_watts!r}")
        return tuple(_violations(self.envelope, cap_watts, None))

    def rank_cap_violations(
        self, cap_watts: float
    ) -> tuple[CapViolation, ...]:
        """Maximal intervals where any single rank exceeds a
        per-processor cap, ordered by rank then time."""
        if cap_watts <= 0:
            raise ParameterError(f"cap must be > 0 W, got {cap_watts!r}")
        out: list[CapViolation] = []
        for rt in self.ranks:
            out.extend(_violations(rt.segments, cap_watts, rt.rank))
        return tuple(out)

    # -- export ----------------------------------------------------------

    def counter_rows(
        self, per_rank: bool = True
    ) -> Iterator[tuple[float, str, float]]:
        """The Perfetto counter tracks' steps as ``(ts, name, watts)``
        rows, ``ts`` in virtual microseconds.

        One ``machine power [W]`` track for the envelope and, with
        ``per_rank``, one ``rank N power [W]`` track per rank. Values
        step at segment boundaries and drop to 0 at the horizon so the
        track visibly ends. ``Timeline.save_chrome_trace(power=...)``
        writes these rows; :meth:`counter_events` is them as dicts.
        """
        tracks = [("machine power [W]", self.envelope)]
        if per_rank:
            tracks += [(f"rank {rt.rank} power [W]", rt.segments) for rt in self.ranks]
        end = self.horizon * 1e6
        for name, segments in tracks:
            last = None
            for seg in segments:
                if seg.watts != last:
                    yield seg.t0 * 1e6, name, seg.watts
                    last = seg.watts
            yield end, name, 0.0

    def counter_events(self, per_rank: bool = True) -> list[dict]:
        """Chrome/Perfetto counter-track events (``ph: "C"``), one per
        :meth:`counter_rows` row. Merge into a timeline export via
        ``Timeline.to_chrome_trace(power=...)``."""
        return [
            {"ph": "C", "pid": 0, "ts": ts, "name": name, "args": {"watts": watts}}
            for ts, name, watts in self.counter_rows(per_rank)
        ]

    def to_json(self) -> dict:
        """JSON-serializable payload (``schema`` tags the layout)."""
        per_rank = []
        for rt in self.ranks:
            terms = self.rank_energy_terms(rt.rank)
            per_rank.append(
                {
                    "rank": rt.rank,
                    "flops": rt.flops,
                    "words": rt.words,
                    "messages": rt.messages,
                    "busy_seconds": rt.busy_seconds,
                    "stall_seconds": rt.stall_seconds,
                    "idle_seconds": rt.idle_seconds,
                    "impulse_joules": rt.impulse_joules,
                    "peak_watts": rt.peak_watts,
                    "energy_terms": terms,
                    "energy_joules": sum(
                        terms[k] for k in ENERGY_TERM_KEYS
                    ),
                    "segments": len(rt.segments),
                }
            )
        return {
            "schema": SCHEMA,
            "label": self.label,
            "p": self.size,
            "memory_words": self.memory_words,
            "horizon_seconds": self.horizon,
            "time_total": self.time.total,
            "energy_total": self.energy.total,
            "energy_terms": self.energy_terms,
            "baseline_watts": self.baseline_watts,
            "average_watts": self.average_watts,
            "peak_watts": self.peak_watts,
            "energy_delay_product": self.energy_delay_product,
            "per_rank": per_rank,
            "envelope": [
                [seg.t0, seg.t1, seg.watts] for seg in self.envelope
            ],
        }

    # -- rendering -------------------------------------------------------

    def render(self, width: int = 64, height: int = 12) -> str:
        """Human-readable power report: headline numbers, the ASCII
        machine-power timeline, and the utilization digest."""
        from repro.analysis.asciiplot import step_plot

        title = self.label or "run"
        lines = [
            f"power: {title} on p={self.size} "
            f"(T_model = {self.time.total:.6g} s, T_sim = "
            f"{self.horizon:.6g} s, E = {self.energy.total:.6g} J)",
            f"  average {self.average_watts:.6g} W   peak "
            f"{self.peak_watts:.6g} W   baseline "
            f"{self.baseline_watts:.6g} W/rank   EDP "
            f"{self.energy_delay_product:.6g} J*s",
            "",
        ]
        breaks = [self.envelope[0].t0] + [seg.t1 for seg in self.envelope]
        levels = [seg.watts for seg in self.envelope]
        lines.append(
            step_plot(
                breaks,
                levels,
                width=width,
                height=height,
                title="machine power over virtual time",
                x_label="virtual time [s]",
                y_label="watts",
            )
        )
        util = self.utilization()
        busy = sum(u["busy"] for u in util.values()) / len(util)
        stall_f = sum(u["stall"] for u in util.values()) / len(util)
        idle = sum(u["idle"] for u in util.values()) / len(util)
        lines.append("")
        lines.append(
            f"mean rank utilization: busy {busy:6.1%}  stall "
            f"{stall_f:6.1%}  idle {idle:6.1%}"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Catalog caps
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PowerCaps:
    """A per-processor cap and the total cap it implies for p ranks."""

    per_processor_watts: float
    total_watts: float


def catalog_power_caps(p: int, spec: dict | None = None) -> PowerCaps:
    """Power caps from the machines catalog (Table I by default).

    The per-processor cap is the hardware's sustained draw: chip TDP
    plus its DRAM DIMMs plus an active link (150 + 8 x 3.1 + 2.15 =
    176.95 W for Table I); the total cap is p of those. On the Table I
    machine a flop span draws exactly the 150 W TDP (gamma_e / gamma_t),
    so the catalog caps hold for any run — violations demonstrate
    tighter, user-chosen budgets (Section V-E caps M, Eq. 19 caps p).
    """
    if p < 1:
        raise ParameterError(f"need p >= 1, got {p!r}")
    if spec is None:
        from repro.machines.catalog import JAKETOWN_SPEC

        spec = JAKETOWN_SPEC
    per = (
        spec["chip_tdp_watts"]
        + spec["dram_dimms_per_socket"] * spec["dram_dimm_power_w"]
        + spec["link_active_power_w"]
    )
    return PowerCaps(per_processor_watts=per, total_watts=p * per)
