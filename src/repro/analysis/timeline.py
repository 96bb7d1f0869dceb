"""Timelines and critical-path attribution over traced SPMD runs.

A run started with ``trace=True`` yields per-rank
:class:`~repro.simmpi.events.EventLog` rings
(:attr:`~repro.simmpi.engine.SpmdResult.event_logs`). This module turns
them into answers to "where did the simulated time go?":

* :class:`Timeline` — the joined per-rank event view: category
  breakdowns, an ASCII Gantt chart
  (:func:`~repro.analysis.asciiplot.gantt_chart`), and a
  Chrome/Perfetto ``trace.json`` exporter
  (:meth:`Timeline.save_chrome_trace`; open in https://ui.perfetto.dev).
  One generator writes each event's JSON text from a fixed template
  per event shape (numbers and escaped strings filled in, no dict
  built); the file writer streams it in fixed-size batches and never
  holds the whole document, and :meth:`Timeline.to_chrome_trace` is
  ``json.loads`` of the same text. Its bytes equal ``json.dumps`` of
  the event dicts.
* :class:`CriticalPath` — the exact chain of events that bounds
  :attr:`~repro.simmpi.trace.TraceReport.simulated_time`. The walk
  starts at the finishing rank and follows each stalled receive back to
  its sender's send event (via the ``ref`` the envelope carried), so the
  chain hops ranks exactly where the simulation's clock did.

Bit-exactness contract: every event stores the exact ``cost`` its
operation passed to ``advance_clock``, and a binding clock sync copies
the sender's accumulated value verbatim. Summing the chain's costs in
chronological order therefore replays the identical float-addition
sequence that produced the finishing rank's virtual time —
``CriticalPath.total == report.simulated_time`` holds bitwise, not just
approximately (a test enforces it on a machine-modeled 2.5D matmul run).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from repro.analysis.asciiplot import gantt_chart
from repro.exceptions import ParameterError
from repro.simmpi.engine import SpmdResult
from repro.simmpi.events import Event, EventLog
from repro.simmpi.trace import TraceReport

__all__ = ["Timeline", "CriticalPath"]

#: Gantt glyph per event kind (stalled receives drawn as ``.``).
_GANTT_GLYPHS = {"flops": "#", "coll": "=", "send": ">", "recv": "<"}

#: The per-category tallies of :meth:`Timeline.breakdown`, in order.
_BREAKDOWN_FIELDS = ("seconds", "words", "messages", "flops", "count")

#: Event texts joined per write when streaming a Perfetto export.
_EXPORT_BATCH = 1024

# One JSON text template per Perfetto event shape, laid out exactly as
# ``json.dumps`` lays out the event's dict. Numbers fill ``%s`` (see
# ``Timeline._chrome_events``), strings fill it already quoted by
# ``_quote``, and the ints that the event log makes itself (rank, seq,
# depth, peer) ``%d``.
_META = (
    '{"ph": "M", "pid": 0, "tid": %d, "name": "thread_name", '
    '"args": {"name": "rank %d"}}'
)
_ARGS = (
    '"args": {"seq": %d, "kind": %s, "cost_s": %s, "words": %s, '
    '"messages": %s, "flops": %s, "depth": %d%s}}'
)
_SPAN = (
    '{"ph": "X", "pid": 0, "tid": %d, "ts": %s, "dur": %s, "name": %s, '
    '"cat": %s, ' + _ARGS
)
_INSTANT = (
    '{"ph": "i", "s": "t", "pid": 0, "tid": %d, "ts": %s, "name": %s, '
    '"cat": %s, ' + _ARGS
)
_PEER = ', "peer": %d'
_ALGORITHM = ', "algorithm": %s'
_FLOW = (
    '{"ph": "s", "pid": 0, "tid": %d, "ts": %s, "id": "%d.%d", '
    '"name": "msg", "cat": "msg"}, '
    '{"ph": "f", "bp": "e", "pid": 0, "tid": %d, "ts": %s, "id": "%d.%d", '
    '"name": "msg", "cat": "msg"}'
)
_COUNTER = '{"ph": "C", "pid": 0, "ts": %s, "name": %s, "args": {"watts": %s}}'

#: A string as ``json.dumps`` writes it: quoted, escaped, ASCII only.
_quote = json.encoder.encode_basestring_ascii

_INF = float("inf")

#: Kinds whose name reads no tag, so their shape is keyed without it.
_TAGLESS = frozenset(("send", "recv", "alloc", "release"))


def _number(x) -> str:
    """One number's ``json.dumps`` text: ``int.__repr__`` for ints,
    ``float.__repr__`` for floats (float subclasses such as
    ``np.float64`` too) and ``NaN``/``Infinity``/``-Infinity`` for the
    non-finite ones."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ParameterError(
            f"cannot export {x!r} ({type(x).__name__}) as a JSON number"
        )
    if isinstance(x, int):
        return int.__repr__(x)
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _contributes(ev: Event) -> bool:
    """True for events on the clock-advancing chain: operations with a
    nonzero metered cost, plus receives whose clock jumped (stalls)."""
    return ev.cost > 0.0 or ev.stalled


@dataclass(frozen=True)
class Step:
    """One link of a critical path: an event and the exact seconds it
    advanced the finishing clock by (0.0 for a stalled receive — its
    wait is accounted by the sender's chain prefix)."""

    event: Event

    @property
    def rank(self) -> int:
        return self.event.rank

    @property
    def seconds(self) -> float:
        return self.event.cost


class Timeline:
    """Per-rank event timelines of one traced run."""

    def __init__(self, logs: tuple[EventLog, ...], report: TraceReport):
        if not logs:
            raise ParameterError("timeline needs at least one event log")
        self.logs = tuple(logs)
        self.report = report
        if self.dropped:
            warnings.warn(
                f"{self.dropped} trace events were dropped by ring overflow "
                f"(per rank: {self.dropped_by_rank()}); breakdowns undercount "
                f"and the critical path will refuse to build — rerun with a "
                f"larger trace_capacity",
                RuntimeWarning,
                stacklevel=2,
            )

    @classmethod
    def from_result(cls, result: SpmdResult) -> "Timeline":
        if result.event_logs is None:
            raise ParameterError(
                "run was not traced — pass trace=True to run_spmd/SpmdPool.run"
            )
        return cls(result.event_logs, result.report)

    @property
    def size(self) -> int:
        return len(self.logs)

    @property
    def dropped(self) -> int:
        """Events lost to ring wraparound, summed over ranks."""
        return sum(log.dropped for log in self.logs)

    def dropped_by_rank(self) -> dict[int, int]:
        """Per-rank drop counts, only ranks that actually overflowed."""
        return {
            rank: log.dropped
            for rank, log in enumerate(self.logs)
            if log.dropped
        }

    def events(self, rank: int) -> list[Event]:
        """Rank's surviving events in chronological order."""
        return self.logs[rank].events()

    def find(self, rank: int, seq: int) -> Event | None:
        """Resolve a cross-rank ``(rank, seq)`` reference."""
        return self.logs[rank].find(seq)

    def critical_path(self) -> "CriticalPath":
        """The event chain bounding this run's simulated time."""
        return CriticalPath.from_timeline(self)

    # -- aggregation -----------------------------------------------------

    def breakdown(self) -> dict[str, dict[str, float]]:
        """Aggregate depth-0 events into categories, summed over ranks.

        Returns ``{category: {"seconds", "words", "messages", "flops",
        "count"}}`` where a category is a top-level collective's name
        (``"allreduce"``), a kernel label (``"gemm"``), ``"p2p-send"``
        or ``"p2p-wait"`` (time receives spent stalled outside any
        collective). Only depth-0 events count, so a collective's
        internal sends/receives are not double-tallied against it.
        """
        out: dict[str, dict[str, float]] = {}
        for log in self.logs:
            for ev in log.events():
                if ev.depth != 0:
                    continue
                if ev.kind == "coll":
                    key, seconds = str(ev.tag), ev.duration
                elif ev.kind == "flops":
                    key, seconds = str(ev.tag), ev.cost
                elif ev.kind == "send":
                    key, seconds = "p2p-send", ev.cost
                elif ev.kind == "recv":
                    key, seconds = "p2p-wait", ev.duration
                else:  # alloc/release marks carry no time
                    continue
                slot = out.get(key)
                if slot is None:
                    slot = out[key] = dict.fromkeys(_BREAKDOWN_FIELDS, 0.0)
                slot["seconds"] += seconds
                slot["words"] += ev.words
                slot["messages"] += ev.messages
                slot["flops"] += ev.flops
                slot["count"] += 1
        return out

    def utilization(self) -> dict[int, dict[str, float]]:
        """Per-rank busy/stall/idle fractions of the simulated horizon.

        ``busy`` is virtual time spent inside clock-advancing operations
        (flop and send spans), ``stall`` is time receives spent waiting
        on late senders, ``idle`` is the remainder up to
        ``report.simulated_time`` (every rank shares the finishing
        rank's horizon — a rank that ends early is idle until then).
        Primary flop/send/recv events at *every* depth are summed:
        collective-internal sends and stalls are attributed through the
        events they actually execute rather than the enclosing depth-0
        span, because the span's extent includes internal waits — the
        distinction :class:`~repro.analysis.powertrace.PowerTrace` needs
        to know which intervals draw baseline power only. Requires a
        machine-modeled run.
        """
        horizon = self.report.simulated_time
        if horizon <= 0.0:
            raise ParameterError(
                "utilization needs a machine-modeled run (all virtual "
                "times are zero); pass machine= to run_spmd"
            )
        out: dict[int, dict[str, float]] = {}
        for rank, log in enumerate(self.logs):
            busy = stall = 0.0
            for ev in log.events():
                if ev.kind in ("flops", "send"):
                    busy += ev.t1 - ev.t0
                elif ev.stalled:
                    stall += ev.t1 - ev.t0
            idle = max(0.0, horizon - busy - stall)
            out[rank] = {
                "busy": busy / horizon,
                "stall": stall / horizon,
                "idle": idle / horizon,
            }
        return out

    def render_breakdown(self) -> str:
        """The :meth:`breakdown` as an aligned text table (seconds are
        rank-summed busy/wait time, not wall-clock), followed by the
        per-rank :meth:`utilization` digest on machine-modeled runs."""
        rows = sorted(self.breakdown().items(), key=lambda kv: -kv[1]["seconds"])
        if not rows:
            return "(no depth-0 events recorded)"
        width = max(len(k) for k, _ in rows)
        lines = [
            f"{'category':<{width}s} {'seconds':>11s} {'flops':>11s} "
            f"{'words':>11s} {'msgs':>8s} {'count':>7s}"
        ]
        for key, agg in rows:
            lines.append(
                f"{key:<{width}s} {agg['seconds']:>11.4g} {agg['flops']:>11.4g} "
                f"{agg['words']:>11.4g} {agg['messages']:>8.4g} {agg['count']:>7.0f}"
            )
        if self.report.simulated_time > 0.0:
            lines.append("")
            lines.append("utilization (busy / stall / idle of T_sim):")
            for rank, u in self.utilization().items():
                lines.append(
                    f"  rank {rank:<4d} {u['busy']:6.1%} / {u['stall']:6.1%} "
                    f"/ {u['idle']:6.1%}"
                )
        return "\n".join(lines)

    # -- renderers -------------------------------------------------------

    def gantt(self, width: int = 72, max_ranks: int = 32) -> str:
        """ASCII Gantt chart of per-rank activity over virtual time.

        Depth-0 spans only (collectives drawn as one block); stalled
        receives are drawn as ``.`` so waiting shows up visually.
        Requires a machine-modeled run — without one every event sits at
        virtual time zero and there is nothing to draw.
        """
        if self.report.simulated_time <= 0.0:
            raise ParameterError(
                "gantt needs a machine-modeled run (all virtual times are zero); "
                "pass machine= to run_spmd"
            )
        lanes: dict[str, list[tuple[float, float, str]]] = {}
        for rank, log in enumerate(self.logs[:max_ranks]):
            spans = []
            for ev in log.events():
                if ev.depth != 0 or ev.kind not in _GANTT_GLYPHS:
                    continue
                glyph = "." if ev.stalled else _GANTT_GLYPHS[ev.kind]
                spans.append((ev.t0, ev.t1, glyph))
            lanes[f"rank {rank}"] = spans
        title = f"trace: p={self.size} T={self.report.simulated_time:.4g}s"
        if self.size > max_ranks:
            title += f" (first {max_ranks} ranks)"
        return gantt_chart(
            lanes,
            width=width,
            title=title,
            t_label="virtual time [s]",
            legend="# flops  = collective  > send  < recv  . stalled recv",
        )

    # -- Chrome/Perfetto export ------------------------------------------

    def to_chrome_trace(self, flows: bool = True, power=None) -> dict:
        """The run as a Chrome trace-event object (JSON-serializable).

        One process (pid 0), one thread per rank (tid = world rank,
        named via ``thread_name`` metadata). Timed events become ``ph:
        "X"`` complete events with microsecond ``ts``/``dur`` (virtual
        seconds x 1e6); alloc/release marks become ``ph: "i"`` instants.
        With ``flows=True`` each resolvable send->recv pair also emits a
        flow arrow (``ph: "s"``/``"f"``) so Perfetto draws the message
        dependency edges the critical path walks. Passing a
        :class:`~repro.analysis.powertrace.PowerTrace` as ``power``
        merges its counter tracks (``ph: "C"``; machine envelope plus
        one track per rank) so Perfetto draws P(t) above the spans.
        The object is ``json.loads`` of the text
        :meth:`save_chrome_trace` writes.
        """
        return json.loads("".join(self._chrome_document(flows, power)))

    def _chrome_document(self, flows: bool, power) -> Iterator[str]:
        """The export's JSON text in pieces: the header, then
        ``_EXPORT_BATCH`` events at a time, then the trailer."""
        yield '{"traceEvents": ['
        events = self._chrome_events(flows, power)
        sep = ""
        while batch := list(islice(events, _EXPORT_BATCH)):
            yield sep + ", ".join(batch)
            sep = ", "
        yield '], "displayTimeUnit": "ms"}'

    def _chrome_events(self, flows: bool, power) -> Iterator[str]:
        """Yield each trace event's JSON text, in export order.

        Events repeat their numbers and names, so one export fills two
        tables on first use: ``texts`` maps a nonzero plain float to its
        text, and ``shapes`` maps an event's shape key to its quoted
        name, cat and tail. Zeros and NaN are never stored: ``0.0 ==
        -0.0`` as keys but their texts differ, and NaN equals nothing.
        A shape key holds what the name reads: (kind, peer, detail) for
        a kind whose name reads no tag, else (kind, peer, tag, detail),
        stored only for a ``str`` or None tag (``1 == 1.0`` as tags,
        yet their names differ)."""
        texts: dict[float, str] = {}
        shapes: dict[tuple, tuple[str, str, str]] = {}

        def num(x):
            """``x`` ready for ``%s``: a plain int as is, a plain float's
            text formatted once per value, anything else through
            :func:`_number`."""
            if type(x) is float:
                if not x:
                    return float.__repr__(x)  # "0.0" or "-0.0"
                text = texts.get(x)
                if text is None:
                    text = _number(x)
                    if x == x:
                        texts[x] = text
                return text
            return x if type(x) is int else _number(x)

        for rank in range(self.size):
            yield _META % (rank, rank)
        for log in self.logs:
            for ev in log.events():
                kind, tag = ev.kind, ev.tag
                if kind in _TAGLESS:
                    key = (kind, ev.peer, ev.detail)
                else:
                    key = (kind, ev.peer, tag, ev.detail)
                shape = shapes.get(key)
                if shape is None:
                    tail = _PEER % ev.peer if ev.peer >= 0 else ""
                    if ev.detail:
                        tail += _ALGORITHM % _quote(ev.detail)
                    shape = (_quote(ev.label()), _quote(kind), tail)
                    if len(key) == 3 or tag is None or type(tag) is str:
                        shapes[key] = shape
                name, cat, tail = shape
                ts = num(ev.t0 * 1e6)
                if kind == "alloc" or kind == "release":
                    yield _INSTANT % (
                        ev.rank, ts, _quote(f"{kind} {ev.words}w"), cat,
                        ev.seq, cat, num(ev.cost), num(ev.words),
                        num(ev.messages), num(ev.flops), ev.depth, tail,
                    )
                    continue
                yield _SPAN % (
                    ev.rank, ts, num(ev.duration * 1e6), name, cat,
                    ev.seq, cat, num(ev.cost), num(ev.words),
                    num(ev.messages), num(ev.flops), ev.depth, tail,
                )
                if flows and kind == "recv" and ev.ref is not None:
                    sent = self.find(*ev.ref)
                    if sent is None:
                        continue
                    yield _FLOW % (
                        sent.rank, num(sent.t1 * 1e6), *ev.ref,
                        ev.rank, num(ev.t1 * 1e6), *ev.ref,
                    )
        if power is not None:
            for ts, name, watts in power.counter_rows():
                yield _COUNTER % (num(ts), _quote(name), num(watts))

    def save_chrome_trace(self, path, flows: bool = True, power=None) -> None:
        """Write :meth:`to_chrome_trace` as JSON, loadable by
        https://ui.perfetto.dev or ``chrome://tracing``.

        Each event is one fixed ``%``-template per event shape, filled
        with its numbers (written as ``json.dumps`` writes them) and its
        escaped strings; no dict is built. The events are streamed:
        each batch of ``_EXPORT_BATCH`` is joined and written at once,
        so neither the event list nor the document string is ever held
        whole. The bytes equal ``json.dumps`` of the event dicts.
        """
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(self._chrome_document(flows, power))


class CriticalPath:
    """The chronological event chain bounding a traced run's finish time.

    Built by :meth:`Timeline.critical_path`. ``steps`` tile the virtual
    interval ``[0, T]``: local operations contribute their exact metered
    ``cost`` and stalled receives contribute 0.0 (they hand the chain to
    the sender), so :attr:`total` equals
    ``report.simulated_time`` bit-for-bit.
    """

    def __init__(self, steps: tuple[Step, ...], timeline: Timeline):
        self.steps = steps
        self.timeline = timeline
        total = 0.0
        for step in steps:  # chronological order — replays the clock's sums
            total += step.seconds
        self.total = total

    @classmethod
    def from_timeline(cls, timeline: Timeline) -> "CriticalPath":
        report = timeline.report
        if report.simulated_time <= 0.0:
            raise ParameterError(
                "critical path needs a machine-modeled run (all virtual "
                "times are zero); pass machine= to run_spmd"
            )
        if timeline.dropped:
            raise ParameterError(
                f"critical path needs the complete event history but "
                f"{timeline.dropped} events were dropped by ring overflow; "
                f"rerun with a larger trace_capacity"
            )
        # Start at the finishing rank's last chain event and walk back.
        rank = max(range(timeline.size), key=lambda r: report.ranks[r].vtime)
        events = timeline.events(rank)
        idx = len(events) - 1
        chain: list[Step] = []
        while idx >= 0:
            ev = events[idx]
            if not _contributes(ev):
                idx -= 1
                continue
            chain.append(Step(ev))
            if ev.stalled:
                if ev.ref is None:
                    raise ParameterError(
                        f"rank {rank} stalled at t={ev.t1!r} on a receive "
                        f"with no send reference — cannot attribute the wait"
                    )
                src_rank, src_seq = ev.ref
                sent = timeline.find(src_rank, src_seq)
                if sent is None:
                    raise ParameterError(
                        f"send event {src_seq} on rank {src_rank} was "
                        f"dropped; rerun with a larger trace_capacity"
                    )
                rank = src_rank
                events = timeline.events(rank)
                # resume AT the send: the next iteration charges its cost
                # (or skips it, if a zero-cost machine made it free)
                idx = src_seq - (timeline.logs[rank].recorded - len(events))
            else:
                idx -= 1
        chain.reverse()
        return cls(tuple(chain), timeline)

    def __len__(self) -> int:
        return len(self.steps)

    def attribution(self) -> dict[str, float]:
        """Chain seconds per category (kernel label for flop spans,
        event kind otherwise). Stalled receives carry 0.0 by
        construction, so categories sum to :attr:`total`."""
        out: dict[str, float] = {}
        for step in self.steps:
            ev = step.event
            key = str(ev.tag) if ev.kind == "flops" else ev.kind
            out[key] = out.get(key, 0.0) + step.seconds
        return out

    def render(self, max_steps: int = 40) -> str:
        """Human-readable chain: attribution totals plus the first/last
        steps (elided in the middle past ``max_steps``)."""
        ranks = sorted({s.rank for s in self.steps})
        lines = [
            f"critical path: T = {self.total:.6g} s over {len(self.steps)} "
            f"events on ranks {ranks}"
        ]
        for key, secs in sorted(self.attribution().items(), key=lambda kv: -kv[1]):
            share = secs / self.total if self.total else 0.0
            lines.append(f"  {key:<16s} {secs:>11.4g} s  ({share:6.1%})")
        shown = self.steps
        elided = 0
        if len(shown) > max_steps:
            head, tail = max_steps // 2, max_steps - max_steps // 2
            elided = len(shown) - head - tail
            shown = self.steps[:head] + self.steps[-tail:]
        lines.append("chain:")
        for i, step in enumerate(shown):
            if elided and i == max_steps // 2:
                lines.append(f"  ... {elided} events elided ...")
            ev = step.event
            lines.append(
                f"  rank {ev.rank:<3d} [{ev.t0:.6g}, {ev.t1:.6g}] "
                f"{ev.label():<20s} +{step.seconds:.6g} s"
            )
        return "\n".join(lines)
