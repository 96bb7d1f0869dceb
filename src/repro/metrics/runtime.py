"""The simulator's run metrics, folded from a traced run's event logs.

A traced run (``trace=True`` on :func:`repro.simmpi.engine.run_spmd` /
:meth:`repro.simmpi.pool.SpmdPool.run`) already records every send and
every collective span in its per-rank
:class:`~repro.simmpi.events.EventLog`. :func:`run_metrics` replays
those logs after the join — the same post-hoc pattern as the power
trace — so the simulator carries no metering hook of its own.
``SpmdResult.metrics`` calls it on first read and caches the result;
untraced runs have no metrics (None).

The one live instrument is host-side: in a traced world every
:class:`~repro.simmpi.mailbox.Mailbox` observes its queue depth after
each deposit into its own :func:`mailbox_depth_histogram`. That depth
depends on thread scheduling, not on the simulated program, so no
event carries it.

Instrument reference
--------------------

================================= ========= ====================== ===========================
name                              kind      source                 meaning
================================= ========= ====================== ===========================
simmpi_sends_total                counter   ``send`` events        point-to-point sends issued
simmpi_sent_words_total           counter   ``send`` events        words injected (the
                                                                   model's W)
simmpi_sent_messages_total        counter   ``send`` events        messages injected (S)
simmpi_message_words              histogram ``send`` events        words per send
simmpi_collectives_total          counter   depth-0 ``coll``       collective calls, labeled
                                            events                 ``collective=<name>``
simmpi_collective_fanout          histogram depth-0 ``coll``       communicator size per call
                                            events (``size``)
simmpi_mailbox_depth              histogram live, per mailbox      pending messages in the
                                                                   destination mailbox after
                                                                   each deposit
simmpi_trace_events_dropped_total counter   ``EventLog.dropped``   trace events lost to ring
                                                                   wraparound
simmpi_trace_ring_occupancy_ratio gauge     ``EventLog`` fill      final ring fill fraction,
                                                                   max over ranks
================================= ========= ====================== ===========================

Under ring drops (``trace_capacity`` too small) the send and collective
families count only the retained events; the dropped counter says how
many are missing. The mailbox depth also counts the deposits of
communicator set-up traffic, which is not metered as sends.
"""

from __future__ import annotations

from repro.metrics.registry import Histogram, MetricsRegistry

__all__ = [
    "run_metrics",
    "mailbox_depth_histogram",
    "MESSAGE_WORD_BUCKETS",
    "COLLECTIVE_FANOUT_BUCKETS",
    "MAILBOX_DEPTH_BUCKETS",
]

#: Message-size buckets (words per send): powers of four from a bare
#: scalar to a 16M-word block — every workload in the repo lands inside.
MESSAGE_WORD_BUCKETS = (
    0.0, 1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0,
    16384.0, 65536.0, 262144.0, 1048576.0, 4194304.0, 16777216.0,
)

#: Collective fan-out buckets (communicator size at a depth-0 call).
COLLECTIVE_FANOUT_BUCKETS = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
)

#: Mailbox depth buckets (pending envelopes right after a deposit).
MAILBOX_DEPTH_BUCKETS = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
)

_MAILBOX_DEPTH = "simmpi_mailbox_depth"
_MAILBOX_DEPTH_HELP = "Pending messages in the destination mailbox after a deposit."


def mailbox_depth_histogram() -> Histogram:
    """A fresh histogram for one mailbox's post-deposit queue depth."""
    return Histogram(_MAILBOX_DEPTH, MAILBOX_DEPTH_BUCKETS, help=_MAILBOX_DEPTH_HELP)


def run_metrics(event_logs, mailbox_depths) -> MetricsRegistry:
    """Fold a traced run's event logs (and mailbox depths) into a registry.

    ``event_logs`` are the run's per-rank
    :class:`~repro.simmpi.events.EventLog`\\ s; ``mailbox_depths`` the
    per-mailbox histograms of :func:`mailbox_depth_histogram`. Counters
    and histograms sum over ranks; the occupancy gauge keeps the worst
    rank.
    """
    reg = MetricsRegistry()
    sends = reg.counter("simmpi_sends_total", help="Point-to-point sends issued.")
    sent_words = reg.counter(
        "simmpi_sent_words_total",
        help="Words injected into the network (the model's W).",
    )
    sent_messages = reg.counter(
        "simmpi_sent_messages_total",
        help="Messages injected into the network (the model's S).",
    )
    message_words = reg.histogram(
        "simmpi_message_words",
        MESSAGE_WORD_BUCKETS,
        help="Distribution of words per point-to-point send.",
    )
    fanout = reg.histogram(
        "simmpi_collective_fanout",
        COLLECTIVE_FANOUT_BUCKETS,
        help="Communicator size per depth-0 collective call.",
    )
    depth = reg.histogram(
        _MAILBOX_DEPTH, MAILBOX_DEPTH_BUCKETS, help=_MAILBOX_DEPTH_HELP
    )
    dropped = reg.counter(
        "simmpi_trace_events_dropped_total",
        help="Trace events lost to ring-buffer wraparound.",
    )
    occupancy = reg.gauge(
        "simmpi_trace_ring_occupancy_ratio",
        help="Final trace-ring fill fraction (max over ranks when merged).",
    )
    collectives: dict[str, float] = {}
    for log in event_logs:
        for ev in log.events():
            if ev.kind == "send":
                sends.value += 1.0
                sent_words.value += ev.words
                sent_messages.value += ev.messages
                message_words.observe(ev.words)
            elif ev.kind == "coll" and ev.depth == 0:
                collectives[ev.tag] = collectives.get(ev.tag, 0.0) + 1.0
                fanout.observe(ev.size)
        dropped.inc(log.dropped)
        occupancy.set(max(occupancy.value, len(log) / log.capacity))
    for name, calls in collectives.items():
        reg.counter(
            "simmpi_collectives_total",
            labels={"collective": name},
            help="Depth-0 collective calls by name.",
        ).inc(calls)
    for hist in mailbox_depths:
        depth._merge_from(hist)
    return reg
