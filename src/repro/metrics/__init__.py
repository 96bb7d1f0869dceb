"""repro.metrics — lightweight runtime metrics for the simulator.

Three instrument kinds in the Prometheus mold:

* :class:`~repro.metrics.registry.Counter` — monotonically increasing
  totals (messages sent, collective calls, dropped trace events);
* :class:`~repro.metrics.registry.Gauge` — point-in-time values, merged
  across ranks by maximum (event-log occupancy, pool worker count);
* :class:`~repro.metrics.registry.Histogram` — fixed-bucket
  distributions (message sizes, collective fan-out, mailbox depth).

A :class:`~repro.metrics.registry.MetricsRegistry` owns instruments by
(name, labels). A traced run's registry is folded from its event logs
after the join (:func:`~repro.metrics.runtime.run_metrics`, read as
``SpmdResult.metrics``). Exporters render any registry as Prometheus
text exposition format or JSON
(:func:`~repro.metrics.export.to_prometheus`,
:func:`~repro.metrics.export.to_json_dict`).

The fold and the standard bucket layouts live in
:mod:`repro.metrics.runtime`.
"""

from repro.metrics.export import to_json_dict, to_prometheus
from repro.metrics.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.metrics.runtime import (
    COLLECTIVE_FANOUT_BUCKETS,
    MAILBOX_DEPTH_BUCKETS,
    MESSAGE_WORD_BUCKETS,
    run_metrics,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "run_metrics",
    "to_prometheus",
    "to_json_dict",
    "MESSAGE_WORD_BUCKETS",
    "COLLECTIVE_FANOUT_BUCKETS",
    "MAILBOX_DEPTH_BUCKETS",
]
