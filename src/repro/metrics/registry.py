"""Counters, gauges, fixed-bucket histograms and the registry owning them.

Instruments follow Prometheus semantics (histogram buckets are
``le``-bounded, cumulative only at export time) but are plain Python
objects mutated without locks. Run metrics are built after the SPMD
join from the event logs; the one instrument touched during a run, a
mailbox's depth histogram, is observed only under that mailbox's lock.
Registries combine via :meth:`MetricsRegistry.merged`.

Merge rules: counters and histograms add; gauges keep the maximum (all
gauges here are occupancy/high-water style, where the worst rank is the
interesting summary — documented per instrument).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Iterable, Mapping

from repro.exceptions import ParameterError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Canonical (name, sorted label items) registry key.
MetricKey = tuple[str, tuple[tuple[str, str], ...]]


def _metric_key(name: str, labels: Mapping[str, str] | None) -> MetricKey:
    if not _NAME_RE.match(name):
        raise ParameterError(f"invalid metric name {name!r}")
    if not labels:
        return (name, ())
    items = []
    for k, v in sorted(labels.items()):
        if not _LABEL_RE.match(k):
            raise ParameterError(f"invalid label name {k!r} on metric {name!r}")
        items.append((k, str(v)))
    return (name, tuple(items))


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("name", "labels", "help", "value")
    kind = "counter"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = (), help: str = ""):
        self.name = name
        self.labels = labels
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ParameterError(
                f"counter {self.name} cannot decrease (inc by {amount!r})"
            )
        self.value += amount

    def _merge_from(self, other: "Counter") -> None:
        self.value += other.value


class Gauge:
    """Point-in-time value; cross-rank merge keeps the maximum."""

    __slots__ = ("name", "labels", "help", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = (), help: str = ""):
        self.name = name
        self.labels = labels
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def _merge_from(self, other: "Gauge") -> None:
        if other.value > self.value:
            self.value = other.value


class Histogram:
    """Fixed-bucket distribution with Prometheus ``le`` semantics.

    ``buckets`` are strictly increasing finite upper bounds; an implicit
    +Inf bucket catches everything above the last bound. A value equal
    to a bound lands in that bound's bucket (``v <= le``). Per-bucket
    counts are stored non-cumulatively; exporters cumulate.
    """

    __slots__ = ("name", "labels", "help", "bounds", "counts", "sum", "count")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Iterable[float],
        labels: tuple[tuple[str, str], ...] = (),
        help: str = "",
    ):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ParameterError(f"histogram {name} needs at least one bucket bound")
        if any(b != b or b in (float("inf"), float("-inf")) for b in bounds):
            raise ParameterError(f"histogram {name} bounds must be finite")
        if any(hi <= lo for lo, hi in zip(bounds, bounds[1:])):
            raise ParameterError(
                f"histogram {name} bounds must be strictly increasing, got {bounds}"
            )
        self.name = name
        self.labels = labels
        self.help = help
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot = +Inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[int]:
        """Cumulative per-``le``-bound counts, +Inf last (== count)."""
        out = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def _merge_from(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ParameterError(
                f"cannot merge histogram {self.name}: bucket bounds differ "
                f"({self.bounds} vs {other.bounds})"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.sum += other.sum
        self.count += other.count


class MetricsRegistry:
    """Instruments keyed by (name, labels); get-or-create accessors.

    Re-requesting an existing (name, labels) returns the same instrument;
    a kind or bucket mismatch raises. All instruments sharing a name must
    share a kind and label-key set, so exporters can emit one coherent
    family per name.
    """

    def __init__(self) -> None:
        self._metrics: dict[MetricKey, Counter | Gauge | Histogram] = {}
        # name -> (kind, label key tuple) family contract
        self._families: dict[str, tuple[str, tuple[str, ...]]] = {}

    # -- creation --------------------------------------------------------

    def _admit(self, key: MetricKey, kind: str):
        name, labels = key
        label_keys = tuple(k for k, _ in labels)
        family = self._families.get(name)
        if family is None:
            self._families[name] = (kind, label_keys)
        elif family != (kind, label_keys):
            raise ParameterError(
                f"metric {name!r} already registered as {family[0]} with "
                f"labels {family[1]}, requested {kind} with {label_keys}"
            )
        return self._metrics.get(key)

    def counter(
        self, name: str, labels: Mapping[str, str] | None = None, help: str = ""
    ) -> Counter:
        key = _metric_key(name, labels)
        existing = self._admit(key, "counter")
        if existing is None:
            existing = self._metrics[key] = Counter(name, key[1], help=help)
        return existing  # type: ignore[return-value]

    def gauge(
        self, name: str, labels: Mapping[str, str] | None = None, help: str = ""
    ) -> Gauge:
        key = _metric_key(name, labels)
        existing = self._admit(key, "gauge")
        if existing is None:
            existing = self._metrics[key] = Gauge(name, key[1], help=help)
        return existing  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        buckets: Iterable[float],
        labels: Mapping[str, str] | None = None,
        help: str = "",
    ) -> Histogram:
        key = _metric_key(name, labels)
        existing = self._admit(key, "histogram")
        if existing is None:
            existing = self._metrics[key] = Histogram(name, buckets, key[1], help=help)
        elif existing.bounds != tuple(float(b) for b in buckets):  # type: ignore[union-attr]
            raise ParameterError(
                f"histogram {name!r} already registered with different buckets"
            )
        return existing  # type: ignore[return-value]

    # -- access ----------------------------------------------------------

    def get(self, name: str, labels: Mapping[str, str] | None = None):
        """The instrument at (name, labels), or None."""
        return self._metrics.get(_metric_key(name, labels))

    def metrics(self) -> list[Counter | Gauge | Histogram]:
        """All instruments, sorted by (name, labels) for stable export."""
        return [self._metrics[k] for k in sorted(self._metrics)]

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self.metrics())

    # -- merging ---------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other``'s instruments into this registry (in place).

        Counters and histograms add, gauges keep the maximum; unknown
        instruments are cloned in. Returns self for chaining.
        """
        for key, inst in other._metrics.items():
            mine = self._admit(key, inst.kind)
            if mine is None:
                if inst.kind == "histogram":
                    mine = self._metrics[key] = Histogram(
                        inst.name, inst.bounds, key[1], help=inst.help
                    )
                elif inst.kind == "gauge":
                    mine = self._metrics[key] = Gauge(inst.name, key[1], help=inst.help)
                else:
                    mine = self._metrics[key] = Counter(inst.name, key[1], help=inst.help)
            mine._merge_from(inst)  # type: ignore[arg-type]
        return self

    @classmethod
    def merged(cls, registries: Iterable["MetricsRegistry"]) -> "MetricsRegistry":
        """A fresh registry holding the fold of all ``registries``."""
        out = cls()
        for reg in registries:
            out.merge(reg)
        return out
