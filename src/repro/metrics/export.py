"""Exporters: a :class:`MetricsRegistry` as Prometheus text or JSON.

``to_prometheus`` emits the text exposition format (version 0.0.4) —
``# HELP``/``# TYPE`` headers once per family, histogram children as
cumulative ``_bucket{le=...}`` samples plus ``_sum``/``_count`` — so a
dump can be pushed through a Pushgateway or diffed as a stable artifact
in CI. ``to_json_dict`` is the machine-readable twin the benchmarks and
the ``--json`` CLI flags embed.
"""

from __future__ import annotations

import json
import math

from repro.metrics.registry import Histogram, MetricsRegistry

__all__ = ["to_prometheus", "to_json_dict", "to_json", "to_record_snapshot"]

SCHEMA = "repro_metrics/v1"


def _escape(value: str) -> str:
    """Escape a label *value*: backslash, double quote, newline."""
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _escape_help(value: str) -> str:
    """Escape HELP text: only backslash and newline — the format leaves
    double quotes alone outside label values."""
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _labelset(labels: tuple[tuple[str, str], ...], extra: tuple[tuple[str, str], ...] = ()):
    pairs = labels + extra
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def _format_value(v: float) -> str:
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    if math.isnan(v):
        return "NaN"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _le_label(bound: float) -> str:
    return "+Inf" if bound == math.inf else _format_value(bound)


def to_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (0.0.4)."""
    lines: list[str] = []
    seen_headers: set[str] = set()
    for inst in registry.metrics():
        if inst.name not in seen_headers:
            seen_headers.add(inst.name)
            if inst.help:
                lines.append(f"# HELP {inst.name} {_escape_help(inst.help)}")
            lines.append(f"# TYPE {inst.name} {inst.kind}")
        if isinstance(inst, Histogram):
            cumulative = inst.cumulative()
            for bound, cum in zip(inst.bounds + (math.inf,), cumulative):
                labels = _labelset(inst.labels, (("le", _le_label(bound)),))
                lines.append(f"{inst.name}_bucket{labels} {cum}")
            lines.append(
                f"{inst.name}_sum{_labelset(inst.labels)} {_format_value(inst.sum)}"
            )
            lines.append(f"{inst.name}_count{_labelset(inst.labels)} {inst.count}")
        else:
            lines.append(
                f"{inst.name}{_labelset(inst.labels)} {_format_value(inst.value)}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def to_json_dict(registry: MetricsRegistry) -> dict:
    """The registry as a JSON-serializable dict (schema-versioned)."""
    metrics = []
    for inst in registry.metrics():
        entry: dict = {
            "name": inst.name,
            "kind": inst.kind,
            "labels": dict(inst.labels),
        }
        if inst.help:
            entry["help"] = inst.help
        if isinstance(inst, Histogram):
            entry["buckets"] = list(inst.bounds)
            entry["counts"] = list(inst.counts)  # non-cumulative; +Inf last
            entry["sum"] = inst.sum
            entry["count"] = inst.count
        else:
            entry["value"] = inst.value
        metrics.append(entry)
    return {"schema": SCHEMA, "metrics": metrics}


def to_json(registry: MetricsRegistry, indent: int | None = 2) -> str:
    """``to_json_dict`` rendered as a JSON string."""
    return json.dumps(to_json_dict(registry), indent=indent)


def to_record_snapshot(registry: MetricsRegistry) -> dict:
    """A compact summary of the registry for run-ledger embedding.

    The full :func:`to_json_dict` dump of a traced run carries every
    per-rank histogram bucket — hundreds of numbers per record line.
    A ledger wants the headline shape, not the raw exposition: scalar
    instruments keep their value; histograms collapse to
    ``{sum, count}``. Keys are ``name`` or ``name{k=v,...}`` with the
    labels sorted, matching the Prometheus identity of each series.
    """
    snapshot: dict[str, object] = {}
    for inst in registry.metrics():
        labels = ",".join(
            f'{k}="{_escape(v)}"' for k, v in sorted(inst.labels)
        )
        key = f"{inst.name}{{{labels}}}" if labels else inst.name
        if isinstance(inst, Histogram):
            snapshot[key] = {"sum": inst.sum, "count": inst.count}
        else:
            snapshot[key] = inst.value
    return snapshot
