"""Observatory dashboard: the ledger as an ASCII report or HTML page.

:func:`render_report` prints what a maintainer wants at a glance —
ledger inventory, each sweep's T/E trajectory as a sparkline with its
drift verdict, the latest constant fit, and the wall-clock BENCH
trajectory — all plain text (the ``repro observe report`` default).

:func:`render_html` emits one self-contained HTML document (inline CSS
and SVG, no external assets, no JavaScript dependencies) with the same
content drawn properly: log-log scaling curves per sweep, a parallel
efficiency heatmap, the fit's per-term residual bars, and the bench
trajectory — suitable as a CI build artifact.
"""

from __future__ import annotations

import html
import math
from typing import Iterable

from repro.analysis.asciiplot import sparkline
from repro.exceptions import ParameterError
from repro.observatory.drift import (
    DRIFT_TOLERANCES,
    _per_processor_watts,
    check_power_flatness,
    check_sweep,
    sweep_key,
)
from repro.observatory.fit import fit_records
from repro.observatory.ledger import Ledger, RunRecord, records_from

__all__ = ["render_report", "render_html", "sweep_cache_stats", "sweep_groups"]


def sweep_groups(
    records: Iterable[RunRecord],
) -> list[tuple[tuple, list[RunRecord]]]:
    """Run records grouped by :func:`~repro.observatory.drift.sweep_key`,
    deduplicated per p (latest wins) and sorted by p within each group.
    Groups appear in first-seen ledger order."""
    groups: dict[tuple, dict[int, RunRecord]] = {}
    for r in records:
        if r.kind != "run":
            continue
        groups.setdefault(sweep_key(r), {})[r.p] = r
    return [
        (key, [by_p[p] for p in sorted(by_p)]) for key, by_p in groups.items()
    ]


def sweep_cache_stats(records: Iterable[RunRecord]) -> tuple[int, int]:
    """(cache hits, misses) among records the sweep engine appended —
    records whose ``extra['sweep']['cache']`` provenance tag says how
    they got into the ledger. Hand-recorded runs carry no tag and count
    in neither bucket."""
    hits = misses = 0
    for r in records:
        tag = (r.extra or {}).get("sweep")
        if not isinstance(tag, dict):
            continue
        if tag.get("cache") == "hit":
            hits += 1
        elif tag.get("cache") == "miss":
            misses += 1
    return hits, misses


def _fit_or_none(records: list[RunRecord]):
    try:
        return fit_records(records)
    except ParameterError:
        return None


def _verdict_or_none(sweep: list[RunRecord]):
    try:
        return check_sweep(sweep)
    except ParameterError:
        return None


def _power_verdict_or_none(sweep: list[RunRecord]):
    try:
        return check_power_flatness(sweep)
    except ParameterError:
        return None


# ----------------------------------------------------------------------
# ASCII
# ----------------------------------------------------------------------


def render_report(source: "Ledger | Iterable[RunRecord]") -> str:
    """The whole ledger as a terminal report."""
    records = records_from(source)
    lines = [f"scaling observatory: {len(records)} ledger record(s)"]
    if isinstance(source, Ledger):
        lines[0] += f" in {source.path}"
        quarantined = source.quarantined()
        if quarantined:
            lines.append(
                f"  !! {len(quarantined)} corrupt line(s) quarantined to "
                f"{source.quarantine_path}"
            )
    if not records:
        lines.append("  (empty — run `repro observe record`)")
        return "\n".join(lines)
    hits, misses = sweep_cache_stats(records)
    if hits or misses:
        lines.append(
            f"  sweep cache: {hits} replayed, {misses} simulated "
            f"({hits + misses} sweep-engine record(s))"
        )

    groups = sweep_groups(records)
    for (workload, pinned), sweep in groups:
        pins = " ".join(f"{k}={v}" for k, v in pinned)
        lines.append("")
        lines.append(
            f"sweep: {workload}" + (f" [{pins}]" if pins else "")
            + f" — {len(sweep)} point(s), p={[r.p for r in sweep]}"
        )
        t = [r.time_total for r in sweep]
        e = [r.energy_total for r in sweep]
        if all(v is not None for v in t):
            tp = [v * r.p for v, r in zip(t, sweep)]
            lines.append(
                f"  T      {sparkline(t)}  {t[0]:.4g} -> {t[-1]:.4g} s"
            )
            lines.append(
                f"  T*p    {sparkline(tp)}  flat = perfect strong scaling"
            )
        if all(v is not None for v in e):
            lines.append(
                f"  E      {sparkline(e)}  {e[0]:.4g} -> {e[-1]:.4g} J"
            )
        pw = [_per_processor_watts(r) for r in sweep]
        if all(v is not None for v in pw):
            lines.append(
                f"  P/p    {sparkline(pw)}  flat = no additional power "
                "per processor"
            )
        verdict = _verdict_or_none(sweep)
        if verdict is not None:
            worst = max(verdict.terms, key=lambda tv: tv.spread)
            lines.append(
                f"  drift: {verdict.classification.upper()} "
                f"(worst term {worst.term}, spread {worst.spread:.3f})"
            )
        power = _power_verdict_or_none(sweep)
        if power is not None:
            lines.append(
                f"  power: {power.classification.upper()} "
                f"(P/p spread {power.terms[0].spread:.3f})"
            )

    fit = _fit_or_none(records)
    if fit is not None:
        lines.append("")
        lines.append(fit.render())

    bench = [r for r in records if r.kind == "bench"]
    if bench:
        lines.append("")
        lines.append(f"bench trajectory ({len(bench)} record(s)):")
        by_wl: dict[str, list[RunRecord]] = {}
        for r in bench:
            by_wl.setdefault(r.workload, []).append(r)
        for workload, recs in by_wl.items():
            walls = [r.wall_seconds for r in recs if r.wall_seconds is not None]
            if walls:
                lines.append(
                    f"  {workload:<24s} {sparkline(walls)}  "
                    f"latest {walls[-1]:.4g} s over {len(walls)} run(s)"
                )
            else:
                lines.append(f"  {workload:<24s} ({len(recs)} record(s), no wall time)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# HTML (self-contained: inline CSS + SVG, no scripts, no assets)
# ----------------------------------------------------------------------

_CSS = """
body { font: 14px/1.5 -apple-system, 'Segoe UI', sans-serif; margin: 2rem auto;
       max-width: 60rem; color: #1a1a2e; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; font-size: 0.85rem; }
td, th { border: 1px solid #ccd; padding: 0.25rem 0.6rem; text-align: right; }
th { background: #eef; }
.perfect { color: #0a7d36; font-weight: 600; }
.degraded { color: #b8860b; font-weight: 600; }
.broken { color: #c0392b; font-weight: 600; }
.muted { color: #678; font-size: 0.85rem; }
svg { background: #fafaff; border: 1px solid #dde; margin: 0.5rem 0; }
"""

_SERIES_COLORS = ("#2465c0", "#c0392b", "#0a7d36", "#8e44ad", "#b8860b")


def _svg_log_chart(
    series: dict[str, tuple[tuple[float, float], ...]],
    title: str,
    width: int = 430,
    height: int = 260,
) -> str:
    """Log-log polyline chart of named (x, y) series as inline SVG."""
    pts = [p for s in series.values() for p in s if p[0] > 0 and p[1] > 0]
    if not pts:
        return ""
    lx = [math.log10(p[0]) for p in pts]
    ly = [math.log10(p[1]) for p in pts]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    x1 += 1e-9 if x1 == x0 else 0.0
    if y1 - y0 < 0.05:  # keep a flat series visibly flat, not jagged
        pad = 0.5 * (0.05 - (y1 - y0))
        y0, y1 = y0 - pad, y1 + pad
    ml, mb, mt, mr = 58, 34, 28, 110

    def sx(v):
        return ml + (math.log10(v) - x0) / (x1 - x0) * (width - ml - mr)

    def sy(v):
        return height - mb - (math.log10(v) - y0) / (y1 - y0) * (height - mb - mt)

    out = [
        f'<svg width="{width}" height="{height}" role="img" '
        f'aria-label="{html.escape(title)}">',
        f'<text x="{ml}" y="16" font-size="13" font-weight="600">'
        f"{html.escape(title)}</text>",
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" '
        f'y2="{height - mb}" stroke="#99a"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="#99a"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        vx = 10 ** (x0 + frac * (x1 - x0))
        vy = 10 ** (y0 + frac * (y1 - y0))
        out.append(
            f'<text x="{ml + frac * (width - ml - mr):.0f}" '
            f'y="{height - mb + 16}" font-size="10" fill="#678" '
            f'text-anchor="middle">{vx:.3g}</text>'
        )
        out.append(
            f'<text x="{ml - 6}" y="{height - mb - frac * (height - mb - mt):.0f}" '
            f'font-size="10" fill="#678" text-anchor="end">{vy:.3g}</text>'
        )
    for i, (name, points) in enumerate(series.items()):
        color = _SERIES_COLORS[i % len(_SERIES_COLORS)]
        good = [(x, y) for x, y in points if x > 0 and y > 0]
        if not good:
            continue
        path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in good)
        out.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        for x, y in good:
            out.append(
                f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" '
                f'fill="{color}"/>'
            )
        out.append(
            f'<text x="{width - mr + 8}" y="{mt + 14 + 16 * i}" font-size="11" '
            f'fill="{color}">{html.escape(name)}</text>'
        )
    out.append("</svg>")
    return "".join(out)


def _efficiency_color(eff: float) -> str:
    """Green at 1.0 (perfect), fading through amber to red below 0.4."""
    eff = max(0.0, min(1.2, eff))
    if eff >= 1.0:
        return "#0a7d36"
    if eff >= 0.8:
        return "#7cb342"
    if eff >= 0.6:
        return "#c0a030"
    if eff >= 0.4:
        return "#d07030"
    return "#c0392b"


def _html_sweep_section(key: tuple, sweep: list[RunRecord]) -> str:
    workload, pinned = key
    pins = " ".join(f"{k}={v}" for k, v in pinned)
    title = html.escape(workload + (f" [{pins}]" if pins else ""))
    parts = [f"<h2>sweep: {title}</h2>"]
    t_pts = tuple(
        (r.p, r.time_total) for r in sweep if r.time_total is not None
    )
    e_pts = tuple(
        (r.p, r.energy_total) for r in sweep if r.energy_total is not None
    )
    charts = ""
    if len(t_pts) >= 2:
        ideal = tuple(
            (p, t_pts[0][1] * t_pts[0][0] / p) for p, _ in t_pts
        )
        charts += _svg_log_chart(
            {"T measured": t_pts, "T ideal 1/p": ideal}, "runtime vs p (log-log)"
        )
    if len(e_pts) >= 2:
        flat = tuple((p, e_pts[0][1]) for p, _ in e_pts)
        charts += _svg_log_chart(
            {"E measured": e_pts, "E flat ideal": flat}, "energy vs p (log-log)"
        )
    pw_pts = tuple(
        (r.p, _per_processor_watts(r))
        for r in sweep
        if _per_processor_watts(r) is not None
    )
    if len(pw_pts) >= 2:
        flat_pw = tuple((p, pw_pts[0][1]) for p, _ in pw_pts)
        charts += _svg_log_chart(
            {"P/p measured": pw_pts, "P/p flat ideal": flat_pw},
            "per-processor power vs p (log-log)",
        )
    if charts:
        parts.append(charts)

    if len(t_pts) >= 2:
        # Parallel efficiency heatmap row: (T0 p0) / (T p) per point.
        base = t_pts[0][1] * t_pts[0][0]
        cells = []
        for p, t in t_pts:
            eff = base / (t * p) if t else 0.0
            cells.append(
                f'<td style="background:{_efficiency_color(eff)};color:#fff">'
                f"{eff:.2f}</td>"
            )
        parts.append(
            "<p class=muted>parallel efficiency (T·p relative to the first "
            "point; 1.00 = perfect strong scaling)</p>"
            "<table><tr><th>p</th>"
            + "".join(f"<td>{p}</td>" for p, _ in t_pts)
            + "</tr><tr><th>eff</th>"
            + "".join(cells)
            + "</tr></table>"
        )

    verdict = _verdict_or_none(sweep)
    if verdict is not None:
        rows = []
        for tv in verdict.terms:
            tol = DRIFT_TOLERANCES[tv.term]
            rows.append(
                f"<tr><td style='text-align:left'>{html.escape(tv.term)}</td>"
                f"<td>{tv.spread:.3f}</td><td>{tol['perfect']:.2f}</td>"
                f"<td>{tol['degraded']:.2f}</td>"
                f"<td class={tv.classification}>{tv.classification}</td></tr>"
            )
        parts.append(
            f"<p>drift verdict: <span class={verdict.classification}>"
            f"{verdict.classification.upper()}</span></p>"
            "<table><tr><th>term</th><th>spread</th><th>perfect &le;</th>"
            "<th>degraded &le;</th><th>verdict</th></tr>"
            + "".join(rows)
            + "</table>"
        )

    power = _power_verdict_or_none(sweep)
    if power is not None:
        tv = power.terms[0]
        tol = DRIFT_TOLERANCES[tv.term]
        parts.append(
            f"<p>power flatness (P/p): <span class={power.classification}>"
            f"{power.classification.upper()}</span> "
            f"<span class=muted>spread {tv.spread:.3f}, perfect &le; "
            f"{tol['perfect']:.2f}, degraded &le; {tol['degraded']:.2f}"
            "</span></p>"
        )
    return "".join(parts)


def render_html(source: "Ledger | Iterable[RunRecord]") -> str:
    """The whole ledger as one self-contained HTML document."""
    records = records_from(source)
    body = ["<h1>scaling observatory</h1>"]
    origin = f" — {html.escape(str(source.path))}" if isinstance(source, Ledger) else ""
    body.append(
        f"<p class=muted>{len(records)} ledger record(s){origin}</p>"
    )
    if isinstance(source, Ledger):
        quarantined = source.quarantined()
        if quarantined:
            body.append(
                f"<p class=broken>{len(quarantined)} corrupt line(s) "
                f"quarantined</p>"
            )
    hits, misses = sweep_cache_stats(records)
    if hits or misses:
        body.append(
            f"<p class=muted>sweep cache: {hits} replayed, {misses} "
            f"simulated</p>"
        )

    for key, sweep in sweep_groups(records):
        body.append(_html_sweep_section(key, sweep))

    fit = _fit_or_none(records)
    if fit is not None:
        body.append("<h2>Eq. (1)/(2) constant fit</h2>")
        ref_err = fit.reference_errors()
        rows = []
        for name, value in fit.constants.items():
            ref = (fit.reference or {}).get(name)
            err = (ref_err or {}).get(name)
            rows.append(
                f"<tr><td style='text-align:left'>{name}</td>"
                f"<td>{value:.8g}</td>"
                f"<td>{'-' if ref is None else format(ref, '.8g')}</td>"
                f"<td>{'-' if err is None else format(err, '.2e')}</td></tr>"
            )
        body.append(
            f"<p class=muted>{fit.n_records} records; condition numbers: "
            f"time {fit.time_condition:.3g}, energy {fit.energy_condition:.3g}"
            "</p>"
            "<table><tr><th>constant</th><th>recovered</th><th>recorded</th>"
            "<th>rel err</th></tr>" + "".join(rows) + "</table>"
        )
        # Per-term residual bars (log scale would hide zeros; linear on
        # a capped residual keeps it readable).
        res = fit.term_residuals
        if res:
            width, bar_h = 430, 18
            height = 30 + bar_h * len(res)
            cap = max(res.values()) or 1.0
            bars = [
                f'<svg width="{width}" height="{height}" role="img" '
                f'aria-label="fit residuals">',
                '<text x="4" y="16" font-size="13" font-weight="600">'
                "per-term fit residuals (max relative)</text>",
            ]
            for i, (term, err) in enumerate(sorted(res.items())):
                y = 26 + i * bar_h
                w = 0 if cap == 0 else (err / cap) * (width - 190)
                bars.append(
                    f'<text x="4" y="{y + 12}" font-size="11">'
                    f"{html.escape(term)}</text>"
                )
                bars.append(
                    f'<rect x="90" y="{y + 2}" width="{max(w, 1):.1f}" '
                    f'height="{bar_h - 6}" fill="#2465c0"/>'
                )
                bars.append(
                    f'<text x="{96 + max(w, 1):.1f}" y="{y + 12}" '
                    f'font-size="10" fill="#678">{err:.2e}</text>'
                )
            bars.append("</svg>")
            body.append("".join(bars))
        for warning in fit.warnings:
            body.append(f"<p class=degraded>warning: {html.escape(warning)}</p>")

    bench = [r for r in records if r.kind == "bench"]
    if bench:
        body.append("<h2>bench trajectory</h2>")
        by_wl: dict[str, list[RunRecord]] = {}
        for r in bench:
            by_wl.setdefault(r.workload, []).append(r)
        for workload, recs in by_wl.items():
            pts = tuple(
                (i + 1, r.wall_seconds)
                for i, r in enumerate(recs)
                if r.wall_seconds is not None and r.wall_seconds > 0
            )
            if len(pts) >= 2:
                body.append(
                    _svg_log_chart(
                        {"wall seconds": pts},
                        f"{workload} wall-clock over runs",
                    )
                )
            else:
                body.append(
                    f"<p class=muted>{html.escape(workload)}: "
                    f"{len(recs)} record(s) (need 2+ timed runs to plot)</p>"
                )

    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        "<title>scaling observatory</title>"
        f"<style>{_CSS}</style></head><body>"
        + "".join(body)
        + "</body></html>"
    )
