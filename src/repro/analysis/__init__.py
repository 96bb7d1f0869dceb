"""Figure/table series generators and measured-vs-analytic validation.

The measured side reads sweep records: :func:`scaling_points` runs
:class:`~repro.sweep.spec.SweepSpec` s in process (``repro.sweep`` is
imported only when it is called) and returns :class:`ScalingPoint` s.
"""

from repro.analysis.figures import (
    figure3_series,
    figure4_series,
    figure6_series,
    figure7_series,
)
from repro.analysis.asciiplot import gantt_chart, line_plot, region_plot
from repro.analysis.breakdown import (
    TERMS,
    dominance_boundary,
    dominant_term_map,
    energy_breakdown_fractions,
)
from repro.analysis.frontier import CostModelFrontier, FrontierGrid, NBodyFrontier
from repro.analysis.powertrace import PowerTrace, catalog_power_caps
from repro.analysis.report import generate_report
from repro.analysis.timeline import CriticalPath, Timeline
from repro.analysis.tables import (
    render_scaling_points,
    render_series,
    render_table,
    render_table1,
    render_table2,
)
from repro.analysis.validation import ScalingPoint, default_machine, scaling_points

__all__ = [
    "figure3_series",
    "figure4_series",
    "figure6_series",
    "figure7_series",
    "NBodyFrontier",
    "FrontierGrid",
    "ScalingPoint",
    "default_machine",
    "scaling_points",
    "render_table",
    "render_table1",
    "render_table2",
    "render_scaling_points",
    "render_series",
    "generate_report",
    "CostModelFrontier",
    "line_plot",
    "TERMS",
    "dominance_boundary",
    "dominant_term_map",
    "energy_breakdown_fractions",
    "region_plot",
    "gantt_chart",
    "Timeline",
    "CriticalPath",
    "PowerTrace",
    "catalog_power_caps",
]
