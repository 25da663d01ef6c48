"""Validation and evaluation harness.

* :mod:`repro.analysis.trace_diff` — the reorder-and-compare trace
  equivalence check of Section IV-A;
* :mod:`repro.analysis.stats` — wall-clock + kernel-counter measurement of
  simulation runs;
* :mod:`repro.analysis.reporting` — ASCII tables / CSV / text plots;
* :mod:`repro.analysis.experiments` — one driver per table and figure of
  the paper (Fig. 2/3 traces, Fig. 5 depth sweep, Section IV-C case study,
  plus the quantum and context-switch ablations).
"""

from .reporting import ascii_table, dict_rows_table, format_gain, text_plot, write_csv
from .stats import RunResult, measure_run
from .trace_diff import (
    TraceComparison,
    compare_collectors,
    compare_sorted_lines,
    compare_spools,
    compare_traces,
    emission_order_changed,
    sorted_lines,
)

__all__ = [
    "RunResult",
    "TraceComparison",
    "ascii_table",
    "compare_collectors",
    "compare_sorted_lines",
    "compare_spools",
    "compare_traces",
    "dict_rows_table",
    "emission_order_changed",
    "format_gain",
    "measure_run",
    "sorted_lines",
    "text_plot",
    "write_csv",
]
