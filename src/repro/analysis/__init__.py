"""Trace analyzers: the paper's definitions and theorems as checks.

- :mod:`repro.analysis.hb` -- Lamport happened-before over traces;
- :mod:`repro.analysis.enabling` -- ``X_co-safe`` / ``X_ANBKH``
  enabling sets (Tables 1-2) and non-optimality witnesses;
- :mod:`repro.analysis.checker` -- legality, safety, liveness, delay
  necessity and ``Write_co`` characterization checks for whole runs;
- :mod:`repro.analysis.metrics` -- headline metrics and comparison
  tables for the benchmark harness.
"""

from repro.analysis.checker import (
    CheckReport,
    DelayAudit,
    assert_run_ok,
    audit_delays,
    check_characterization,
    check_liveness,
    check_run,
    check_safety,
)
from repro.analysis.enabling import (
    EnablingRow,
    enabling_table,
    render_table,
    superset_rows,
    x_anbkh,
    x_co_safe,
)
from repro.analysis.cuts import (
    Cut,
    applied_writes_at,
    closure_violations,
    cut_at_times,
    full_cut,
    is_consistent,
    make_consistent,
    random_consistent_cut,
)
from repro.analysis.falsecausality import (
    FalseCausalityReport,
    analyze_false_causality,
)
from repro.analysis.hb import HappenedBefore
from repro.analysis.sessions import SessionReport, check_sessions
from repro.analysis.staleness import VisibilityReport, visibility_report
from repro.analysis.metrics import (
    DelayStats,
    RunMetrics,
    aggregate_delays,
    comparison_table,
    percentile,
)

__all__ = [
    "CheckReport",
    "Cut",
    "DelayAudit",
    "DelayStats",
    "EnablingRow",
    "FalseCausalityReport",
    "HappenedBefore",
    "RunMetrics",
    "SessionReport",
    "VisibilityReport",
    "aggregate_delays",
    "analyze_false_causality",
    "applied_writes_at",
    "assert_run_ok",
    "audit_delays",
    "check_characterization",
    "check_liveness",
    "check_run",
    "check_safety",
    "check_sessions",
    "closure_violations",
    "comparison_table",
    "cut_at_times",
    "enabling_table",
    "full_cut",
    "is_consistent",
    "make_consistent",
    "percentile",
    "random_consistent_cut",
    "render_table",
    "superset_rows",
    "visibility_report",
    "x_anbkh",
    "x_co_safe",
]
