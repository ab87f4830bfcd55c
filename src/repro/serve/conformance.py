"""Replay a recorded live trace through every existing oracle.

"Fast" must also be "causally consistent": after a served run, each
replica's WAL is replayed into its events and the group's events are
merged into one trace (:mod:`repro.serve.merge`), which is fed --
unchanged -- through

- :func:`repro.analysis.checker.check_run` (history legality, safety,
  liveness, the Definition-3 delay audit, characterization), and
- the model checker's online :class:`~repro.mck.invariants.InvariantTracker`
  (per-event legality/safety/optimality) plus its Theorem-5 liveness
  terminal check,

which are exactly the oracles the simulator and mck paths trust.  The
trace also round-trips through the JSONL archive format so a recorded
run can be re-verified later with ``repro-dsm replay``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.checker import check_run
from repro.mck.invariants import InvariantTracker
from repro.sim.result import RunResult
from repro.sim.trace import EventKind, Trace

__all__ = ["verify_live_trace"]


def verify_live_trace(trace: Trace, *, protocol_name: str,
                      expect_optimal: bool = False,
                      quiescent: bool = True) -> Dict:
    """Run both oracle stacks over a merged live trace.

    ``quiescent`` should be True only when the deployment was drained
    before dumping (every broadcast delivered) -- the Theorem-5
    every-write-applied-everywhere check is meaningless mid-flight.
    Returns a JSON-able report; ``report["ok"]`` is the gate.
    """
    n = trace.n_processes
    result = RunResult(
        protocol_name=protocol_name,
        n_processes=n,
        trace=trace,
        duration=trace.events[-1].time if len(trace) else 0.0,
        messages_sent=0,
        bytes_estimate=0,
        stores=[{} for _ in range(n)],
        protocol_stats=[{} for _ in range(n)],
    )
    report = check_run(result)

    tracker = InvariantTracker(n, expect_optimal=expect_optimal)
    findings = tracker.observe(trace, trace.events)
    if quiescent:
        findings += tracker.liveness_findings(trace.writes_issued())

    writes = len(trace.writes_issued())
    reads = sum(1 for _ in trace.of_kind(EventKind.RETURN))
    checker_problems: List[str] = []
    if not report.legality:
        checker_problems.append(report.legality.summary())
    checker_problems += report.safety_violations
    checker_problems += report.characterization_errors
    if quiescent:
        checker_problems += report.liveness_violations
        checker_ok = report.ok
    else:
        # mid-flight dump: undelivered broadcasts are expected, so the
        # Theorem-5 everywhere-applied check does not apply
        checker_ok = (
            bool(report.legality)
            and not report.safety_violations
            and report.characterization_ok is not False
        )
    return {
        "ok": checker_ok and not findings,
        "protocol": protocol_name,
        "n_processes": n,
        "events": len(trace),
        "writes": writes,
        "reads": reads,
        "delays": report.total_delays,
        "unnecessary_delays": len(report.unnecessary_delays),
        "checker_ok": checker_ok,
        "checker_problems": checker_problems,
        "invariant_findings": [str(f) for f in findings],
        "tracker_unnecessary": len(tracker.unnecessary),
    }
