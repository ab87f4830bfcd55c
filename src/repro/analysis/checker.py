"""End-to-end run checkers: the paper's theorems as machine checks.

Given a :class:`~repro.sim.result.RunResult`, :func:`check_run`
verifies:

- **legality** (Definitions 1-2): the observed history is causally
  consistent;
- **safety** (Theorem 3): whenever ``w ->co w'``, every process applies
  ``w`` before ``w'``;
- **liveness** (Theorem 5): every write is applied at every process --
  for class-𝒫 protocols exactly; for writing-semantics variants the
  skipped/suppressed applies must balance the books;
- **delay necessity** (Theorem 4 / Definition 5): every write delay the
  run executed was *necessary*, i.e. at receipt time some write of the
  delayed write's ``->co``-causal past was still unapplied.  For OptP
  the unnecessary-delay list must be empty on every run; for ANBKH the
  non-empty lists are precisely the false-causality events of Figure 3;
- **characterization** (Theorems 1-2): if the run recorded protocol
  state (``record_state=True`` with a ``Write_co``-bearing protocol),
  the vectors' ``<`` relation must coincide exactly with ``->co`` on
  writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Dict, List, Optional, Tuple

from repro.model.history import bit_positions
from repro.model.legality import LegalityReport, check_causal_consistency
from repro.model.operations import WriteId
from repro.sim.result import RunResult
from repro.sim.trace import EventKind


@dataclass(frozen=True)
class DelayAudit:
    """One write delay and whether it was necessary (Definition 3/5)."""

    process: int
    wid: WriteId
    receipt_seq: int
    necessary: bool
    #: the unapplied causal predecessor justifying the delay (if any)
    witness: Optional[WriteId] = None


@dataclass
class CheckReport:
    """Aggregated verdicts of :func:`check_run`."""

    protocol_name: str
    legality: LegalityReport
    safety_violations: List[str] = field(default_factory=list)
    liveness_violations: List[str] = field(default_factory=list)
    delay_audits: List[DelayAudit] = field(default_factory=list)
    #: None when vectors were not recorded in the trace
    characterization_ok: Optional[bool] = None
    characterization_errors: List[str] = field(default_factory=list)

    @property
    def unnecessary_delays(self) -> List[DelayAudit]:
        return [d for d in self.delay_audits if not d.necessary]

    @property
    def total_delays(self) -> int:
        return len(self.delay_audits)

    @property
    def ok(self) -> bool:
        """Safe + legal + live (+ characterized, when checked).

        Delay *optimality* is intentionally not part of ``ok``: ANBKH
        runs are correct-but-suboptimal.  Assert
        ``not report.unnecessary_delays`` separately where optimality
        is the claim under test (OptP, Theorem 4).
        """
        return (
            bool(self.legality)
            and not self.safety_violations
            and not self.liveness_violations
            and self.characterization_ok is not False
        )

    def summary(self) -> str:
        parts = [
            f"{self.protocol_name}:",
            "legal" if self.legality else "ILLEGAL",
            "safe" if not self.safety_violations else
            f"UNSAFE({len(self.safety_violations)})",
            "live" if not self.liveness_violations else
            f"NOT-LIVE({len(self.liveness_violations)})",
            f"delays={self.total_delays}",
            f"unnecessary={len(self.unnecessary_delays)}",
        ]
        if self.characterization_ok is not None:
            parts.append(
                "characterized" if self.characterization_ok else "MIS-CHARACTERIZED"
            )
        return " ".join(parts)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def check_safety(result: RunResult) -> List[str]:
    """Theorem 3: apply orders respect ``->co`` at every process.

    For writes applied at a process, the apply order must embed
    ``->co``; a write *skipped* at a process (WS variants) imposes
    nothing there.  Each process's apply order is walked once: a write
    whose ``->co`` descendants are already applied there is applied
    after them, one violation per such descendant.
    """
    history = result.history
    trace = result.trace
    co = history.causal_order
    violations: List[str] = []
    for k in range(result.n_processes):
        applied = 0
        seq: Dict[int, int] = {}
        late: List[Tuple[int, int]] = []
        for wid in trace.apply_order(k):
            i = co.bit(history.write_by_id(wid))
            seq[i] = trace.apply_event(k, wid).seq
            late += [(i, j) for j in bit_positions(co.desc[i] & applied)]
            applied |= 1 << i
        for i, j in sorted(late):
            violations.append(
                f"p{k} applied {co.ops[j].wid} (seq {seq[j]}) before "
                f"its causal predecessor {co.ops[i].wid} (seq {seq[i]})"
            )
    return violations


def check_liveness(result: RunResult) -> List[str]:
    """Theorem 5 for class 𝒫; bookkeeping balance for WS variants."""
    trace = result.trace
    violations = []
    wids = trace.writes_issued()
    if result.in_class_p:
        for wid in wids:
            for k in range(result.n_processes):
                if trace.apply_event(k, wid) is None:
                    violations.append(f"{wid} never applied at p{k}")
        return violations
    # Outside class 𝒫, every missing apply must be accounted for by a
    # skip (receiver-side WS), a suppression (sender-side WS), or a
    # non-replicated destination (partial replication).
    expected = len(wids) * (result.n_processes - 1)
    actual = result.remote_applies
    totals = result.stats_total
    skipped = totals.get("skipped", 0)
    suppressed = totals.get("suppressed", 0) * (result.n_processes - 1)
    unreplicated = totals.get("unreplicated", 0)
    if actual + skipped + suppressed + unreplicated != expected:
        violations.append(
            f"apply accounting broken: {actual} applies + {skipped} skips "
            f"+ {suppressed} suppressed-applies + {unreplicated} "
            f"unreplicated != {expected} expected"
        )
    return violations


def audit_delays(result: RunResult) -> List[DelayAudit]:
    """Definition 5: classify each write delay as necessary or not.

    A delay of ``w`` at ``p_k`` is *necessary* iff at the moment of
    receipt some write of ``w``'s ``->co``-causal past had not yet been
    applied at ``p_k`` -- i.e. the corresponding apply event is missing
    from ``E_k`` before the receipt (Definition 3 applied to
    ``X_co-safe``).  The witness is the first such write in history
    order: the lowest bit of ``anc[w] & writes & ~applied``.
    """
    history = result.history
    co = history.causal_order
    trace = result.trace
    writes = co.mask(history.writes())
    applied = [0] * trace.n_processes
    audits = []
    for ev in trace.events:
        if ev.kind is EventKind.BUFFER:
            i = co.bit(history.write_by_id(ev.wid))
            missing = co.anc[i] & writes & ~applied[ev.process] & ~(1 << i)
            witness = co.ops[(missing & -missing).bit_length() - 1].wid \
                if missing else None
            audits.append(
                DelayAudit(
                    process=ev.process,
                    wid=ev.wid,
                    receipt_seq=ev.seq,
                    necessary=witness is not None,
                    witness=witness,
                )
            )
        elif ev.wid is not None and trace.apply_event(ev.process, ev.wid) is ev:
            applied[ev.process] |= 1 << co.bit(history.write_by_id(ev.wid))
    return audits


def check_characterization(result: RunResult) -> Tuple[Optional[bool], List[str]]:
    """Theorems 1-2: ``Write_co`` characterizes ``->co`` on writes.

    Uses the ``write_co`` entries of WRITE-event state snapshots
    (populated when the cluster runs with ``record_state=True`` and the
    protocol exposes its vector).  Returns ``(None, [])`` when vectors
    are unavailable.

    The vectors' ``<`` relation is built as bitsets over the same bit
    positions as ``->co``: per component, a running mask of the writes
    whose entry is ``<=`` a given value; ANDed over the components it is
    the set of vectors ``<=`` a write's, and minus the equal vectors the
    set ``<`` it.  Each write's set is then compared with its ``->co``
    past.
    """
    trace = result.trace
    vectors: Dict[WriteId, Tuple[int, ...]] = {}
    for ev in trace.of_kind(EventKind.WRITE):
        if ev.state and "write_co" in ev.state:
            vectors[ev.wid] = tuple(ev.state["write_co"])
    if not vectors:
        return None, []
    history = result.history
    co = history.causal_order
    bits = {co.bit(w): vectors[w.wid] for w in history.writes()
            if w.wid in vectors}
    recorded = sum(1 << i for i in bits)
    below = dict.fromkeys(bits, recorded)
    equal: Dict[Tuple[int, ...], int] = {}
    for i, v in bits.items():
        equal[v] = equal.get(v, 0) | 1 << i
    for c in range(len(next(iter(bits.values()), ()))):
        running = 0
        ranked = sorted(bits, key=lambda i: bits[i][c])
        for _, tied in groupby(ranked, key=lambda i: bits[i][c]):
            tied = list(tied)
            for i in tied:
                running |= 1 << i
            for i in tied:
                below[i] &= running
    wrong: List[Tuple[int, int]] = []
    for j, v in bits.items():
        vc_lt = below[j] & ~equal[v]
        past = co.anc[j] & recorded & ~(1 << j)
        wrong += [(i, j) for i in bit_positions(vc_lt ^ past)]
    errors = []
    for i, j in sorted(wrong):
        in_co = co.precedes(co.ops[i], co.ops[j])
        errors.append(
            f"{co.ops[i].wid} -> {co.ops[j].wid}: ->co={in_co} but "
            f"Write_co<{'/' if in_co else ''}= {bits[i]} vs {bits[j]}"
        )
    return (not errors), errors


# ---------------------------------------------------------------------------
# the one-stop check
# ---------------------------------------------------------------------------


def check_run(result: RunResult) -> CheckReport:
    """Run every checker; see the module docstring for what's covered."""
    legality = check_causal_consistency(result.history)
    char_ok, char_errors = check_characterization(result)
    return CheckReport(
        protocol_name=result.protocol_name,
        legality=legality,
        safety_violations=check_safety(result),
        liveness_violations=check_liveness(result),
        delay_audits=audit_delays(result),
        characterization_ok=char_ok,
        characterization_errors=char_errors,
    )


def assert_run_ok(result: RunResult, *, expect_optimal: bool = False) -> CheckReport:
    """Check and raise ``AssertionError`` with details on any failure.

    ``expect_optimal=True`` additionally requires zero unnecessary
    delays (what Theorem 4 promises for OptP on *every* run).
    """
    report = check_run(result)
    problems = []
    if not report.legality:
        problems.append(report.legality.summary())
    problems += report.safety_violations
    problems += report.liveness_violations
    if report.characterization_ok is False:
        problems += report.characterization_errors
    if expect_optimal and report.unnecessary_delays:
        problems += [
            f"unnecessary delay of {d.wid} at p{d.process}"
            for d in report.unnecessary_delays
        ]
    if problems:
        raise AssertionError(
            f"run check failed for {result.protocol_name}:\n  " +
            "\n  ".join(problems)
        )
    return report
