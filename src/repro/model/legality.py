"""Legal reads and causally consistent histories (Definitions 1-2).

**Definition 1 (Legal Read).**  Given :math:`\\hat H = (H, \\mapsto_{co})`,
a read ``r(x)v`` is *legal* if there exists a write ``w(x)v`` with
``w(x)v ->co r(x)v`` and there is **no** write ``w(x)v'`` with
``w(x)v ->co w(x)v' ->co r(x)v`` (no interposed write to the same
variable on the causal path).

**Definition 2 (Causally Consistent History).**  A history is causally
consistent iff all its reads are legal.

Reads of the initial value ``BOTTOM`` are treated per the model: a read
with no read-from writer is legal iff *no* write to its variable lies
in its causal past (otherwise the read should have returned one of
those values, or at least cannot return :math:`\\bot` "after" a write it
causally saw).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional

from repro.model.history import History
from repro.model.operations import Read, Write


@dataclass(frozen=True)
class LegalityViolation:
    """One illegal read, with the reason it is illegal."""

    read: Read
    reason: str
    interposed: Optional[Write] = None

    def __str__(self) -> str:
        extra = f" (interposed: {self.interposed})" if self.interposed else ""
        return f"illegal read {self.read}: {self.reason}{extra}"


@dataclass(frozen=True)
class LegalityReport:
    """Result of checking a full history for causal consistency."""

    consistent: bool
    violations: List[LegalityViolation] = field(default_factory=list)
    cyclic: bool = False

    def __bool__(self) -> bool:
        return self.consistent

    def summary(self) -> str:
        if self.consistent:
            return "causally consistent"
        if self.cyclic:
            return "INCONSISTENT: ->co contains a cycle"
        lines = [f"INCONSISTENT: {len(self.violations)} illegal read(s)"]
        lines += [f"  - {v}" for v in self.violations]
        return "\n".join(lines)


def is_legal_read(history: History, read: Read) -> Optional[LegalityViolation]:
    """Check Definition 1 for one read; returns a violation or ``None``.

    The check is evaluated against ``history.causal_order``.  The three
    cases are:

    1. the read returned ``BOTTOM`` (``read_from is None``): legal iff
       no write to the same variable is in the read's causal past;
    2. some other write to the same variable sits causally between the
       writer and the read: illegal (second clause of Definition 1
       fails).
    """
    co = history.causal_order
    if read.read_from is None:
        for w in co.write_causal_past(read):
            if w.variable == read.variable:
                return LegalityViolation(
                    read=read,
                    reason=(
                        "returned BOTTOM although a write to the same "
                        "variable is in its causal past"
                    ),
                    interposed=w,
                )
        return None

    # Note: the writer always causally precedes the read, because the
    # ->ro edge itself is part of ->co's base relation; a contradictory
    # read-from (e.g. reading a same-process *later* write) shows up as
    # a ->co cycle, which check_causal_consistency rejects up front.
    writer = history.write_by_id(read.read_from)
    for w in co.write_causal_past(read):
        if w.variable != read.variable or w.wid == writer.wid:
            continue
        if co.precedes(writer, w):
            # writer ->co w ->co read with same variable: overwritten.
            return LegalityViolation(
                read=read,
                reason="a causally newer write to the same variable is "
                "interposed between the writer and the read",
                interposed=w,
            )
    return None


_BOTTOM_REASON = (
    "returned BOTTOM although a write to the same variable is in its "
    "causal past"
)
_INTERPOSED_REASON = (
    "a causally newer write to the same variable is interposed between "
    "the writer and the read"
)


def check_causal_consistency(history: History) -> LegalityReport:
    """Check Definition 2 on a full history; returns a detailed report.

    A cyclic ``->co`` (only possible for histories no protocol run can
    produce) is reported as inconsistent with ``cyclic=True``.

    Each read ``r`` of ``x`` is one mask over the causal-order bitsets:
    ``anc[r] & writes_to[x]`` for a BOTTOM read, and
    ``anc[r] & desc[writer] & writes_to[x]`` otherwise.  A nonzero mask
    is a violation whose lowest bit is the witness -- the first such
    write in history order, the one :func:`is_legal_read` returns, so
    the report lists the same violations in the same order.
    """
    co = history.causal_order
    if co.has_cycle:
        return LegalityReport(consistent=False, cyclic=True)
    writes_to: Dict[Hashable, int] = {}
    for i, op in enumerate(co.ops):
        if isinstance(op, Write):
            writes_to[op.variable] = writes_to.get(op.variable, 0) | 1 << i
    violations = []
    for i, read in enumerate(co.ops):
        if not isinstance(read, Read):
            continue
        mask = co.anc[i] & writes_to.get(read.variable, 0)
        if read.read_from is None:
            reason = _BOTTOM_REASON
        else:
            mask &= co.desc[co.bit(history.write_by_id(read.read_from))]
            reason = _INTERPOSED_REASON
        if mask:
            witness = co.ops[(mask & -mask).bit_length() - 1]
            violations.append(LegalityViolation(
                read=read, reason=reason, interposed=witness))
    return LegalityReport(consistent=not violations, violations=violations)


def is_causally_consistent(history: History) -> bool:
    """Boolean shortcut for :func:`check_causal_consistency`."""
    return check_causal_consistency(history).consistent
