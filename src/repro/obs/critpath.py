"""Causal critical-path profiling: where write delays land on the clock.

The paper's optimality result (Theorem 4) counts unnecessary delays;
this module turns the count into wall-clock attribution.  Input is a
span-recording run (:class:`~repro.sim.result.RunResult` with
``spans``): every buffered-and-applied message carries a tiling of its
buffered stretch into :class:`~repro.obs.spans.WaitInterval` values,
each labeled with the blocking ``(component, required)`` edge: the slot
of the protocol's progress vector the message waited on and the value
it needed there (for OptP and ANBKH, the id of a write).

Three outputs:

- **attribution** -- per wait interval, blocked time charged to the
  dependency that gated it.  The tiling is exact by construction
  (``on_repark`` closes one interval as it opens the next; ``on_apply``
  closes the last), so per run::

      sum(attributed blocked time) == sum(span.buffer_duration)

  -- the conservation invariant ``tests/obs/test_critpath.py`` pins.
- **necessity split** -- each delayed span is joined against the
  Theorem-4 delay audit (:func:`repro.analysis.checker.audit_delays`):
  blocked time of delays with no unapplied causal predecessor at
  receipt is *unnecessary* (ANBKH's false causality, Figure 3); OptP
  attributes exactly zero there on every run.
- **critical paths** -- for each delayed apply, the dependency chain
  behind it: follow the releasing edge to the write that fired it
  (only where the edge names one: ``required >= 1`` and that write was
  itself buffered and released here), and if *that* write's local
  apply was itself delayed, recurse.  The longest chain (by blocked
  time) is the run's critical path -- the sequence of waits a
  hypothetical zero-delay protocol would remove.

``repro-dsm critpath`` renders the per-protocol report on the paper's
Ĥ₁ scenarios (docs/observability.md, "Critical-path profiler").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.model.operations import WriteId
from repro.obs.spans import DepKey, MessageSpan

__all__ = [
    "Attribution",
    "CritPathReport",
    "DelayChain",
    "analyze_critical_paths",
]

#: Chain reconstruction bound: a causal chain cannot exceed the number
#: of writes in a run, but guard against pathological span data anyway.
MAX_CHAIN_LEN = 10_000


@dataclass(frozen=True)
class Attribution:
    """One wait interval charged to its blocking dependency."""

    process: int
    wid: WriteId
    #: the blocking ``(component, required)`` edge (None = not
    #: enumerable: legacy scheduling, or a dead-parked duplicate)
    dep: DepKey
    start: float
    end: float
    #: Theorem-4 verdict of the *span's* delay (all intervals of one
    #: delayed message share it); None when no audit entry matched.
    necessary: Optional[bool]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class DelayChain:
    """The dependency chain behind one delayed apply, innermost last:
    ``spans[0]`` is the delayed message, ``spans[i+1]`` the (itself
    delayed) write whose apply released ``spans[i]``."""

    process: int
    spans: Tuple[MessageSpan, ...]

    @property
    def head(self) -> MessageSpan:
        return self.spans[0]

    @property
    def blocked(self) -> float:
        return sum(s.buffer_duration for s in self.spans)

    def render(self) -> str:
        hops = " <- ".join(
            f"w{s.wid.process}.{s.wid.seq}"
            f"[{s.buffer_duration:.3f}]"
            for s in self.spans
        )
        return f"p{self.process}: {hops}  (total {self.blocked:.3f})"


@dataclass
class CritPathReport:
    """Per-run attribution summary (see module docstring)."""

    protocol: str
    attributions: List[Attribution] = field(default_factory=list)
    chains: List[DelayChain] = field(default_factory=list)
    #: spans buffered but never released (discarded / dead-parked):
    #: excluded from the conservation totals, reported for visibility.
    unreleased: int = 0

    @property
    def total_blocked(self) -> float:
        return sum(a.duration for a in self.attributions)

    @property
    def necessary_blocked(self) -> float:
        return sum(a.duration for a in self.attributions
                   if a.necessary is not False)

    @property
    def unnecessary_blocked(self) -> float:
        """Blocked time on delays the audit proved unnecessary
        (Definition 5) -- OptP's is zero on every run (Theorem 4)."""
        return sum(a.duration for a in self.attributions
                   if a.necessary is False)

    @property
    def delayed_applies(self) -> int:
        return len(self.chains)

    def critical_path(self) -> Optional[DelayChain]:
        """The chain with the most blocked time, ties broken by the
        earliest delayed apply (deterministic across runs)."""
        if not self.chains:
            return None
        return max(
            self.chains,
            key=lambda c: (c.blocked, -(c.head.apply_time or 0.0)),
        )

    def by_dependency(self) -> List[Tuple[DepKey, float]]:
        """Blocked time grouped by blocking edge, most-blocking first."""
        acc: Dict[DepKey, float] = {}
        for a in self.attributions:
            acc[a.dep] = acc.get(a.dep, 0.0) + a.duration
        return sorted(acc.items(), key=lambda kv: (-kv[1], str(kv[0])))

    def to_dict(self) -> Dict:
        crit = self.critical_path()
        return {
            "protocol": self.protocol,
            "delayed_applies": self.delayed_applies,
            "attributions": len(self.attributions),
            "total_blocked": self.total_blocked,
            "necessary_blocked": self.necessary_blocked,
            "unnecessary_blocked": self.unnecessary_blocked,
            "unreleased": self.unreleased,
            "critical_path": None if crit is None else {
                "process": crit.process,
                "blocked": crit.blocked,
                "writes": [[s.wid.process, s.wid.seq] for s in crit.spans],
            },
        }

    def render(self, *, top: int = 5) -> str:
        lines = [
            f"{self.protocol}: {self.delayed_applies} delayed applies, "
            f"blocked {self.total_blocked:.3f} "
            f"(necessary {self.necessary_blocked:.3f}, "
            f"unnecessary {self.unnecessary_blocked:.3f})"
        ]
        if self.unreleased:
            lines.append(f"  unreleased (buffered, never applied): "
                         f"{self.unreleased}")
        deps = self.by_dependency()[:top]
        if deps:
            lines.append("  blocking edges:")
            for dep, blocked in deps:
                label = "<unattributed>" if dep is None else \
                    f"apply({dep[0]},{dep[1]})"
                lines.append(f"    {label:<18} {blocked:.3f}")
        crit = self.critical_path()
        if crit is not None:
            lines.append(f"  critical path: {crit.render()}")
        return "\n".join(lines)


def _necessity_index(result) -> Dict[Tuple[int, WriteId], bool]:
    """(process, wid) -> Theorem-4 necessity, from the delay audit."""
    from repro.analysis.checker import audit_delays

    return {
        (a.process, a.wid): a.necessary for a in audit_delays(result)
    }


def analyze_critical_paths(
    result,
    *,
    audits: Optional[Dict[Tuple[int, WriteId], bool]] = None,
) -> CritPathReport:
    """Build the attribution report for a span-recording run.

    ``audits`` overrides the necessity join (tests hand-build it);
    the default runs :func:`repro.analysis.checker.audit_delays`.
    """
    spans = result.spans
    if spans is None:
        raise ValueError(
            "run recorded no spans; pass obs=Obs.recording() to the run"
        )
    if audits is None:
        audits = _necessity_index(result)

    report = CritPathReport(protocol=result.protocol_name)
    #: released (buffered + applied) spans by (process, wid) for chains.
    released: Dict[Tuple[int, WriteId], MessageSpan] = {}
    for span in spans:
        if not span.waits:
            continue
        if span.apply_time is None:
            report.unreleased += 1
            continue
        released[(span.process, span.wid)] = span
        necessary = audits.get((span.process, span.wid))
        for w in span.waits:
            end = span.apply_time if w.end is None else w.end
            report.attributions.append(Attribution(
                process=span.process,
                wid=span.wid,
                dep=w.dep,
                start=w.start,
                end=end,
                necessary=necessary,
            ))

    for (process, _wid), span in released.items():
        chain = [span]
        seen = {span.wid}
        cur = span
        while len(chain) < MAX_CHAIN_LEN:
            dep = cur.released_by
            # The edge is a (component, required) progress key.  Where
            # progress counts one process's applied writes it IS the id
            # of the write whose local apply released this one; a
            # sequencer stamp or a held-write count names no write
            # (stamp 0 is not even a legal id), so the chain follows an
            # edge only to a write this process really held back.
            if dep is None or dep[1] < 1:
                break
            dep_wid = WriteId(dep[0], dep[1])
            nxt = released.get((process, dep_wid))
            if nxt is None or dep_wid in seen:
                break
            chain.append(nxt)
            seen.add(dep_wid)
            cur = nxt
        report.chains.append(DelayChain(process=process,
                                        spans=tuple(chain)))
    # deterministic order: by delayed apply time, then process/wid
    report.chains.sort(
        key=lambda c: (c.head.apply_time, c.process,
                       c.head.wid.process, c.head.wid.seq)
    )
    report.attributions.sort(
        key=lambda a: (a.start, a.process, a.wid.process, a.wid.seq)
    )
    return report
