"""Exhaustive and randomized exploration of protocol interleavings.

``check(config)`` drives a :class:`~repro.mck.cluster.ControlledCluster`
through the delivery/operation/fault choices of a small workload and
judges every reachable state with the incremental invariants of
:mod:`repro.mck.invariants`:

- **exhaustive** mode is a DFS over all interleavings with two sound
  prunes (docs/model-checking.md has the full argument):

  * *sleep sets* -- after exploring transition ``t`` from a state, the
    commuting reorderings of ``t`` with its independent siblings are
    suppressed in the sibling subtrees.  Sound because the checked
    invariants are functions of per-process event sequences and the
    read-from/apply relations, which Mazurkiewicz-equivalent
    interleavings share.
  * *cycle pruning* -- along chains of transitions that record no trace
    events (control-message hops, dedup'd duplicates: the only
    transitions that can revisit a state), a repeated state fingerprint
    aborts the chain.  Sound because a repeated state adds no new
    reachable behaviour.

- **walk** mode replays ``walks`` independent seeded random
  interleavings to a depth bound -- the fallback for configurations
  whose full interleaving space is out of reach (timer-driven
  protocols, larger workloads).

A state whose incoming transition raised a finding is recorded as a
:class:`Violation` (with the full choice path for replay -- see
:mod:`repro.mck.witness`) and its subtree is not expanded: every
extension of a bad prefix is bad.  Exploration continues through the
siblings so one run can report distinct violations.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set

from repro.obs.spans import NULL_OBS, Obs
from repro.sim.cluster import ProtocolFactory

from repro.mck.cluster import ControlledCluster, Transition, independent
from repro.mck.faults import NO_FAULTS, FaultSpec
from repro.mck.invariants import Finding
from repro.mck.workloads import MCK_WORKLOADS, MckWorkload
from repro.obs.progress import STATES_PER_TICK

__all__ = [
    "OPTIMAL_PROTOCOLS",
    "CheckConfig",
    "CheckResult",
    "StateLimitError",
    "Violation",
    "check",
    "minimize_witness",
]

#: Protocols that claim Theorem 4 optimality (minimal enabling sets);
#: for these, an unnecessary delay is a violation, not a statistic.
OPTIMAL_PROTOCOLS = frozenset({"optp", "gossip-optp"})

#: Cap on fully recorded violations (each carries a whole choice path;
#: a broken protocol violates on nearly every branch).
MAX_RECORDED_VIOLATIONS = 25


class StateLimitError(RuntimeError):
    """Raised internally when ``max_states`` is exhausted; surfaced to
    callers as ``CheckResult.state_limit_hit`` rather than an error."""


class _StopSearch(Exception):
    """Internal: ``stop_on_violation`` fired."""


@dataclass(frozen=True)
class CheckConfig:
    """One model-checking task (hashable modulo the factory callable)."""

    protocol: ProtocolFactory
    workload: MckWorkload
    faults: FaultSpec = NO_FAULTS
    #: None = auto: protocols in :data:`OPTIMAL_PROTOCOLS` must show
    #: minimal enabling sets, others merely have delays counted.
    expect_optimal: Optional[bool] = None
    mode: str = "exhaustive"  # or "walk"
    max_states: int = 200_000
    max_depth: int = 80
    walks: int = 64
    seed: int = 0
    timer_budget: int = 3
    stop_on_violation: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("exhaustive", "walk"):
            raise ValueError(f"unknown mode {self.mode!r}")

    def resolved_name(self) -> str:
        if isinstance(self.protocol, str):
            return self.protocol
        probe = self.protocol(0, max(self.workload.n_processes, 2))
        return probe.name


@dataclass(frozen=True)
class Violation:
    """A finding plus the choice path that reaches it from the initial
    state (executing ``choices`` in order reproduces the finding)."""

    finding: Finding
    choices: tuple

    def to_dict(self) -> Dict:
        return {"finding": self.finding.to_dict(),
                "choices": [list(t) for t in self.choices]}

    @classmethod
    def from_dict(cls, doc: Dict) -> "Violation":
        return cls(
            finding=Finding.from_dict(doc["finding"]),
            choices=tuple((t[0], t[1]) for t in doc["choices"]),
        )


@dataclass
class CheckResult:
    """Outcome of one ``check`` run.  ``verdict_dict`` is the
    deterministic slice (cache payload, replay comparison); timing
    lives outside it."""

    protocol_name: str
    workload_name: str
    faults: FaultSpec
    mode: str
    expect_optimal: bool
    states: int = 0
    transitions: int = 0
    terminals: Dict[str, int] = field(
        default_factory=lambda: {"quiescent": 0, "stuck": 0, "truncated": 0})
    prunes: Dict[str, int] = field(
        default_factory=lambda: {"sleep": 0, "cycle": 0})
    violations: List[Violation] = field(default_factory=list)
    #: total violations seen (>= len(violations); recording is capped).
    violations_seen: int = 0
    #: executed transitions that buffered a write whose causal past was
    #: already applied (Definition 5; ANBKH's false causality).
    unnecessary_delays: int = 0
    state_limit_hit: bool = False
    wall: float = 0.0

    @property
    def ok(self) -> bool:
        return self.violations_seen == 0

    @property
    def states_per_sec(self) -> float:
        return self.states / self.wall if self.wall > 0 else 0.0

    def verdict_dict(self) -> Dict:
        return {
            "protocol": self.protocol_name,
            "workload": self.workload_name,
            "faults": self.faults.to_dict(),
            "mode": self.mode,
            "expect_optimal": self.expect_optimal,
            "ok": self.ok,
            "states": self.states,
            "transitions": self.transitions,
            "terminals": dict(self.terminals),
            "prunes": dict(self.prunes),
            "violations": [v.to_dict() for v in self.violations],
            "violations_seen": self.violations_seen,
            "unnecessary_delays": self.unnecessary_delays,
            "state_limit_hit": self.state_limit_hit,
        }


def _make_root(config: CheckConfig) -> ControlledCluster:
    name = config.resolved_name()
    expect_optimal = (name in OPTIMAL_PROTOCOLS
                      if config.expect_optimal is None
                      else config.expect_optimal)
    return ControlledCluster(
        config.protocol,
        config.workload,
        faults=config.faults,
        expect_optimal=expect_optimal,
        # partial replication keeps per-variable subsets by design;
        # whole-store convergence is not part of its contract.
        check_convergence=not name.startswith("partial"),
        timer_budget=config.timer_budget,
    )


def _new_result(config: CheckConfig,
                root: ControlledCluster) -> CheckResult:
    """An empty verdict for a search of ``config`` from ``root``."""
    return CheckResult(
        protocol_name=root.protocol_name,
        workload_name=config.workload.name,
        faults=config.faults,
        mode=config.mode,
        expect_optimal=root.tracker.expect_optimal,
    )


class _Search:
    """Mutable exploration state shared across the recursion."""

    #: The sharded check's frontier: ``dfs`` hands each node at this
    #: depth, uncounted, to ``at_horizon``
    #: (:class:`repro.mck.shard._Expansion`).  None: search to the end.
    horizon: Optional[int] = None

    def __init__(self, config: CheckConfig, result: CheckResult,
                 progress=None):
        self.config = config
        self.result = result
        self.path: List[Transition] = []
        #: optional live telemetry (:class:`repro.obs.progress.ProgressSink`);
        #: ticked every :data:`STATES_PER_TICK` counted states so the
        #: per-state overhead is one modulo when a sink is attached and
        #: zero branches-in-the-loop restructuring when it is not.
        self.progress = progress

    # -- bookkeeping --------------------------------------------------------

    def record(self, finding: Finding) -> None:
        r = self.result
        r.violations_seen += 1
        if len(r.violations) < MAX_RECORDED_VIOLATIONS:
            r.violations.append(
                Violation(finding=finding, choices=tuple(self.path)))
        if self.config.stop_on_violation:
            raise _StopSearch

    def _count_state(self) -> None:
        r = self.result
        r.states += 1
        if r.states > self.config.max_states:
            raise StateLimitError(
                f"max_states={self.config.max_states} exhausted")
        if self.progress is not None and r.states % STATES_PER_TICK == 0:
            prunes = r.prunes["sleep"] + r.prunes["cycle"]
            self.progress.update(
                states=r.states,
                transitions=r.transitions,
                violations=r.violations_seen,
                prune_ratio=round(prunes / max(1, prunes + r.transitions), 4),
                frontier_depth=len(self.path),
            )

    def _step(self, cluster: ControlledCluster,
              t: Transition) -> List[Finding]:
        before = len(cluster.tracker.unnecessary)
        findings = cluster.execute(t)
        self.result.transitions += 1
        self.result.unnecessary_delays += (
            len(cluster.tracker.unnecessary) - before)
        return findings

    def _terminal(self, cluster: ControlledCluster, status: str) -> None:
        self.result.terminals[status] += 1
        for finding in cluster.terminal_findings(status):
            self.record(finding)

    # -- exhaustive ---------------------------------------------------------

    def dfs(self, cluster: ControlledCluster, sleep: Set[Transition],
            chain_keys: Set[str], depth: int) -> None:
        if depth == self.horizon:
            self.at_horizon(sleep, chain_keys, depth)
            return
        self._count_state()
        status = cluster.status()
        if status != "running":
            self._terminal(cluster, status)
            return
        if depth >= self.config.max_depth:
            self.result.terminals["truncated"] += 1
            return
        done: List[Transition] = []
        candidates = []
        for t in cluster.enabled():
            if t in sleep:
                self.result.prunes["sleep"] += 1
            else:
                candidates.append(t)
        for i, t in enumerate(candidates):
            # The last candidate consumes the parent in place: nothing
            # reads `cluster` after the loop, and clones dominate cost.
            child = (cluster if i == len(candidates) - 1
                     else cluster.clone())
            findings = self._step(child, t)
            self.path.append(t)
            try:
                if findings:
                    for finding in findings:
                        self.record(finding)
                    # every extension of a bad prefix is bad: record
                    # once, skip the subtree.
                else:
                    child_sleep = {
                        s for s in sleep if independent(s, t)
                    } | {d for d in done if independent(d, t)}
                    if child.last_trace_grew:
                        self.dfs(child, child_sleep, set(), depth + 1)
                    else:
                        key = child.state_key()
                        if key in chain_keys:
                            self.result.prunes["cycle"] += 1
                        else:
                            self.dfs(child, child_sleep,
                                     chain_keys | {key}, depth + 1)
            finally:
                self.path.pop()
            done.append(t)

    # -- random walks -------------------------------------------------------

    def walk(self, root: ControlledCluster) -> None:
        rng = random.Random(self.config.seed)
        for _ in range(self.config.walks):
            cluster = root.clone()
            self.path.clear()
            for depth in range(self.config.max_depth + 1):
                self._count_state()
                status = cluster.status()
                if status != "running":
                    self._terminal(cluster, status)
                    break
                if depth == self.config.max_depth:
                    self.result.terminals["truncated"] += 1
                    break
                enabled = cluster.enabled()
                t = enabled[rng.randrange(len(enabled))]
                findings = self._step(cluster, t)
                self.path.append(t)
                if findings:
                    for finding in findings:
                        self.record(finding)
                    break  # abandon the walk: the prefix is already bad
        self.path.clear()

    def run(self, root: ControlledCluster) -> None:
        """Search from ``root``: its bootstrap findings, then the DFS or
        the walks.  A spent ``max_states`` sets ``state_limit_hit``."""
        try:
            for finding in root.bootstrap_findings:
                self.record(finding)
            if self.config.mode == "exhaustive":
                self.dfs(root, set(), set(), 0)
            else:
                self.walk(root)
        except StateLimitError:
            self.result.state_limit_hit = True
        except _StopSearch:
            pass


def _publish(result: CheckResult, obs: Obs) -> None:
    """Report a finished check to ``obs``: counters, and a flight
    recorder note (and dump) when it recorded violations."""
    if obs.enabled:
        reg = obs.registry
        labels = {"protocol": result.protocol_name,
                  "workload": result.workload_name}
        reg.counter("mck.states", **labels).inc(result.states)
        reg.counter("mck.transitions", **labels).inc(result.transitions)
        reg.counter("mck.violations", **labels).inc(result.violations_seen)
        for kind, n in result.prunes.items():
            reg.counter("mck.prunes", kind=kind, **labels).inc(n)
        for status, n in result.terminals.items():
            reg.counter("mck.terminals", status=status, **labels).inc(n)
        reg.histogram("mck.states_per_sec").observe(result.states_per_sec)
    journal = obs.journal
    if journal is not None and result.violations_seen > 0:
        journal.note(
            "mck-violations",
            protocol=result.protocol_name,
            workload=result.workload_name,
            violations_seen=result.violations_seen,
            states=result.states,
        )
        journal.maybe_dump("mck-violations")


def check(config: CheckConfig, *, obs: Obs = NULL_OBS,
          progress=None) -> CheckResult:
    """Explore ``config`` and return the verdict.

    ``progress`` (a :class:`repro.obs.progress.ProgressSink`) receives a
    snapshot every :data:`~repro.obs.progress.STATES_PER_TICK` states --
    live telemetry only; the verdict is unaffected.
    """
    root = _make_root(config)
    result = _new_result(config, root)
    start = time.perf_counter()
    _Search(config, result, progress).run(root)
    result.wall = time.perf_counter() - start
    _publish(result, obs)
    if progress is not None:
        progress.update(
            states=result.states,
            transitions=result.transitions,
            violations=result.violations_seen,
        )
    return result


def minimize_witness(
    config: CheckConfig,
    fallback: List[Transition],
    *,
    max_states: int = 200_000,
) -> Optional[List[Transition]]:
    """Shortest violating choice path, by iterative deepening up to
    ``len(fallback)`` (the path a prior search found): each round is
    the exhaustive DFS bounded at depth ``limit`` that stops at its
    first violation.  Minimal up to commutation equivalence -- sleep
    sets stay on, and equivalent interleavings all have the same
    length.  ``max_states`` is one budget for all rounds; once it is
    spent the answer is None: no path is known to be minimal."""
    result = _new_result(config, _make_root(config))
    for limit in range(1, len(fallback) + 1):
        bounded = replace(config, mode="exhaustive", max_states=max_states,
                          max_depth=limit, stop_on_violation=True)
        _Search(bounded, result).run(_make_root(config))
        if result.state_limit_hit:
            return None
        if result.violations:
            return list(result.violations[0].choices)
    return list(fallback)


def workload_by_name(name: str) -> MckWorkload:
    """CLI helper: resolve a canned workload, with a clear error."""
    try:
        return MCK_WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; known: {sorted(MCK_WORKLOADS)}"
        ) from None
