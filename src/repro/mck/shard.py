"""Sharded exhaustive checking: one state space, many workers.

:mod:`repro.mck.parallel` parallelises *across* check configs; a single
big exhaustive check still runs on one core.  This module splits one
check's DFS across a process pool while keeping the verdict --
state/transition/terminal/prune/unnecessary-delay counts and the
recorded violations, in order -- **exactly equal** to the serial
:func:`~repro.mck.explorer.check` (pinned by
``tests/mck/test_shard.py``).

How the split stays exact
-------------------------

The coordinator runs the serial :meth:`_Search.dfs` itself with a
*horizon* depth.  Nodes at the horizon are **not** counted; each
becomes a shard: the choice path from the root plus the sleep set,
chain keys and depth the serial DFS carries into that node.  A worker
replays the path on a fresh root and resumes ``dfs`` with exactly that
carried state, so

``serial counters == interior counters + sum(shard counters)``

holds term by term -- the shards partition the serial recursion tree.
Violation *order* is preserved by an event log: the expansion records
interior violations and shard positions in DFS order, and the merge
splices each shard's (DFS-ordered) violations back into its slot
before re-applying the ``MAX_RECORDED_VIOLATIONS`` cap.

Shards ride the generalized :class:`~repro.sweep.runner.SweepRunner`
substrate -- same pool, same by-index merge, same content-addressed
cache -- with a shard-specific digest (config + path + carried state +
the ``mck`` code fingerprint).

Caveats (documented, not silent):

- ``max_states`` is enforced per shard rather than globally, so runs
  that *hit* the limit explore a different (larger) portion of the
  space than serial; ``state_limit_hit`` is the OR across interior and
  shards.  Runs under the limit are exactly equal.
- Only ``mode="exhaustive"`` without ``stop_on_violation`` shards
  (random walks are seed-driven and cheap; early-stop is inherently
  order-dependent).  Ineligible configs fall back to the serial,
  cached single-config path transparently.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.obs.spans import NULL_OBS, Obs
from repro.sweep.cache import RunCache
from repro.sweep.runner import SweepRunner, SweepStats

from repro.mck.cluster import Transition
from repro.mck.explorer import (
    MAX_RECORDED_VIOLATIONS,
    CheckConfig,
    CheckResult,
    StateLimitError,
    Violation,
    _make_root,
    _new_result,
    _publish,
    _Search,
)
from repro.mck.parallel import (
    MCK_FINGERPRINT_PACKAGES,
    run_checks,
    verdict_from_dict,
)
from repro.mck.witness import config_from_dict, config_to_dict

__all__ = [
    "SHARD_SPEC_VERSION",
    "check_sharded",
    "execute_shard_spec",
    "shard_digest",
    "shardable",
]

#: Bumped whenever the shard spec form changes incompatibly.
SHARD_SPEC_VERSION = 1

#: Target shards per worker: enough slack that one heavy subtree does
#: not serialize the pool, few enough that replay overhead stays small.
FRONTIER_PER_JOB = 4


def shardable(config: CheckConfig, jobs: int) -> bool:
    """True when ``config`` is eligible for sharded checking."""
    return (
        jobs > 1
        and config.mode == "exhaustive"
        and not config.stop_on_violation
        and isinstance(config.protocol, str)  # shards must pickle
    )


# -- coordinator-side expansion ---------------------------------------------


class _Expansion(_Search):
    """The serial DFS cut at ``horizon``: each node at that depth
    becomes a shard instead of being counted and expanded.

    Recorded violations go to the ordered event log instead of
    ``result.violations`` (the merge rebuilds the list so shard
    violations land in DFS order).
    """

    def __init__(self, config: CheckConfig, result: CheckResult,
                 horizon: int):
        super().__init__(config, result)
        self.horizon = horizon
        #: DFS-ordered interleave of ("v", Violation) and ("f", index
        #: into :attr:`frontier`).
        self.events: List[Tuple] = []
        #: shard payloads (path / sleep / chain_keys / depth).
        self.frontier: List[Dict] = []

    def record(self, finding) -> None:  # overrides _Search.record
        self.result.violations_seen += 1
        self.events.append(
            ("v", Violation(finding=finding, choices=tuple(self.path))))

    def at_horizon(self, sleep: Set[Transition], chain_keys: Set[str],
                   depth: int) -> None:
        """Emit the node ``dfs`` reached at the horizon as a shard,
        uncounted: the worker's ``dfs`` counts it at entry, once."""
        # Canonical JSON form: transitions as 2-lists, sets sorted.
        self.events.append(("f", len(self.frontier)))
        self.frontier.append({
            "path": [[t[0], t[1]] for t in self.path],
            "sleep": sorted([t[0], t[1]] for t in sleep),
            "chain_keys": sorted(chain_keys),
            "depth": depth,
        })


def _expand_frontier(config: CheckConfig,
                     target: int) -> Optional[_Expansion]:
    """Push the horizon deeper until it holds >= ``target`` shards.

    Each attempt restarts from a fresh root (state counts must reflect
    only the final expansion).  Returns None when the interior alone
    exhausts ``max_states`` -- serial would too, so the caller falls
    back to the serial path for identical limit semantics.
    """
    horizon = 1
    while True:
        root = _make_root(config)
        exp = _Expansion(config, _new_result(config, root), horizon)
        exp.run(root)
        if exp.result.state_limit_hit:
            return None
        if not exp.frontier or len(exp.frontier) >= target:
            return exp
        if horizon > config.max_depth:
            # Unreachable in practice: at horizon == max_depth + 1 every
            # path has terminated or truncated inside the interior, so
            # the frontier is empty and the branch above returned.
            return exp
        horizon += 1


# -- worker side -------------------------------------------------------------


def shard_digest(spec: Dict, fingerprint: Optional[str] = None) -> str:
    """Content address of one shard (the cache key form)."""
    doc: Dict = {"version": SHARD_SPEC_VERSION, "shard": spec}
    if fingerprint is not None:
        doc = {"fingerprint": fingerprint, "spec": doc}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def execute_shard_spec(spec: Dict) -> Tuple[Dict, float]:
    """Worker entry point: replay the shard's path, resume the DFS.

    The replayed prefix is *not* counted (the coordinator's expansion
    already counted those states and transitions); counting starts at
    the horizon node, inside ``dfs``.  The search path is pre-seeded
    with the replay path so recorded violation choices are full paths
    from the root, byte-identical to serial ones.
    """
    config = config_from_dict(spec["config"])
    path = [(t[0], t[1]) for t in spec["path"]]
    root = _make_root(config)
    for t in path:
        root.execute(t)
    result = _new_result(config, root)
    search = _Search(config, result)
    search.path = list(path)
    start = time.perf_counter()
    try:
        search.dfs(
            root,
            {(t[0], t[1]) for t in spec["sleep"]},
            set(spec["chain_keys"]),
            spec["depth"],
        )
    except StateLimitError:
        result.state_limit_hit = True
    result.wall = time.perf_counter() - start
    return result.verdict_dict(), result.wall


# -- orchestration -----------------------------------------------------------


def _merge(exp: _Expansion, shards: Sequence[CheckResult]) -> CheckResult:
    """Fold shard verdicts into the interior result, in DFS order."""
    final = exp.result
    for r in shards:
        final.states += r.states
        final.transitions += r.transitions
        final.violations_seen += r.violations_seen
        final.unnecessary_delays += r.unnecessary_delays
        for k in final.terminals:
            final.terminals[k] += r.terminals[k]
        for k in final.prunes:
            final.prunes[k] += r.prunes[k]
        final.state_limit_hit = final.state_limit_hit or r.state_limit_hit
    merged: List[Violation] = []
    for ev in exp.events:
        if len(merged) >= MAX_RECORDED_VIOLATIONS:
            break
        if ev[0] == "v":
            merged.append(ev[1])
        else:
            # Each shard records its first MAX_RECORDED_VIOLATIONS in
            # DFS order -- always enough to fill the merged cap.
            merged.extend(shards[ev[1]].violations)
    final.violations = merged[:MAX_RECORDED_VIOLATIONS]
    return final


def check_sharded(
    config: CheckConfig,
    *,
    jobs: int,
    cache: Optional[RunCache] = None,
    obs: Obs = NULL_OBS,
    progress=None,
) -> Tuple[CheckResult, SweepStats]:
    """Run one check sharded over ``jobs`` workers.

    Ineligible configs (see :func:`shardable`) and interiors that hit
    ``max_states`` during expansion fall back to the serial cached
    path; either way the returned verdict matches serial ``check``.
    ``progress`` receives a tick per completed shard (telemetry only).
    """
    if not shardable(config, jobs):
        results, stats = run_checks([config], jobs=1, cache=cache, obs=obs,
                                    progress=progress)
        return results[0], stats
    start = time.perf_counter()
    exp = _expand_frontier(config, target=jobs * FRONTIER_PER_JOB)
    if exp is None:
        results, stats = run_checks([config], jobs=1, cache=cache, obs=obs,
                                    progress=progress)
        return results[0], stats
    if exp.frontier:
        config_doc = config_to_dict(config)
        specs = [dict(shard, version=SHARD_SPEC_VERSION, config=config_doc)
                 for shard in exp.frontier]
        if progress is not None:
            progress.update(shards=len(specs),
                            interior_states=exp.result.states)
        runner = SweepRunner(
            jobs=jobs,
            cache=cache,
            obs=obs,
            progress=progress,
            worker=execute_shard_spec,
            digest_fn=shard_digest,
            decode=verdict_from_dict,
            fingerprint_packages=MCK_FINGERPRINT_PACKAGES,
        )
        shards = runner.run(specs)
        stats = runner.stats
    else:
        # The expansion exhausted the whole space: the interior result
        # *is* the verdict and no pool is needed.
        shards = []
        stats = SweepStats(jobs=jobs)
    result = _merge(exp, shards)
    result.wall = time.perf_counter() - start
    _publish(result, obs)
    return result, stats
