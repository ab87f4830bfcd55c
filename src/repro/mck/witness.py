"""Replayable witness traces for model-checker violations.

A witness is a self-contained JSON document: the check configuration,
the (minimized) choice path that reaches a violation, the finding it
produces, and the full event trace the path generates.  Because the
:class:`~repro.mck.cluster.ControlledCluster` is deterministic given a
choice sequence, replaying the path regenerates the trace **byte for
byte** (`repro-dsm check --replay` asserts exactly that), so a witness
shipped in a bug report or pinned as a regression fixture keeps
meaning the same run.

Document layout (version 1)::

    {
      "mck_witness": 1,
      "config":  {...},                  # CheckConfig, protocol by name
      "choices": [["op", 0], ["deliver", "u:0.0>1"], ...],
      "finding": {...},                  # the headline Finding
      "verdict": {"status": ..., "findings": [...]},
      "trace":   "<JSON-lines text, sim/serialize format>"
    }

Loading is strict -- wrong version, missing or extra keys raise
``ValueError`` -- so a damaged fixture fails loudly instead of silently
vacuously passing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.sim.serialize import trace_to_jsonl

from repro.mck.cluster import Transition
from repro.mck.explorer import (
    CheckConfig,
    Violation,
    _make_root,
    minimize_witness,
)
from repro.mck.faults import FaultSpec
from repro.mck.invariants import Finding
from repro.mck.workloads import workload_from_dict

__all__ = [
    "WITNESS_VERSION",
    "ReplayOutcome",
    "build_witness",
    "config_from_dict",
    "config_to_dict",
    "load_witness",
    "replay_path",
    "replay_witness",
    "save_witness",
]

WITNESS_VERSION = 1

_CONFIG_KEYS = (
    "protocol", "workload", "faults", "expect_optimal", "mode",
    "max_states", "max_depth", "walks", "seed", "timer_budget",
    "stop_on_violation",
)
_DOC_KEYS = ("mck_witness", "config", "choices", "finding", "verdict",
             "trace")


def config_to_dict(config: CheckConfig) -> Dict:
    """Canonical JSON form of a check configuration.

    Requires a *named* protocol: a factory callable has no stable
    serial form, so witnesses (and cache keys) only support registry
    protocols.
    """
    if not isinstance(config.protocol, str):
        raise ValueError(
            "only registry protocols (by name) can be serialized; got a "
            f"factory {config.protocol!r}"
        )
    return {
        "protocol": config.protocol,
        "workload": config.workload.to_dict(),
        "faults": config.faults.to_dict(),
        "expect_optimal": config.expect_optimal,
        "mode": config.mode,
        "max_states": config.max_states,
        "max_depth": config.max_depth,
        "walks": config.walks,
        "seed": config.seed,
        "timer_budget": config.timer_budget,
        "stop_on_violation": config.stop_on_violation,
    }


def config_from_dict(doc: Dict) -> CheckConfig:
    """Inverse of :func:`config_to_dict` (strict)."""
    if not isinstance(doc, dict) or set(doc) != set(_CONFIG_KEYS):
        raise ValueError(
            f"malformed check config: keys {sorted(doc) if isinstance(doc, dict) else doc!r}"
        )
    return CheckConfig(
        protocol=doc["protocol"],
        workload=workload_from_dict(doc["workload"]),
        faults=FaultSpec.from_dict(doc["faults"]),
        expect_optimal=doc["expect_optimal"],
        mode=doc["mode"],
        max_states=doc["max_states"],
        max_depth=doc["max_depth"],
        walks=doc["walks"],
        seed=doc["seed"],
        timer_budget=doc["timer_budget"],
        stop_on_violation=doc["stop_on_violation"],
    )


@dataclass
class ReplayOutcome:
    """What executing a choice path produces: the cluster status after
    the last choice, every finding along the way (bootstrap + per-step
    + terminal), and the full regenerated trace."""

    status: str
    findings: List[Finding]
    trace_jsonl: str


def replay_path(config: CheckConfig,
                choices: Sequence[Transition]) -> ReplayOutcome:
    """Deterministically re-execute ``choices`` from the initial state."""
    cluster = _make_root(config)
    findings: List[Finding] = list(cluster.bootstrap_findings)
    for step, t in enumerate(choices):
        t = (t[0], t[1])
        if t not in cluster.enabled():
            raise ValueError(
                f"choice #{step} {t!r} is not enabled -- the witness does "
                "not match this code/config (stale fixture?)"
            )
        findings += cluster.execute(t)
    status = cluster.status()
    if status != "running":
        findings += cluster.terminal_findings(status)
    return ReplayOutcome(
        status=status,
        findings=findings,
        trace_jsonl=trace_to_jsonl(cluster.trace),
    )


def build_witness(config: CheckConfig, violation: Violation, *,
                  minimize: bool = True,
                  minimize_states: int = 200_000) -> Dict:
    """A witness document for ``violation``.

    With ``minimize`` (the default) the choice path is first shortened
    by iterative deepening (:func:`~repro.mck.explorer.minimize_witness`);
    if its ``minimize_states`` budget runs out, the search's own path is
    kept.  The headline finding is re-derived from the replay of the
    final path, since a shorter path may surface an
    equivalent-but-distinct finding first.
    """
    choices = list(violation.choices)
    if minimize:
        shortest = minimize_witness(config, choices,
                                    max_states=minimize_states)
        if shortest is not None:
            choices = shortest
    outcome = replay_path(config, choices)
    if not outcome.findings:
        raise ValueError(
            "witness path produced no finding on replay -- refusing to "
            "write a vacuous witness"
        )
    return {
        "mck_witness": WITNESS_VERSION,
        "config": config_to_dict(config),
        "choices": [list(t) for t in choices],
        "finding": outcome.findings[0].to_dict(),
        "verdict": {
            "status": outcome.status,
            "findings": [f.to_dict() for f in outcome.findings],
        },
        "trace": outcome.trace_jsonl,
    }


def save_witness(doc: Dict, path) -> None:
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def load_witness(path) -> Dict:
    """Load and validate a witness document (strict)."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"witness {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or set(doc) != set(_DOC_KEYS):
        raise ValueError(
            f"witness {path}: keys "
            f"{sorted(doc) if isinstance(doc, dict) else doc!r} != "
            f"{sorted(_DOC_KEYS)}"
        )
    if doc["mck_witness"] != WITNESS_VERSION:
        raise ValueError(
            f"witness {path}: unsupported version {doc['mck_witness']!r}"
        )
    return doc


def replay_witness(doc: Dict) -> Tuple[ReplayOutcome, List[str]]:
    """Replay a loaded witness; return the outcome plus any mismatches.

    An empty mismatch list means the stored run was reproduced
    byte-identically: same trace text, same findings, same terminal
    status.
    """
    config = config_from_dict(doc["config"])
    choices = [(t[0], t[1]) for t in doc["choices"]]
    outcome = replay_path(config, choices)
    problems: List[str] = []
    if outcome.status != doc["verdict"]["status"]:
        problems.append(
            f"status {outcome.status!r} != recorded "
            f"{doc['verdict']['status']!r}"
        )
    got = [f.to_dict() for f in outcome.findings]
    if got != doc["verdict"]["findings"]:
        problems.append(
            f"findings differ: replay produced {len(got)}, recorded "
            f"{len(doc['verdict']['findings'])} (or contents changed)"
        )
    if outcome.trace_jsonl != doc["trace"]:
        problems.append("regenerated trace is not byte-identical to the "
                        "recorded trace")
    return outcome, problems
