"""What the delivery scheduler reports, pinned.

Two commitments, stacked on top of the *trace* parity of
``test_scheduler_differential``:

1. **Span parity** -- trace bytes say *what* was applied *when*; the
   obs spans say *why it waited*: every buffered message carries a
   tiling of its buffered stretch into wait intervals, each labelled
   with the blocking ``(component, required)`` edge, and
   ``obs.critpath`` charges blocked time to those edges.  The digests
   in ``delivery_goldens.json`` were captured from the commit that
   still had the dependency-indexed scheduler next to the counting one
   (with this file asserting their span sequences equal); the one
   scheduler left must reproduce them -- same waits, same dependency
   order inside every wait sequence (pivot first), same apply /
   discard times, same park / re-park / dead-park counts, same
   critical-path attribution.  (``sched.wakeups`` is the counting
   scheduler's own: one per message per fired key.)  One entry,
   ``dup-nodedup/partial``, was captured *after* the delete: it pins
   the one deliberate behaviour change (partial replication's sender
   component became an exact match, so a duplicate that slips past a
   disabled dedup guard dead-parks instead of re-applying).

2. **Byte identity with obs disabled** -- the pinned sha256 digests
   assert disabled-obs runs produce exactly the traces they produced
   when the counting scheduler was instrumented, and that arming obs
   changes no trace bytes (telemetry never perturbs the run).

A drift in either means the scheduler's behaviour or telemetry
changed: investigate, never repin casually.
``python tests/integration/test_flat_obs_parity.py`` prints the
document ``delivery_goldens.json`` was generated from.
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from repro.obs import Obs, analyze_critical_paths
from repro.protocols import PROTOCOLS
from repro.protocols.partial import ReplicationMap, partial_factory
from repro.sim import SeededLatency, run_schedule
from repro.sim.serialize import trace_to_jsonl
from repro.workloads import random_schedule
from repro.workloads.generators import random_partial_schedule

from tests.integration.test_flatstate_differential import FLAT_PROTOCOLS
from tests.integration.test_scheduler_differential import _cfg
from tests.integration.test_scheduler_repark import (
    SENDS,
    chain_schedule,
    scripted,
)

GOLDENS = Path(__file__).with_name("delivery_goldens.json")

_COUNTERS = ("sched.wakeups", "sched.reparks", "sched.dead_parked")


def _seeded(name, seed, *, obs=None, **kwargs):
    if obs is None:
        obs = Obs.recording()
    result = run_schedule(
        PROTOCOLS[name], 5, random_schedule(_cfg(seed)),
        latency=SeededLatency(seed, dist="exponential", mean=2.5),
        obs=obs, **kwargs)
    return result, obs


def _partial_nodedup():
    """Partial replication with duplicates and no dedup guard (the
    scenario of ``TestFaultKnobs::test_partial_duplicates_without_
    dedup``)."""
    cfg = _cfg(5, n=4)
    variables = [f"x{i}" for i in range(cfg.n_variables)]
    rmap = ReplicationMap.round_robin(variables, cfg.n_processes, 3)
    obs = Obs.recording()
    result = run_schedule(
        partial_factory(rmap), cfg.n_processes,
        random_partial_schedule(cfg, rmap),
        latency=SeededLatency(5, dist="exponential", mean=2.5),
        duplicate_prob=0.3, deadline=500.0, obs=obs)
    return result, obs


def _chain(order):
    obs = Obs.recording()
    result = run_schedule("optp", 4, chain_schedule(),
                          latency=scripted(order), record_state=True,
                          obs=obs)
    return result, obs


def _chain_label(order):
    return "-".join(f"p{w.process}" for w in order)


def _document(result, obs):
    """Everything the scheduler reported about one run, canonically.
    Wait intervals keep their recorded order: the dependency sequence
    is pinned, not just the set."""
    spans = sorted(
        [s.process, [s.wid.process, s.wid.seq], s.sender, str(s.variable),
         s.send_time, s.receipt_time, s.apply_time, s.discard_time,
         [[w.start, None if w.dep is None else list(w.dep), w.end]
          for w in s.waits]]
        for s in result.spans
    )
    n = len(result.stores)
    doc = {
        "spans": spans,
        "counters": {
            name: [obs.registry.value(name, process=p) or 0
                   for p in range(n)]
            for name in _COUNTERS
        },
        "parks": [
            sum(inst.value
                for labels, inst in obs.registry.series("sched.parks")
                if labels["process"] == p)
            for p in range(n)
        ],
    }
    if result.protocol_name in ("sequencer", "partial"):
        # critpath reads a dependency edge as the id of the write whose
        # apply releases it; the sequencer's edges are stamps and
        # partial replication's are held-write counts, not ids
        return doc
    report = analyze_critical_paths(result)
    doc.update({
        "attributions": [
            [a.process, [a.wid.process, a.wid.seq],
             None if a.dep is None else list(a.dep),
             a.start, a.end, a.necessary]
            for a in report.attributions
        ],
        "chains": [
            [c.process, [[s.wid.process, s.wid.seq] for s in c.spans]]
            for c in report.chains
        ],
        "critpath": report.to_dict(),
    })
    return doc


def _summary(doc):
    """A golden entry: the digest covers the whole document; the counts
    beside it make a drift legible."""
    raw = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    critpath = doc.get("critpath", {})
    return {
        "digest": hashlib.sha256(raw.encode()).hexdigest(),
        "spans": len(doc["spans"]),
        "waits": sum(len(s[8]) for s in doc["spans"]),
        "parks": sum(doc["parks"]),
        "wakeups": sum(doc["counters"]["sched.wakeups"]),
        "reparks": sum(doc["counters"]["sched.reparks"]),
        "dead_parked": sum(doc["counters"]["sched.dead_parked"]),
        "total_blocked": critpath.get("total_blocked"),
        "unnecessary_blocked": critpath.get("unnecessary_blocked"),
    }


def _scenarios():
    for name in sorted(FLAT_PROTOCOLS):
        for seed in (0, 1, 2):
            yield f"random/{name}/{seed}", lambda n=name, s=seed: _seeded(n, s)
        yield (f"dup-dedup/{name}",
               lambda n=name: _seeded(n, 11, duplicate_prob=0.3, dedup=True))
    yield ("dup-nodedup/anbkh",
           lambda: _seeded("anbkh", 3, duplicate_prob=0.3, deadline=500.0))
    yield "dup-nodedup/partial", _partial_nodedup
    for order in itertools.permutations(sorted(SENDS)):
        yield f"chain/{_chain_label(order)}", lambda o=order: _chain(o)


SCENARIOS = dict(_scenarios())


def assert_matches_golden(scenario):
    result, obs = SCENARIOS[scenario]()
    golden = json.loads(GOLDENS.read_text())[scenario]
    assert _summary(_document(result, obs)) == golden
    return result


class TestSpanParity:
    @pytest.mark.parametrize("name", sorted(FLAT_PROTOCOLS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_workloads(self, name, seed):
        result = assert_matches_golden(f"random/{name}/{seed}")
        # the workloads actually exercise buffering, not just sends
        assert any(s.waits for s in result.spans)

    @pytest.mark.parametrize(
        "order", list(itertools.permutations(sorted(SENDS))),
        ids=_chain_label,
    )
    def test_reverse_chain_wait_sequences(self, order):
        """Out-of-order chains force multi-key parks and re-parks: the
        head-advance must report the wait-interval sequences the
        classify/park/wake cycle reported."""
        assert_matches_golden(f"chain/{_chain_label(order)}")

    @pytest.mark.parametrize("name", sorted(FLAT_PROTOCOLS))
    def test_duplicates_with_dedup(self, name):
        assert_matches_golden(f"dup-dedup/{name}")

    def test_duplicates_without_dedup_dead_park_spans(self):
        """Dead-parked duplicates wedge forever: without dedup the
        duplicate's dep-less open wait lands on the original's span
        (same (process, wid) key), reported identically at the
        comparison deadline."""
        result = assert_matches_golden("dup-nodedup/anbkh")
        wedged = [s for s in result.spans
                  if s.waits and s.waits[-1].dep is None
                  and s.waits[-1].end is None]
        assert wedged  # the scenario actually produced dead-parks

    def test_partial_duplicates_without_dedup_dead_park(self):
        """The sender component of partial replication is an exact
        match: a duplicate of an applied write dead-parks (it used to
        re-apply under the old pure ``>=`` predicate)."""
        result = assert_matches_golden("dup-nodedup/partial")
        assert any(s.waits and s.waits[-1].dep is None
                   and s.waits[-1].end is None for s in result.spans)

    def test_goldens_cover_every_scenario(self):
        assert sorted(json.loads(GOLDENS.read_text())) == sorted(SCENARIOS)


def _digest(name, seed, obs):
    result, _ = _seeded(name, seed, obs=obs)
    return hashlib.sha256(
        trace_to_jsonl(result.trace).encode()).hexdigest()


#: sha256(trace_to_jsonl(...)) of the disabled-obs runs, pinned at the
#: PR that instrumented the counting scheduler.  A digest drift means the
#: obs wiring changed scheduling behaviour -- investigate, never repin
#: casually.
PINNED_DIGESTS = {
    ("anbkh", 0):
        "e9a466f5ef662b059c317b36c91c2c87ec60d2d82304c65a2cd9d50985b14513",
    ("anbkh", 1):
        "2174d433265eacce9a92c6e3ec85ec1ec1d0df3304bb016db38ba930b5287056",
    ("optp", 0):
        "8ca9f50e23f0e18025d30864c4744d5bf121be1dada9c98b478b9ba4c8f84350",
    ("optp", 1):
        "82541a1aab949a910cd5bfa6a5227ce6447fc993497c2623cafe8be6ad74feb3",
    ("sequencer", 0):
        "a45503e1018caad7cff2a0263a2f8057ee50ab4419c30fa0f7fe78f7c15a060b",
    ("sequencer", 1):
        "74dcfd37cbbd37937c4e6ff3740e0d18f854168e32e4bdaf948e890044705b4f",
}


class TestByteIdentity:
    @pytest.mark.parametrize("name,seed", sorted(PINNED_DIGESTS))
    def test_disabled_obs_digest_pinned(self, name, seed):
        assert _digest(name, seed, Obs()) == PINNED_DIGESTS[(name, seed)]

    @pytest.mark.parametrize("name,seed", sorted(PINNED_DIGESTS))
    def test_enabled_obs_same_bytes(self, name, seed):
        """Arming spans + journal changes zero trace bytes."""
        assert _digest(name, seed, Obs.recording(journal=True)) \
            == PINNED_DIGESTS[(name, seed)]


if __name__ == "__main__":
    print(json.dumps(
        {name: _summary(_document(*build()))
         for name, build in sorted(SCENARIOS.items())},
        indent=2, sort_keys=True))
