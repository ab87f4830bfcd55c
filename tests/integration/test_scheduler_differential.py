"""Delivery differential: the counting scheduler must be
*observationally identical* to the classify re-scan.

A protocol that declares a ``requirement`` runs the counting scheduler;
the same protocol with the declaration hidden
(:func:`tests.oracle.hide_requirement`) runs the re-scan on its
paper-literal ``classify``.  The requirement changes how buffered
messages are found, never what happens to them: for every protocol in
the registry (and partial replication, which needs its own factory), a
seeded workload run both ways must produce byte-identical serialized
traces -- same events, same order, same times, same state snapshots --
and identical delay audits.  This is also what holds each protocol's
``requirement`` to its ``classify``.

Protocols that declare no requirement (ws-receiver, token, gossip) run
the re-scan both times, so the comparison is trivially exact there; it
still runs to pin that nothing else depends on the declaration.

``test_scheduler_repark`` adds the adversarial topology -- a causal
chain delivered to an observer in every permutation -- because
out-of-order chains are exactly where the counting bookkeeping
(multi-key parks, cascaded wakeups) can drift from the
classify/park/re-scan cycle.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import check_run
from repro.core.base import Protocol
from repro.protocols import PROTOCOLS
from repro.protocols.partial import ReplicationMap, partial_factory
from repro.sim import SeededLatency, run_schedule
from repro.sim.serialize import trace_to_jsonl
from repro.sim.trace import EventKind
from repro.workloads import WorkloadConfig, random_schedule
from repro.workloads.generators import random_partial_schedule

from tests.oracle import hide_requirement
from tests.strategies import latency_seeds, workload_configs

#: Protocols that declare a requirement; the rest run the re-scan.
DECLARING = {"optp", "anbkh", "sequencer"}


def _cfg(seed, n=5):
    return WorkloadConfig(n_processes=n, ops_per_process=14,
                          n_variables=4, write_fraction=0.6, seed=seed)


def _run_both(factory, n, sched, seed, **kwargs):
    """(re-scan oracle, as shipped) on the same seeded latencies."""
    results = []
    for build in (hide_requirement(factory), factory):
        latency = SeededLatency(seed, dist="exponential", mean=2.5)
        results.append(run_schedule(build, n, sched, latency=latency,
                                    **kwargs))
    return results


def assert_observationally_identical(r_rescan, r_shipped):
    # Strongest check first: the serialized traces are byte-identical,
    # covering event order, timestamps, buffer/apply/discard events and
    # per-event protocol state snapshots.
    assert trace_to_jsonl(r_rescan.trace) == trace_to_jsonl(r_shipped.trace)
    assert r_rescan.stores == r_shipped.stores
    assert r_rescan.messages_sent == r_shipped.messages_sent
    assert r_rescan.write_delays == r_shipped.write_delays
    rep_r, rep_s = check_run(r_rescan), check_run(r_shipped)
    assert rep_r.ok == rep_s.ok
    assert rep_r.total_delays == rep_s.total_delays
    assert rep_r.unnecessary_delays == rep_s.unnecessary_delays


class TestRegistryProtocols:
    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_indexed_matches_legacy(self, name, seed):
        sched = random_schedule(_cfg(seed))
        r_rescan, r_shipped = _run_both(PROTOCOLS[name], 5, sched, seed)
        assert_observationally_identical(r_rescan, r_shipped)

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_mode_resolution_matches_registry_split(self, name):
        declares = PROTOCOLS[name].requirement is not Protocol.requirement
        assert declares == (name in DECLARING), name
        hidden = hide_requirement(name)(0, 4)
        assert type(hidden).requirement is Protocol.requirement


class TestRandomizedParity:
    """Hypothesis widens the seed grid above: counting == re-scan on
    arbitrary workload shapes, not just the pinned configurations."""

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cfg=workload_configs(max_processes=5, max_ops=10),
           name=st.sampled_from(sorted(DECLARING)),
           lseed=latency_seeds)
    def test_indexed_matches_legacy_on_random_workloads(
        self, cfg, name, lseed
    ):
        sched = random_schedule(cfg)
        r_rescan, r_shipped = _run_both(
            PROTOCOLS[name], cfg.n_processes, sched, lseed)
        assert_observationally_identical(r_rescan, r_shipped)


class TestPartialReplication:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("k", [2, 3])
    def test_round_robin_map(self, seed, k):
        cfg = _cfg(seed, n=4)
        variables = [f"x{i}" for i in range(cfg.n_variables)]
        rmap = ReplicationMap.round_robin(variables, cfg.n_processes, k)
        sched = random_partial_schedule(cfg, rmap)
        r_rescan, r_shipped = _run_both(
            partial_factory(rmap), cfg.n_processes, sched, seed)
        assert_observationally_identical(r_rescan, r_shipped)

    def test_full_map(self):
        cfg = _cfg(7, n=4)
        variables = [f"x{i}" for i in range(cfg.n_variables)]
        rmap = ReplicationMap.full(variables, cfg.n_processes)
        sched = random_partial_schedule(cfg, rmap)
        r_rescan, r_shipped = _run_both(
            partial_factory(rmap), cfg.n_processes, sched, 7)
        assert_observationally_identical(r_rescan, r_shipped)


class TestFaultKnobs:
    """Duplicates exercise the dead-park (exact-match pivot) path;
    dedup'd duplicates exercise the node-level guard.  Parity must
    survive both."""

    @pytest.mark.parametrize("name", sorted(DECLARING))
    def test_duplicates_with_dedup(self, name):
        sched = random_schedule(_cfg(11))
        r_rescan, r_shipped = _run_both(
            PROTOCOLS[name], 5, sched, 11,
            duplicate_prob=0.3, dedup=True)
        assert_observationally_identical(r_rescan, r_shipped)

    @pytest.mark.parametrize("name", sorted(DECLARING))
    def test_duplicates_without_dedup_dead_park_identically(self, name):
        # Without dedup, duplicate updates reach the scheduler and must
        # be dead-parked by the pivot test exactly where classify keeps
        # them buffered forever; the run never quiesces, so compare at
        # a deadline.
        sched = random_schedule(_cfg(3))
        r_rescan, r_shipped = _run_both(
            PROTOCOLS[name], 5, sched, 3,
            duplicate_prob=0.3, deadline=500.0)
        assert_observationally_identical(r_rescan, r_shipped)

    def test_partial_duplicates_without_dedup(self):
        """A duplicate that slips past a disabled dedup guard wedges in
        the buffer like everywhere else; it must never re-apply (the
        sender component is an exact match, not a lower bound)."""
        cfg = _cfg(5, n=4)
        variables = [f"x{i}" for i in range(cfg.n_variables)]
        rmap = ReplicationMap.round_robin(variables, cfg.n_processes, 3)
        sched = random_partial_schedule(cfg, rmap)
        r_rescan, r_shipped = _run_both(
            partial_factory(rmap), cfg.n_processes, sched, 5,
            duplicate_prob=0.3, deadline=500.0)
        assert_observationally_identical(r_rescan, r_shipped)
        assert r_shipped.write_delays
        receipts = sum(1 for _ in r_shipped.trace.of_kind(EventKind.RECEIPT))
        assert receipts > r_shipped.remote_applies  # duplicates did wedge
        for p in range(cfg.n_processes):
            order = r_shipped.trace.apply_order(p)
            assert len(order) == len(set(order)), f"p{p} re-applied a write"
