"""Dense-evaluation differential: the vectorized form of the wait
predicate must be *observationally identical* to the scalar loop.

:meth:`repro.core.base.Protocol.missing_deps` evaluates a requirement
row with a plain Python loop up to ``DENSE_THRESHOLD`` components and
with :mod:`repro.core.flatstate` above it (a cached int64 row compared
against a self-healing progress mirror).  The choice depends on the row
width alone, so the simulator's usual sizes never reach the dense
path; here every run is repeated with the threshold forced to zero --
*every* row goes through numpy -- and must produce byte-identical
serialized traces and identical delay audits.

Protocols that declare no requirement (ws-receiver, token, gossip)
never evaluate a row; the comparison is trivially exact there but still
runs to pin that the threshold reaches nothing else.

The reverse-chain block replays the adversarial topology of
``test_scheduler_repark`` -- a causal chain delivered to an observer in
every permutation -- because out-of-order chains are where a stale
progress mirror would first mis-report a dependency.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.base
import repro.core.flatstate
from repro.protocols import PROTOCOLS
from repro.protocols.partial import ReplicationMap, partial_factory
from repro.sim import SeededLatency, SimCluster, run_schedule
from repro.sim.scheduler import CountingScheduler, RescanScheduler
from repro.workloads import random_schedule
from repro.workloads.generators import random_partial_schedule

from tests.integration.test_scheduler_differential import (
    DECLARING,
    _cfg,
    assert_observationally_identical,
)
from tests.integration.test_scheduler_repark import (
    SENDS,
    chain_schedule,
    scripted,
)
from tests.strategies import latency_seeds, workload_configs

#: Protocols that evaluate requirement rows; the rest never touch the
#: dense path.
FLAT_PROTOCOLS = DECLARING


SHIPPED = repro.core.flatstate.DENSE_THRESHOLD


def _with_threshold(threshold, fn):
    """Run ``fn`` with the row-width and sparse-view thresholds forced."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (repro.core.base, repro.core.flatstate):
            patch.setattr(module, "DENSE_THRESHOLD", threshold)
        return fn()


def _run_both(factory, n, sched, latency, **kwargs):
    """(scalar loop, dense numpy) on the same latencies."""
    return [
        _with_threshold(threshold, lambda: run_schedule(
            factory, n, sched, latency=latency(), **kwargs))
        for threshold in (SHIPPED, 0)
    ]


def _seeded(seed):
    return lambda: SeededLatency(seed, dist="exponential", mean=2.5)


class TestRegistryProtocols:
    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flat_matches_scalar(self, name, seed):
        sched = random_schedule(_cfg(seed))
        r_scalar, r_flat = _run_both(PROTOCOLS[name], 5, sched,
                                     _seeded(seed))
        assert_observationally_identical(r_scalar, r_flat)

    @pytest.mark.parametrize("name", sorted(FLAT_PROTOCOLS))
    def test_backend_resolution_matches_registry_split(self, name):
        """The forced threshold really reaches the dense path (it
        leaves a progress mirror on the protocol); at the shipped
        threshold no numpy array appears at these sizes."""
        sched = random_schedule(_cfg(0))

        def run():
            cluster = SimCluster(PROTOCOLS[name], 5, latency=_seeded(0)())
            cluster.run_schedule(sched)
            return [n.protocol._mirror for n in cluster.nodes]

        assert _with_threshold(SHIPPED, run) == [None] * 5
        assert any(m is not None for m in _with_threshold(0, run)), name

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_auto_resolution_is_visible_on_the_cluster(self, name):
        cluster = SimCluster(PROTOCOLS[name], 4)
        expected = (CountingScheduler if name in FLAT_PROTOCOLS
                    else RescanScheduler)
        assert all(type(n.scheduler) is expected for n in cluster.nodes)


class TestReverseChain:
    """Every delivery permutation of the causal chain a -> b -> c at
    the observer, including the full reverse that forces multi-key
    parks and cascaded wakeups."""

    @pytest.mark.parametrize(
        "order", list(itertools.permutations(sorted(SENDS))),
        ids=lambda o: "-".join(f"p{w.process}" for w in o),
    )
    def test_every_delivery_order_matches_scalar(self, order):
        r_scalar, r_flat = _run_both(
            "optp", 4, chain_schedule(), lambda: scripted(order),
            record_state=True)
        assert_observationally_identical(r_scalar, r_flat)
        # the chain fully applies everywhere both ways
        assert all(len(s) == 3 for s in r_flat.stores)


class TestRandomizedParity:
    """Hypothesis widens the seed grid above: dense == scalar on
    arbitrary workload shapes, not just the pinned configurations."""

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cfg=workload_configs(max_processes=5, max_ops=10),
           name=st.sampled_from(sorted(FLAT_PROTOCOLS)),
           lseed=latency_seeds)
    def test_flat_matches_scalar_on_random_workloads(
        self, cfg, name, lseed
    ):
        sched = random_schedule(cfg)
        r_scalar, r_flat = _run_both(
            PROTOCOLS[name], cfg.n_processes, sched, _seeded(lseed))
        assert_observationally_identical(r_scalar, r_flat)


class TestPartialReplication:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("k", [2, 3])
    def test_round_robin_map(self, seed, k):
        cfg = _cfg(seed, n=4)
        variables = [f"x{i}" for i in range(cfg.n_variables)]
        rmap = ReplicationMap.round_robin(variables, cfg.n_processes, k)
        sched = random_partial_schedule(cfg, rmap)
        r_scalar, r_flat = _run_both(
            partial_factory(rmap), cfg.n_processes, sched, _seeded(seed))
        assert_observationally_identical(r_scalar, r_flat)

    def test_full_map(self):
        cfg = _cfg(7, n=4)
        variables = [f"x{i}" for i in range(cfg.n_variables)]
        rmap = ReplicationMap.full(variables, cfg.n_processes)
        sched = random_partial_schedule(cfg, rmap)
        r_scalar, r_flat = _run_both(
            partial_factory(rmap), cfg.n_processes, sched, _seeded(7))
        assert_observationally_identical(r_scalar, r_flat)


class TestFaultKnobs:
    """Duplicates exercise the overshot-pivot early return ahead of the
    dense comparison; dedup'd duplicates exercise the node-level guard.
    Parity must survive both."""

    @pytest.mark.parametrize("name", sorted(FLAT_PROTOCOLS))
    def test_duplicates_with_dedup(self, name):
        sched = random_schedule(_cfg(11))
        r_scalar, r_flat = _run_both(
            PROTOCOLS[name], 5, sched, _seeded(11),
            duplicate_prob=0.3, dedup=True)
        assert_observationally_identical(r_scalar, r_flat)

    def test_duplicates_without_dedup_dead_park_identically(self):
        # The run never quiesces (dead-parked duplicates), so compare
        # at a deadline.
        sched = random_schedule(_cfg(3))
        r_scalar, r_flat = _run_both(
            PROTOCOLS["anbkh"], 5, sched, _seeded(3),
            duplicate_prob=0.3, deadline=500.0)
        assert_observationally_identical(r_scalar, r_flat)
