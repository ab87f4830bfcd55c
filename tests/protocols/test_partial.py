"""Tests for partially replicated causal DSM (the [14] setting)."""

import pytest

from repro.analysis import check_run
from repro.model.operations import BOTTOM, WriteId
from repro.core.base import Disposition
from repro.protocols.partial import (
    PartialReplicationProtocol,
    ReplicationMap,
    partial_factory,
)
from repro.sim import ConstantLatency, SeededLatency, run_schedule
from repro.workloads import WorkloadConfig
from repro.workloads.generators import random_partial_schedule


class TestReplicationMap:
    def test_round_robin(self):
        rmap = ReplicationMap.round_robin(["a", "b", "c"], 4, 2)
        assert rmap.holders("a") == {0, 1}
        assert rmap.holders("b") == {1, 2}
        assert rmap.holders("c") == {2, 3}
        assert rmap.held_by(1) == {"a", "b"}

    def test_full(self):
        rmap = ReplicationMap.full(["a"], 3)
        assert rmap.holders("a") == {0, 1, 2}

    def test_validation(self):
        with pytest.raises(ValueError, match="no replicas"):
            ReplicationMap({"a": []}, 3)
        with pytest.raises(ValueError, match="out of range"):
            ReplicationMap({"a": [5]}, 3)
        with pytest.raises(ValueError):
            ReplicationMap.round_robin(["a"], 3, 0)
        with pytest.raises(KeyError, match="not in the replication map"):
            ReplicationMap({"a": [0]}, 2).holders("zzz")


class TestAccessControl:
    def test_write_to_unheld_rejected(self):
        rmap = ReplicationMap({"x": [0], "y": [1]}, 2)
        p1 = PartialReplicationProtocol(1, 2, rmap)
        with pytest.raises(PermissionError, match="cannot write"):
            p1.write("x", 1)

    def test_read_of_unheld_rejected(self):
        rmap = ReplicationMap({"x": [0]}, 2)
        p1 = PartialReplicationProtocol(1, 2, rmap)
        with pytest.raises(PermissionError, match="cannot read"):
            p1.read("x")

    def test_wrong_cluster_size_rejected(self):
        rmap = ReplicationMap({"x": [0]}, 2)
        with pytest.raises(ValueError, match="different cluster"):
            PartialReplicationProtocol(0, 3, rmap)


class TestMulticast:
    def test_write_goes_to_holders_only(self):
        rmap = ReplicationMap({"x": [0, 2]}, 4)
        p0 = PartialReplicationProtocol(0, 4, rmap)
        out = p0.write("x", 1)
        assert [o.dest for o in out.outgoing] == [2]
        assert p0.stats()["unreplicated"] == 2   # p1 and p3 never get it
        assert p0.missing_applies() == 2


class TestTransitiveDependencyThroughUnheldVariable:
    """The crux: w(x) ->co w(y) ->co w(z) with a replica holding
    {x, z} but not y must still order x before z."""

    def _setup(self):
        rmap = ReplicationMap({"x": [0, 2], "y": [0, 1], "z": [1, 2]}, 3)
        p0 = PartialReplicationProtocol(0, 3, rmap)
        p1 = PartialReplicationProtocol(1, 3, rmap)
        p2 = PartialReplicationProtocol(2, 3, rmap)
        # p0: w(x)a ; r(x) ; w(y)b          (a ->co b)
        out_a = p0.write("x", "a")
        p0.read("x")
        out_b = p0.write("y", "b")
        msg_a = out_a.outgoing[0].message   # -> p2
        msg_b = out_b.outgoing[0].message   # -> p1
        # p1: applies b, reads it, writes z  (b ->co c)
        assert p1.classify(msg_b) is Disposition.APPLY
        p1.apply_update(msg_b)
        p1.read("y")
        out_c = p1.write("z", "c")
        (to_p2,) = out_c.outgoing
        assert to_p2.dest == 2
        return msg_a, to_p2.message, p2

    def test_z_waits_for_x_at_holder_of_both(self):
        msg_a, msg_c, p2 = self._setup()
        # c arrives first: must buffer although p2 never sees y
        assert p2.classify(msg_c) is Disposition.BUFFER
        p2.apply_update(msg_a)
        assert p2.classify(msg_c) is Disposition.APPLY
        p2.apply_update(msg_c)
        assert p2.store_get("z") == ("c", WriteId(1, 1))

    def test_in_order_applies_without_delay(self):
        msg_a, msg_c, p2 = self._setup()
        assert p2.classify(msg_a) is Disposition.APPLY
        p2.apply_update(msg_a)
        assert p2.classify(msg_c) is Disposition.APPLY


class TestOnSubstrate:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_verified_across_replication_factors(self, k):
        n, m = 5, 6
        variables = [f"x{i}" for i in range(m)]
        rmap = ReplicationMap.round_robin(variables, n, k)
        for seed in range(2):
            cfg = WorkloadConfig(n_processes=n, ops_per_process=10,
                                 n_variables=m, write_fraction=0.7, seed=seed)
            sched = random_partial_schedule(cfg, rmap)
            r = run_schedule(partial_factory(rmap), n, sched,
                             latency=SeededLatency(seed, dist="exponential",
                                                   mean=2.0))
            report = check_run(r)
            assert report.ok, (k, seed, report.summary())

    def test_traffic_scales_with_replication_factor(self):
        n, m = 5, 5
        variables = [f"x{i}" for i in range(m)]
        msgs = {}
        for k in (2, 5):
            rmap = ReplicationMap.round_robin(variables, n, k)
            cfg = WorkloadConfig(n_processes=n, ops_per_process=10,
                                 write_fraction=1.0, seed=4)
            sched = random_partial_schedule(cfg, rmap)
            r = run_schedule(partial_factory(rmap), n, sched,
                             latency=ConstantLatency(1.0))
            assert check_run(r).ok
            msgs[k] = r.messages_sent
        assert msgs[2] < msgs[5]

    def test_full_map_matches_class_p_liveness(self):
        """k = n degenerates to full replication: every write applied
        everywhere."""
        n = 3
        variables = ["x0", "x1"]
        rmap = ReplicationMap.full(variables, n)
        cfg = WorkloadConfig(n_processes=n, ops_per_process=8,
                             n_variables=2, write_fraction=0.8, seed=6)
        sched = random_partial_schedule(cfg, rmap)
        r = run_schedule(partial_factory(rmap), n, sched,
                         latency=SeededLatency(6))
        for wid in r.trace.writes_issued():
            for p in range(n):
                assert r.trace.apply_event(p, wid) is not None

    def test_no_unnecessary_delays(self):
        """The projected optimality: delays only for missing *held*
        predecessors."""
        n, m = 4, 4
        variables = [f"x{i}" for i in range(m)]
        rmap = ReplicationMap.round_robin(variables, n, 2)
        for seed in range(3):
            cfg = WorkloadConfig(n_processes=n, ops_per_process=12,
                                 write_fraction=0.8, seed=seed)
            sched = random_partial_schedule(cfg, rmap)
            r = run_schedule(partial_factory(rmap), n, sched,
                             latency=SeededLatency(seed, dist="exponential",
                                                   mean=2.0))
            report = check_run(r)
            assert report.ok
            assert not report.unnecessary_delays, report.summary()
