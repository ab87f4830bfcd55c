"""Protocol contract tests: invariants every registered protocol obeys.

Run against everything in ``repro.protocols.PROTOCOLS``, so adding a
protocol to the registry automatically subjects it to the battery:
wid allocation, classify purity, read-your-writes, store hygiene, and
full-substrate verification on a canonical workload.
"""

import copy

import pytest

from repro.analysis import check_run
from repro.model.operations import BOTTOM, WriteId
from repro.protocols import PROTOCOLS
from repro.core.base import Disposition, UpdateMessage
from repro.sim import SeededLatency, run_schedule
from repro.workloads import WorkloadConfig, random_schedule

ALL = sorted(PROTOCOLS)


@pytest.fixture(params=ALL)
def proto_name(request):
    return request.param


def make(proto_name, i=1, n=3):
    return PROTOCOLS[proto_name](i, n)


class TestConstruction:
    def test_name_matches_registry_key(self, proto_name):
        p = make(proto_name)
        assert p.name == proto_name

    def test_rejects_bad_process_ids(self, proto_name):
        cls = PROTOCOLS[proto_name]
        with pytest.raises(ValueError):
            cls(3, 3)
        with pytest.raises(ValueError):
            cls(-1, 3)

    def test_single_process_works(self, proto_name):
        p = PROTOCOLS[proto_name](0, 1)
        p.bootstrap()
        p.write("x", 1)
        assert p.read("x").value == 1


class TestWriteContract:
    def test_wids_are_consecutive(self, proto_name):
        p = make(proto_name)
        wids = [p.write("x", k).wid for k in range(5)]
        assert wids == [WriteId(1, s) for s in range(1, 6)]

    def test_read_your_writes(self, proto_name):
        """Every protocol lets a process observe its own latest write
        (directly or via forwarding)."""
        p = make(proto_name)
        p.write("x", "mine")
        out = p.read("x")
        assert out.value == "mine"
        assert out.read_from == WriteId(1, 1)

    def test_unwritten_reads_bottom(self, proto_name):
        p = make(proto_name)
        assert p.read("zzz").value is BOTTOM
        assert p.read("zzz").read_from is None

    def test_writes_issued_counter(self, proto_name):
        p = make(proto_name)
        p.write("a", 1)
        p.write("b", 2)
        assert p.writes_issued == 2


class TestClassifyPurity:
    def test_classify_is_side_effect_free(self, proto_name):
        """classify() is called repeatedly on buffered messages; it must
        not mutate protocol state (compared via debug_state + store)."""
        sender = make(proto_name, i=0)
        receiver = make(proto_name, i=1)
        outcome = sender.write("x", 1)
        updates = [
            o.message for o in outcome.outgoing
            if isinstance(o.message, UpdateMessage)
        ]
        if not updates:
            pytest.skip("protocol does not emit update messages")
        msg = updates[0]
        before_state = copy.deepcopy(receiver.debug_state())
        before_store = receiver.store_snapshot()
        d1 = receiver.classify(msg)
        d2 = receiver.classify(msg)
        assert d1 == d2
        assert receiver.debug_state() == before_state
        assert receiver.store_snapshot() == before_store

    def test_apply_after_classify_apply(self, proto_name):
        sender = make(proto_name, i=0)
        receiver = make(proto_name, i=1)
        outcome = sender.write("x", 99)
        updates = [
            o.message for o in outcome.outgoing
            if isinstance(o.message, UpdateMessage)
        ]
        if not updates:
            pytest.skip("protocol does not emit update messages")
        msg = updates[0]
        if receiver.classify(msg) is Disposition.APPLY:
            receiver.apply_update(msg)
            assert receiver.store_get("x") == (99, WriteId(0, 1))


class TestEndToEnd:
    def test_canonical_workload_verified(self, proto_name):
        cfg = WorkloadConfig(n_processes=4, ops_per_process=12,
                             write_fraction=0.6, seed=77)
        r = run_schedule(proto_name, 4, random_schedule(cfg),
                         latency=SeededLatency(77, dist="exponential",
                                               mean=1.5))
        report = check_run(r)
        assert report.ok, report.summary()

    def test_in_class_p_flag_matches_liveness(self, proto_name):
        """Protocols claiming class-𝒫 membership must apply every write
        at every process; WS variants must account for the shortfall."""
        cfg = WorkloadConfig(n_processes=3, ops_per_process=10,
                             write_fraction=0.9, n_variables=2, seed=5)
        r = run_schedule(proto_name, 3, random_schedule(cfg),
                         latency=SeededLatency(5))
        if r.in_class_p:
            for wid in r.trace.writes_issued():
                for k in range(3):
                    assert r.trace.apply_event(k, wid) is not None
        else:
            missing = r.stat_total("skipped") + r.stat_total("suppressed") * 2
            assert r.remote_applies + missing >= r.writes_issued * 2

    def test_deterministic_replay(self, proto_name):
        cfg = WorkloadConfig(n_processes=3, ops_per_process=8, seed=8)
        sched = random_schedule(cfg)
        runs = [
            run_schedule(proto_name, 3, sched, latency=SeededLatency(8))
            for _ in range(2)
        ]
        assert ([str(e) for e in runs[0].trace.events]
                == [str(e) for e in runs[1].trace.events])
