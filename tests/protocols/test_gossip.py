"""Unit + substrate tests for the gossip (anti-entropy) OptP variant."""

import pytest

from repro.analysis import check_run
from repro.core.optp import WRITE_CO_KEY
from repro.model.operations import WriteId
from repro.core.base import ControlMessage, Disposition
from repro.protocols.gossip import DIGEST_KIND, GossipOptPProtocol
from repro.sim import ConstantLatency, SeededLatency, run_schedule
from repro.workloads import (
    Schedule,
    ScheduledOp,
    WorkloadConfig,
    WriteOp,
    random_schedule,
)


def make(n=3):
    return [GossipOptPProtocol(i, n) for i in range(n)]


class TestLocalBehaviour:
    def test_write_emits_no_traffic(self):
        p = GossipOptPProtocol(0, 3)
        out = p.write("x", 1)
        assert out.outgoing == ()
        assert p.store_get("x") == (1, WriteId(0, 1))
        assert p.log[WriteId(0, 1)][0] == "x"

    def test_timer_rotates_peers(self):
        p = GossipOptPProtocol(0, 4)
        peers = []
        for _ in range(6):
            (out,) = p.on_timer()
            peers.append(out.dest)
            assert out.message.kind == DIGEST_KIND
        assert peers == [1, 2, 3, 1, 2, 3]

    def test_single_process_no_gossip(self):
        p = GossipOptPProtocol(0, 1)
        assert p.on_timer() == ()


class TestDigestExchange:
    def test_digest_answered_with_missing_writes(self):
        p0, p1, _ = make()
        p0.write("x", 1)
        p0.write("y", 2)
        digest = ControlMessage(sender=1, kind=DIGEST_KIND,
                                payload={"apply": (0, 0, 0), "batch_seq": 1})
        out = list(p0.on_control(digest))
        assert len(out) == 2
        assert {o.dest for o in out} == {1}
        assert {o.message.wid for o in out} == {WriteId(0, 1), WriteId(0, 2)}
        # messages carry the writer and its Write_co, like plain OptP
        assert all(o.message.sender == 0 for o in out)
        assert all(WRITE_CO_KEY in o.message.payload for o in out)

    def test_digest_skips_known_prefix(self):
        p0, _, _ = make()
        p0.write("x", 1)
        p0.write("x", 2)
        digest = ControlMessage(sender=2, kind=DIGEST_KIND,
                                payload={"apply": (1, 0, 0), "batch_seq": 1})
        out = list(p0.on_control(digest))
        assert [o.message.wid for o in out] == [WriteId(0, 2)]

    def test_forwards_third_party_writes(self):
        """Anti-entropy relays writes the responder merely applied."""
        p0, p1, _ = make()
        msg = None
        p1.write("z", 9)
        digest = ControlMessage(sender=0, kind=DIGEST_KIND,
                                payload={"apply": (0, 0, 0), "batch_seq": 1})
        (out,) = p1.on_control(digest)
        p0.apply_update(out.message)
        # now p0 can answer p2's digest with p1's write
        digest2 = ControlMessage(sender=2, kind=DIGEST_KIND,
                                 payload={"apply": (0, 0, 0), "batch_seq": 1})
        answers = list(p0.on_control(digest2))
        assert any(o.message.wid == WriteId(1, 1) for o in answers)

    def test_unknown_control_kind(self):
        with pytest.raises(ValueError):
            GossipOptPProtocol(0, 2).on_control(
                ControlMessage(sender=1, kind="bogus")
            )


class TestDuplicates:
    def test_duplicate_discarded(self):
        p0, p1, _ = make()
        p0.write("x", 1)
        digest = ControlMessage(sender=1, kind=DIGEST_KIND,
                                payload={"apply": (0, 0, 0), "batch_seq": 1})
        (out,) = p0.on_control(digest)
        assert p1.classify(out.message) is Disposition.APPLY
        p1.apply_update(out.message)
        assert p1.classify(out.message) is Disposition.DISCARD
        p1.discard_update(out.message)
        assert p1.stats()["duplicates"] == 1


class TestOnSubstrate:
    def test_verified_and_optimal(self):
        for seed in range(3):
            cfg = WorkloadConfig(n_processes=4, ops_per_process=10,
                                 write_fraction=0.7, seed=seed)
            r = run_schedule("gossip-optp", 4, random_schedule(cfg),
                             latency=SeededLatency(seed, dist="exponential",
                                                   mean=0.8))
            report = check_run(r)
            assert report.ok, report.summary()
            assert not report.unnecessary_delays  # optimality survives gossip

    def test_liveness_through_rounds(self):
        """A single write spreads to everyone purely via gossip."""
        sched = Schedule.of([ScheduledOp(0.0, 2, WriteOp("x", "seed"))])
        r = run_schedule("gossip-optp", 5, sched, latency=ConstantLatency(0.3))
        for k in range(5):
            assert r.trace.apply_event(k, WriteId(2, 1)) is not None
        # propagation took at least one gossip round
        assert r.duration >= GossipOptPProtocol.timer_interval

    def test_log_garbage_collected(self):
        """Stability-vector GC: after a quiesced run with ongoing gossip
        rounds, stable entries have been dropped from the logs."""
        cfg = WorkloadConfig(n_processes=4, ops_per_process=12,
                             write_fraction=0.8, seed=11)
        r = run_schedule("gossip-optp", 4, random_schedule(cfg),
                         latency=ConstantLatency(0.2))
        total_writes = r.writes_issued
        dropped = r.stat_total("gc_dropped")
        assert dropped > 0, "no GC happened despite full propagation"
        # every surviving log entry is genuinely not-yet-stable at that
        # replica's knowledge horizon; sizes must be below the total
        for stats in r.protocol_stats:
            assert stats["log_size"] < total_writes

    def test_gc_never_drops_unstable_entries(self):
        """A write a peer still misses must survive GC."""
        p0, p1, p2 = make()
        p0.write("x", 1)
        # p1 claims to have applied nothing; p2 never heard from
        digest = ControlMessage(sender=1, kind=DIGEST_KIND,
                                payload={"apply": (0, 0, 0), "batch_seq": 1})
        p0.on_control(digest)
        assert WriteId(0, 1) in p0.log  # p1 (and p2) still need it

    def test_duplicates_accounted(self):
        cfg = WorkloadConfig(n_processes=5, ops_per_process=8,
                             write_fraction=0.8, seed=7)
        r = run_schedule("gossip-optp", 5, random_schedule(cfg),
                         latency=SeededLatency(7, dist="exponential", mean=1.0))
        assert r.discards == r.stat_total("duplicates")
