"""Serve-layer crash drill: SIGKILL a replica mid-load, restart it,
and require the recovered deployment to pass every conformance oracle.

This is the end-to-end acceptance test for the durability path: the
victim's WAL + snapshot must rebuild its exact pre-crash state, the
WELCOME handshake must pull the missed update suffix from its peers,
and the merged trace -- spanning the outage -- must replay through the
causal-consistency checker with exact-zero violations.  Rate-limited
like the other serve tests (the conformance checker's vectorized
legality pass is quadratic in trace length).
"""

import shutil
from pathlib import Path

import pytest

from repro.serve.harness import ServedCluster, serve_chaos
from repro.serve.loadgen import LoadgenConfig

CHAOS_LOAD = LoadgenConfig(batch=8, pipeline=2, keys=8, rate=300.0)


class TestServeChaos:
    def test_kill_and_recover_with_conformance(self, tmp_path):
        report = serve_chaos(
            "optp", group_size=3, rundir=tmp_path,
            duration=3.0, kill_after=1.0, down_time=0.4, victim=1,
            workers=1, record=True, verify=True,
            loadgen=CHAOS_LOAD,
        )
        # the victim really died and really recovered from its rundir
        assert report["recovered"] == 1
        assert report["recovery_us"] > 0
        assert report["wal_records"] > 0
        # load rode through the outage (reconnect lanes)
        assert report["load"]["ops"] > 0
        # and the recorded history is causally consistent, exact-zero
        conf = report["conformance"]
        assert conf["ok"], conf
        (group_report,) = conf["groups"]
        assert group_report["checker_problems"] == []
        assert group_report["invariant_findings"] == []
        # durable artifacts landed where recovery will look for them
        assert (tmp_path / "wal" / "node-g0n1.wal").exists()

    def test_restart_requires_dead_process(self, tmp_path):
        cluster = ServedCluster.start(
            "optp", group_size=2, shards=1, rundir=tmp_path,
            record=False, wal_dir=tmp_path / "wal",
        )
        try:
            with pytest.raises(RuntimeError, match="still running"):
                cluster.restart_node(0, 0)
        finally:
            cluster.kill()


class TestInProcessRecovery:
    """Deterministic single-replica recovery, no subprocesses: drive a
    durable ReplicaServer, snapshot mid-stream, rebuild from the same
    wal_dir, and require byte-identical protocol state."""

    def _server(self, tmp_path, group_size=1, **kwargs):
        from repro.serve.server import ReplicaServer
        from repro.serve.shard import ClusterSpec

        spec = ClusterSpec.local_uds(tmp_path, "optp",
                                     n_shards=1, group_size=group_size)
        return ReplicaServer(spec, 0, 0, rundir=tmp_path, record=False,
                             wal_dir=tmp_path / "wal", **kwargs)

    def test_snapshot_plus_tail_replay(self, tmp_path):
        first = self._server(tmp_path, snapshot_every=4)
        for i in range(11):
            body = first._dur.encode_write_record(
                first._now(), f"k{i % 3}", f"v{i}")
            first._wal_append(body)
            first.node.do_write(f"k{i % 3}", f"v{i}")
            first._maybe_snapshot()
        first._wal.sync()
        first._wal.close()
        assert first.stats["snapshots"] == 2
        before = first.node.protocol.debug_state()

        second = self._server(tmp_path, snapshot_every=4)
        assert second.stats["recovered"] == 1
        assert second.stats["recovery_us"] > 0
        assert second.node.protocol.debug_state() == before
        assert second._sent == first._sent
        assert all(type(body) is bytes for body in second._sent)
        # recovery re-derives own-progress from the replayed protocol
        # (the test drove the node directly, bypassing the client path
        # that normally keeps ``applied`` current)
        assert second.applied[0] == second.node.protocol.writes_issued == 11

    def test_recovers_files_written_before_canonical_bodies(self, tmp_path):
        """Cross-version replay: a snapshot + WAL written by PR 12's
        server (``fixtures/pr12/make_fixture.py``: receipts journaled by
        re-encoding, ``seen`` a sorted id list with a gap, one buffered
        message) recover to the state that commit recovered itself."""
        from repro.durability import decode_snapshot, snapshot_node

        fixture = Path(__file__).parents[1] / "durability/fixtures/pr12"
        (tmp_path / "wal").mkdir()
        for name in ("node-g0n0.wal", "node-g0n0.snap"):
            shutil.copy(fixture / name, tmp_path / "wal" / name)
        expected = decode_snapshot((fixture / "expected.bin").read_bytes())

        server = self._server(tmp_path, group_size=3, snapshot_every=9)
        assert server.stats["recovered"] == 1
        assert server.applied == expected["applied"] == [4, 4, 2]
        assert server._sent == expected["sent"]
        node = snapshot_node(server.node)
        assert server.node._seen_updates == set(expected["node"].pop("seen"))
        assert node.pop("seen") == [(1, 4, ()), (2, 2, ())]
        assert node == expected["node"]
        server._wal.close()

    def test_recovers_files_written_by_frame_journaling(self, tmp_path):
        """A snapshot + WAL written with one record per inbound frame
        (``fixtures/pr30/make_fixture.py``: peer batches, a request split
        by a park into two runs, the snapshot taken while it was parked
        and an update was buffered) recover to the state pinned when the
        files were made."""
        from repro import durability as dur

        fixture = Path(__file__).parents[1] / "durability/fixtures/pr30"
        (tmp_path / "wal").mkdir()
        for name in ("node-g0n0.wal", "node-g0n0.snap"):
            shutil.copy(fixture / name, tmp_path / "wal" / name)
        records = [dur.decode_record(body) for body in
                   dur.read_wal(fixture / "node-g0n0.wal").bodies]
        runs = [rec[2] for rec in records if rec[0] == dur.KIND_OPS]
        assert {rec[0] for rec in records} == {dur.KIND_OPS, dur.KIND_BATCH}
        assert [(0, "p1k1", None), (1, "a", "a1")] in runs  # the resumed run
        expected = dur.decode_snapshot(
            (fixture / "expected.bin").read_bytes())

        server = self._server(tmp_path, group_size=3, snapshot_every=7)
        assert server.stats["recovered"] == 1
        assert server.applied == expected["applied"] == [3, 4, 2]
        assert server._sent == expected["sent"]
        assert dur.snapshot_node(server.node) == expected["node"]
        server._wal.close()

    def test_fresh_wal_dir_means_no_recovery(self, tmp_path):
        server = self._server(tmp_path)
        assert server.stats["recovered"] == 0
        assert (tmp_path / "wal").is_dir()

    def test_status_reports_wal_counters(self, tmp_path):
        server = self._server(tmp_path)
        server._wal_append(
            server._dur.encode_read_record(server._now(), "x"))
        server._wal.sync()
        stats = server._status()["stats"]
        assert stats["wal_records"] == 1
        assert stats["wal_fsyncs"] >= 1
        assert stats["wal_bytes"] > 0
