"""Multi-process deployment harness: one real end-to-end cycle.

This is the same path CI's serve-smoke job and the serve benchmark
drive: spawn replica processes, load, quiesce, two-phase shutdown,
merge the logs, replay the oracles.  Kept short (rate-limited,
sub-second) because it boots real OS processes.
"""

import asyncio
import json

import pytest

from repro.serve.harness import ServedCluster, _admin_call, serve_and_load
from repro.serve.loadgen import LoadgenConfig, summarize_workers


class TestServeAndLoad:
    def test_full_cycle_with_conformance(self, tmp_path):
        report = serve_and_load(
            "optp", group_size=3, shards=1, rundir=tmp_path,
            duration=0.8, workers=1, record=True, verify=True,
            loadgen=LoadgenConfig(batch=8, pipeline=2, keys=8, rate=300.0),
        )
        load = report["load"]
        assert load["ops"] > 0
        assert load["ops_per_sec"] > 0
        assert load["read_p99_ms"] is not None
        conf = report["conformance"]
        assert conf["ok"], conf
        (group_report,) = conf["groups"]
        assert group_report["checker_problems"] == []
        assert group_report["invariant_findings"] == []
        # node logs + merged trace + stats landed in the rundir
        assert (tmp_path / "cluster.json").exists()
        assert (tmp_path / "trace-g0.jsonl").exists()
        for i in range(3):
            assert (tmp_path / f"node-g0n{i}.log.jsonl").exists()
            stats = json.loads(
                (tmp_path / f"node-g0n{i}.stats.json").read_text())
            assert "stats" in stats and "applied" in stats

    def test_unservable_protocol_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="serv"):
            serve_and_load("sequencer", rundir=tmp_path, duration=0.1)


class TestPeerLinks:
    def test_one_dial_per_replica_pair(self, tmp_path):
        """The higher id of each pair dials the lower one: a 3-replica
        boot makes 3 peer connections, and a restarted replica is dialed
        again by the one above it and dials the one below."""
        cluster = ServedCluster.start("optp", group_size=3, rundir=tmp_path,
                                      wal_dir=tmp_path / "wal")

        def dials():
            async def query():
                return [await _admin_call(cluster.spec.endpoint(0, i), 0)
                        for i in range(3)]
            return [s["stats"]["peer_dials"] for s in asyncio.run(query())]

        try:
            assert dials() == [0, 1, 2]
            cluster.kill_node(0, 1)
            cluster.restart_node(0, 1)
            assert dials() == [0, 1, 3]
        finally:
            cluster.kill()


class TestSummarizeWorkers:
    def test_merges_and_feeds_obs_registry(self):
        from repro.obs.metrics import MetricsRegistry

        results = [
            {"worker": 0, "ops": 10, "batches": 2, "elapsed": 1.0,
             "reads": 8, "writes": 2,
             "read_samples_ms": [1.0, 2.0], "write_samples_ms": [3.0]},
            {"worker": 1, "ops": 20, "batches": 4, "elapsed": 2.0,
             "reads": 16, "writes": 4,
             "read_samples_ms": [4.0], "write_samples_ms": [5.0, 6.0]},
        ]
        reg = MetricsRegistry()
        out = summarize_workers(results, registry=reg)
        assert out["ops"] == 30
        assert out["elapsed"] == 2.0
        assert out["ops_per_sec"] == 15.0
        assert out["read_p50_ms"] == 2.0
        assert out["write_p99_ms"] == 6.0
        # the same numbers are exportable through the obs registry
        assert reg.histogram("serve.read_latency_ms").count == 3
