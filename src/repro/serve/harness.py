"""Deployment harness: boot, drive, drain, verify -- one call.

This is the shared machinery behind ``repro-dsm serve`` /
``repro-dsm loadgen``, the serve benchmark, and the CI smoke job:

1. spawn one OS process per replica (``spawn`` context, entry points
   in :mod:`repro.serve.worker`), publish the :class:`ClusterSpec`;
2. drive load (worker subprocesses, or in-process when ``workers=1``);
3. *quiesce*: poll every node's admin plane until all applied vectors
   match the issued-write targets and every buffer is empty -- only a
   drained deployment can claim the Theorem-5 liveness property;
4. two-phase shutdown: nodes flush, sync their WAL, dump their stats,
   acknowledge, exit;
5. when recording: a recorded run is its WALs (every recorded replica
   is durable), so replay each replica's WAL into its events
   (:func:`repro.serve.merge.replay_wal`), merge each group's traces
   (:func:`~repro.serve.merge.merge_node_logs`) and run them through
   the full oracle stack (:func:`~repro.serve.conformance.verify_live_trace`),
   archive the merged trace as JSONL and optionally as a Perfetto
   trace.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.serve import codec
from repro.serve.codec import (
    FRAME_STOP,
    FRAME_STOPPED,
    ROLE_ADMIN,
    CodecError,
    VarReader,
    VarWriter,
    read_frame,
    write_frame,
)
from repro.serve.loadgen import LoadgenConfig, run_worker, summarize_workers
from repro.serve.merge import merge_node_logs, replay_wal
from repro.serve.server import STOP_QUERY, STOP_SHUTDOWN
from repro.serve.shard import ClusterSpec, parse_endpoint
from repro.serve.timebase import monotonic
from repro.serve.worker import loadgen_main, node_main

__all__ = ["ServedCluster", "drive_load", "serve_and_load", "serve_chaos"]

_READY_TIMEOUT = 30.0
_QUIESCE_TIMEOUT = 30.0
_JOIN_TIMEOUT = 10.0


async def _admin_call(endpoint: str, mode: int) -> Dict[str, Any]:
    """One admin round trip: HELLO, STOP(mode), parse STOPPED."""
    scheme, addr = parse_endpoint(endpoint)
    if scheme == "unix":
        reader, writer = await asyncio.open_unix_connection(addr)
    else:
        reader, writer = await asyncio.open_connection(*addr)
    try:
        write_frame(writer, codec.encode_hello(ROLE_ADMIN))
        stop = VarWriter()
        stop.u8(FRAME_STOP)
        stop.u8(mode)
        write_frame(writer, stop.getvalue())
        await writer.drain()
        body = await read_frame(reader)
        if body is None:
            raise ConnectionError(f"{endpoint}: closed during admin call")
        r = VarReader(body)
        if r.u8() != FRAME_STOPPED:
            raise CodecError("expected STOPPED")
        return codec.decode_value(r)
    finally:
        writer.close()


def drive_load(spec: ClusterSpec, cfg: LoadgenConfig, *,
               workers: int = 1,
               rundir: Optional[Path] = None) -> Dict[str, Any]:
    """Drive a (already running) deployment; returns the merged report.

    ``workers == 1`` runs in-process; more workers spawn one load
    process each, writing result JSON under ``rundir``.
    """
    if workers <= 1:
        results = [asyncio.run(run_worker(spec, cfg, worker_id=0))]
    else:
        if rundir is None:
            raise ValueError("multi-worker load needs a rundir")
        ctx = multiprocessing.get_context("spawn")
        spec_json = spec.to_json()
        outs = []
        procs = []
        for w in range(workers):
            out = Path(rundir) / f"loadgen-{w}.json"
            outs.append(out)
            proc = ctx.Process(
                target=loadgen_main,
                args=(spec_json, cfg.__dict__, w, str(out)),
                name=f"repro-loadgen-{w}",
            )
            proc.start()
            procs.append(proc)
        for proc in procs:
            proc.join(timeout=cfg.duration + 60.0)
            if proc.exitcode != 0:
                raise RuntimeError(
                    f"{proc.name} failed (exit {proc.exitcode})"
                )
        results = [json.loads(out.read_text()) for out in outs]
    return summarize_workers(results)


class ServedCluster:
    """A running multi-process deployment under parent control."""

    def __init__(self, spec: ClusterSpec, rundir: Path,
                 procs: List[multiprocessing.process.BaseProcess],
                 record: bool, *,
                 wal_dir: Optional[Path] = None,
                 batch_window: float = 0.0005):
        self.spec = spec
        self.rundir = rundir
        self.procs = procs
        self.record = record
        self.wal_dir = wal_dir
        self.batch_window = batch_window
        self.statuses: List[Dict[str, Any]] = []

    # -- boot ---------------------------------------------------------------

    def _spawn_node(self, group: int, node: int
                    ) -> multiprocessing.process.BaseProcess:
        ctx = multiprocessing.get_context("spawn")
        proc = ctx.Process(
            target=node_main,
            args=(self.spec.to_json(), group, node, str(self.rundir),
                  self.record, self.batch_window,
                  str(self.wal_dir) if self.wal_dir is not None else None),
            name=f"repro-serve-g{group}n{node}",
        )
        proc.start()
        return proc

    @classmethod
    def start(
        cls,
        protocol: str = "optp",
        *,
        group_size: int = 3,
        shards: int = 1,
        rundir: Path,
        record: bool = False,
        transport: str = "unix",
        port_base: int = 7400,
        batch_window: float = 0.0005,
        wal_dir: Optional[Path] = None,
    ) -> "ServedCluster":
        from repro.serve.server import SERVABLE_PROTOCOLS

        if protocol not in SERVABLE_PROTOCOLS:
            raise ValueError(
                f"protocol {protocol!r} is not servable "
                f"(supported: {', '.join(SERVABLE_PROTOCOLS)})"
            )
        rundir = Path(rundir)
        rundir.mkdir(parents=True, exist_ok=True)
        if transport == "unix":
            spec = ClusterSpec.local_uds(rundir, protocol, shards, group_size)
        elif transport == "tcp":
            spec = ClusterSpec.local_tcp(protocol, shards, group_size,
                                         port_base=port_base)
        else:
            raise ValueError(f"unknown transport {transport!r}")
        spec.save(rundir / "cluster.json")
        cluster = cls(spec, rundir, [], record,
                      wal_dir=Path(wal_dir) if wal_dir is not None else None,
                      batch_window=batch_window)
        for g in range(shards):
            for i in range(group_size):
                cluster.procs.append(cluster._spawn_node(g, i))
        try:
            cluster._wait_ready()
        except Exception:
            cluster.kill()
            raise
        return cluster

    def _wait_ready(self) -> None:
        deadline = monotonic() + _READY_TIMEOUT
        pending = [
            self.rundir / f"node-g{g}n{i}.ready"
            for g in range(self.spec.n_shards)
            for i in range(self.spec.group_size)
        ]
        import time

        while pending:
            pending = [p for p in pending if not p.exists()]
            if not pending:
                return
            for proc in self.procs:
                if proc.exitcode is not None:
                    raise RuntimeError(
                        f"replica {proc.name} died during startup "
                        f"(exit {proc.exitcode})"
                    )
            if monotonic() > deadline:
                raise TimeoutError(
                    f"replicas not ready within {_READY_TIMEOUT}s: "
                    + ", ".join(p.name for p in pending)
                )
            time.sleep(0.02)

    # -- load ---------------------------------------------------------------

    def run_load(self, cfg: LoadgenConfig, *, workers: int = 1
                 ) -> Dict[str, Any]:
        """Drive the deployment; returns the merged loadgen report."""
        return drive_load(self.spec, cfg, workers=workers,
                          rundir=self.rundir)

    # -- drain / stop -------------------------------------------------------

    def _endpoints(self) -> List[str]:
        return [
            self.spec.endpoint(g, i)
            for g in range(self.spec.n_shards)
            for i in range(self.spec.group_size)
        ]

    def quiesce(self, timeout: float = _QUIESCE_TIMEOUT) -> None:
        """Poll until every group has fully propagated every write."""
        deadline = monotonic() + timeout

        async def _poll() -> bool:
            quiet = True
            for g in range(self.spec.n_shards):
                statuses = []
                for i in range(self.spec.group_size):
                    statuses.append(
                        await _admin_call(self.spec.endpoint(g, i),
                                          STOP_QUERY)
                    )
                target = [statuses[j]["applied"][j]
                          for j in range(self.spec.group_size)]
                for status in statuses:
                    if (status["buffered"] != 0
                            or list(status["applied"]) != target):
                        quiet = False
            return quiet

        while True:
            if asyncio.run(_poll()):
                return
            if monotonic() > deadline:
                raise TimeoutError(
                    f"deployment failed to quiesce within {timeout}s"
                )
            import time

            time.sleep(0.02)

    def stop(self) -> List[Dict[str, Any]]:
        """Two-phase shutdown; returns final node statuses."""

        async def _stop_all() -> List[Dict[str, Any]]:
            out = []
            for endpoint in self._endpoints():
                out.append(await _admin_call(endpoint, STOP_SHUTDOWN))
            return out

        self.statuses = asyncio.run(_stop_all())
        for proc in self.procs:
            proc.join(timeout=_JOIN_TIMEOUT)
        self.kill()
        return self.statuses

    def kill(self) -> None:
        """Terminate whatever is still running (idempotent)."""
        for proc in self.procs:
            if proc.exitcode is None:
                proc.terminate()
                proc.join(timeout=2.0)
            if proc.exitcode is None:
                proc.kill()
                proc.join(timeout=2.0)

    # -- crash injection ----------------------------------------------------

    def kill_node(self, group: int, node: int) -> None:
        """SIGKILL one replica mid-flight: no flush, no goodbye, no
        dump -- the crash-stop model, for real."""
        proc = self.procs[group * self.spec.group_size + node]
        proc.kill()
        proc.join(timeout=_JOIN_TIMEOUT)
        (self.rundir / f"node-g{group}n{node}.ready").unlink(missing_ok=True)

    def restart_node(self, group: int, node: int) -> None:
        """Respawn a killed replica; returns once it reports ready,
        i.e. recovered from its WAL and re-linked with its peers."""
        idx = group * self.spec.group_size + node
        if self.procs[idx].exitcode is None:
            raise RuntimeError(f"replica g{group}n{node} is still running")
        self.procs[idx] = self._spawn_node(group, node)
        self._wait_ready()

    # -- verification -------------------------------------------------------

    def verify(self) -> Dict[str, Any]:
        """Replay each replica's WAL, merge each group's traces and
        replay all oracles."""
        if not self.record:
            raise RuntimeError("deployment was not recording; nothing to verify")
        # the checker is imported by the run that uses it
        from repro.serve.conformance import verify_live_trace
        from repro.sim.cluster import _resolve_factory
        from repro.sim.serialize import trace_to_jsonl

        factory = _resolve_factory(self.spec.protocol)
        wal_dir = self.wal_dir or self.rundir / "wal"
        n = self.spec.group_size
        groups = []
        ok = True
        for g in range(self.spec.n_shards):
            trace = merge_node_logs([
                replay_wal(factory, i, n, wal_dir / f"node-g{g}n{i}.wal")
                for i in range(n)])
            report = verify_live_trace(
                trace,
                protocol_name=self.spec.protocol,
                expect_optimal=self.spec.protocol == "optp",
                quiescent=True,
            )
            archive = self.rundir / f"trace-g{g}.jsonl"
            archive.write_text(trace_to_jsonl(trace))
            report["trace_path"] = str(archive)
            groups.append(report)
            ok = ok and report["ok"]
        return {"ok": ok, "groups": groups}


def serve_and_load(
    protocol: str = "optp",
    *,
    group_size: int = 3,
    shards: int = 1,
    rundir: Path,
    duration: float = 3.0,
    workers: int = 1,
    record: bool = False,
    verify: bool = False,
    transport: str = "unix",
    port_base: int = 7400,
    batch_window: float = 0.0005,
    loadgen: Optional[LoadgenConfig] = None,
    wal_dir: Optional[Path] = None,
) -> Dict[str, Any]:
    """Boot, load, drain, stop -- and verify when recording."""
    cfg = loadgen if loadgen is not None else LoadgenConfig()
    cfg.duration = duration
    cluster = ServedCluster.start(
        protocol,
        group_size=group_size,
        shards=shards,
        rundir=Path(rundir),
        record=record,
        transport=transport,
        port_base=port_base,
        batch_window=batch_window,
        wal_dir=wal_dir,
    )
    try:
        load_report = cluster.run_load(cfg, workers=workers)
        cluster.quiesce()
        statuses = cluster.stop()
    except Exception:
        cluster.kill()
        raise
    report: Dict[str, Any] = {
        "protocol": protocol,
        "group_size": group_size,
        "shards": shards,
        "nodes": group_size * shards,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "load": load_report,
        "node_stats": [s["stats"] for s in statuses],
    }
    if record and verify:
        report["conformance"] = cluster.verify()
    return report


def serve_chaos(
    protocol: str = "optp",
    *,
    group_size: int = 3,
    rundir: Path,
    duration: float = 4.0,
    kill_after: float = 1.0,
    down_time: float = 0.5,
    victim: int = 1,
    workers: int = 1,
    record: bool = True,
    verify: bool = True,
    transport: str = "unix",
    port_base: int = 7400,
    loadgen: Optional[LoadgenConfig] = None,
) -> Dict[str, Any]:
    """Kill-and-recover drill: boot a *durable* deployment, drive
    load, SIGKILL the ``victim`` replica mid-run, restart it, let it
    recover from its WAL and resync from its peers, then drain and
    (when recording) replay the merged trace through every oracle.

    The load generators run with ``reconnect=True`` so lanes pinned to
    the victim ride through the outage: failed batches are dropped,
    session vectors are kept, and the next batch re-establishes the
    session guarantees against the recovered replica.
    """
    rundir = Path(rundir)
    cfg = loadgen if loadgen is not None else LoadgenConfig()
    cfg.duration = duration
    cfg.reconnect = True
    cluster = ServedCluster.start(
        protocol,
        group_size=group_size,
        shards=1,
        rundir=rundir,
        record=record,
        transport=transport,
        port_base=port_base,
        wal_dir=rundir / "wal",
    )
    import time

    try:
        ctx = multiprocessing.get_context("spawn")
        spec_json = cluster.spec.to_json()
        outs: List[Path] = []
        lprocs = []
        for w in range(max(1, workers)):
            out = rundir / f"loadgen-{w}.json"
            outs.append(out)
            proc = ctx.Process(
                target=loadgen_main,
                args=(spec_json, cfg.__dict__, w, str(out)),
                name=f"repro-loadgen-{w}",
            )
            proc.start()
            lprocs.append(proc)
        time.sleep(kill_after)
        t_kill = monotonic()
        cluster.kill_node(0, victim)
        time.sleep(down_time)
        cluster.restart_node(0, victim)
        restart_wall = monotonic() - t_kill
        for proc in lprocs:
            proc.join(timeout=duration + 60.0)
            if proc.exitcode != 0:
                raise RuntimeError(
                    f"{proc.name} failed (exit {proc.exitcode})"
                )
        load_report = summarize_workers(
            [json.loads(out.read_text()) for out in outs]
        )
        cluster.quiesce()
        statuses = cluster.stop()
    except Exception:
        cluster.kill()
        raise
    recovered = statuses[victim]["stats"]
    report: Dict[str, Any] = {
        "protocol": protocol,
        "group_size": group_size,
        "victim": victim,
        "kill_after_s": kill_after,
        "down_time_s": down_time,
        "restart_wall_s": round(restart_wall, 4),
        "recovery_us": recovered.get("recovery_us", 0),
        "recovered": recovered.get("recovered", 0),
        "wal_records": recovered.get("wal_records", 0),
        "load": load_report,
        "node_stats": [s["stats"] for s in statuses],
    }
    if record and verify:
        report["conformance"] = cluster.verify()
    return report
