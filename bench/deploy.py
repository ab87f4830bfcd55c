"""One benchmark deployment: three replica processes and the load
process's two client connections, driven phase by phase.

The harness calls (:meth:`ServedCluster.quiesce`, ``stop``) run their
own event loop, so the load side keeps one private loop alive and steps
it with ``run_until_complete`` between them.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.serve import codec
from repro.serve.client import AsyncSessionClient
from repro.serve.codec import OP_READ
from repro.serve.harness import ServedCluster
from repro.serve.server import STOP_QUERY
from repro.serve.shard import parse_endpoint

from bench import load
from bench.workloads import Frame, Plan, Workload

VICTIM = 1   #: the replica kv-durable kills and restarts


class TracedCluster(ServedCluster):
    """A deployment whose replicas run the benchmark's traced entry
    point (:func:`bench.tracing.traced_node_main`) instead of
    ``repro.serve.worker.node_main``."""

    def _spawn_node(self, group: int, node: int):
        from bench.tracing import traced_node_main

        proc = multiprocessing.get_context("spawn").Process(
            target=traced_node_main,
            args=(self.spec.to_json(), group, node, str(self.rundir),
                  self.record, self.batch_window,
                  str(self.wal_dir) if self.wal_dir is not None else None),
            name=f"bench-traced-g{group}n{node}",
        )
        proc.start()
        return proc


async def admin_query(endpoint: str) -> Dict[str, Any]:
    """One STOP_QUERY round trip on the admin plane: the replica's
    ``applied`` vector, buffer depth and counters, while it keeps
    serving."""
    _, addr = parse_endpoint(endpoint)
    reader, writer = await asyncio.open_unix_connection(addr)
    try:
        for body in ((codec.FRAME_HELLO, codec.ROLE_ADMIN, 0),
                     (codec.FRAME_STOP, STOP_QUERY)):
            codec.write_frame(writer, bytes(body))
        await writer.drain()
        answer = await codec.read_frame(reader)
        if answer is None or answer[0] != codec.FRAME_STOPPED:
            raise ConnectionError(f"{endpoint}: no STOPPED answer")
        return codec.decode_value(codec.VarReader(answer, 1))
    finally:
        writer.close()


def cpu_seconds(pids: List[int]) -> float:
    """User + system CPU the processes have used so far.

    Read from each process's POSIX CPU-time clock (what
    ``clock_getcpuclockid(3)`` returns: ``~pid << 3 | CPUCLOCK_SCHED``).
    It is the quantity ``utime + stime`` of ``/proc/<pid>/stat`` counts,
    in nanoseconds and not in 10 ms ticks: a 0.2 s segment holds too few
    ticks, and tick-rounded values repeat exactly between runs."""
    return sum(time.clock_gettime_ns((~pid << 3) | 2) for pid in pids) / 1e9


def steal_ticks() -> int:
    """Ticks the hypervisor took from this guest so far (/proc/stat)."""
    return int(Path("/proc/stat").read_text().split("\n", 1)[0].split()[8])


def rss_bytes(pid: int) -> int:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) * 1024
    return 0


def reap_children() -> None:
    """Leave no process behind: kill and join whatever replica is still
    alive, then stop multiprocessing's resource tracker and wait for it.

    The "spawn" start method starts the tracker as a child of this
    process, and nothing in the standard library waits for it: it ends on
    its own once this process is gone, and where nobody reaps orphans it
    stays in the process table as a zombie, which a later run could be
    mistaken to be served by."""
    for proc in multiprocessing.active_children():   # joins the finished
        proc.kill()
        proc.join()
    tracker = resource_tracker._resource_tracker
    fd, pid = getattr(tracker, "_fd", None), getattr(tracker, "_pid", None)
    if fd is not None:
        tracker._fd = None
        os.close(fd)             # EOF on its pipe is what ends the tracker
    if pid is not None:
        tracker._pid = None
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


class Deployment:
    """Boot, preload, run phases, check, stop."""

    def __init__(self, wl: Workload, plan: Plan, rundir: Path, *,
                 record: bool = False, traced: bool = False) -> None:
        self.wl = wl
        self.plan = plan
        self.rundir = rundir
        self.record = record
        self.traced = traced
        self.loop = asyncio.new_event_loop()
        self.cluster: Optional[ServedCluster] = None
        self.clients: List[AsyncSessionClient] = []
        self.checkers = [load.Checker() for _ in range(wl.lanes)]
        self.timings: Dict[str, float] = {}

    # -- lifecycle ----------------------------------------------------------

    def setup(self) -> float:
        """Boot, connect, preload every key, quiesce: the time to the
        first measurable op."""
        t0 = time.perf_counter()
        cls = TracedCluster if self.traced else ServedCluster
        self.cluster = cls.start(
            "optp", group_size=3, shards=1, rundir=self.rundir,
            record=self.record,
            wal_dir=self.rundir / "wal" if self.wl.durable else None)
        self.timings["boot_s"] = time.perf_counter() - t0
        self.loop.run_until_complete(self._connect())
        self.run_lanes(self.plan.preload)
        self.cluster.quiesce()
        self.timings["setup_s"] = time.perf_counter() - t0
        return self.timings["setup_s"]

    async def _connect(self) -> None:
        spec = self.cluster.spec
        self.clients = [await AsyncSessionClient(spec, replica=r).connect()
                        for r in range(2)]
        if self.wl.hop:
            # one logical session: both clients fold into, and send,
            # the same vector
            self.clients[1].sessions = self.clients[0].sessions

    def close_clients(self) -> None:
        clients, self.clients = self.clients, []
        for client in clients:
            self.loop.run_until_complete(client.close())

    def stop(self) -> List[Dict[str, Any]]:
        """Two-phase shutdown; returns the replicas' final statuses."""
        self.close_clients()
        t0 = time.perf_counter()
        statuses = self.cluster.stop()
        self.timings["stop_s"] = time.perf_counter() - t0
        return statuses

    def abort(self) -> None:
        """Stop every process whatever state the run is in."""
        try:
            self.close_clients()
        except Exception:   # the loop may hold half-dead connections
            pass
        if self.cluster is not None:
            self.cluster.kill()
        self.loop.close()

    # -- phases -------------------------------------------------------------

    def run_lanes(self, lanes: List[List[Frame]], latencies=None) -> float:
        return self.loop.run_until_complete(
            load.run_lanes(self.clients, lanes, self.checkers, latencies))

    def quiesce(self) -> None:
        t0 = time.perf_counter()
        self.cluster.quiesce()
        self.timings["quiesce_s"] = time.perf_counter() - t0

    def pids(self) -> List[int]:
        return [proc.pid for proc in self.cluster.procs]

    def statuses(self) -> List[Dict[str, Any]]:
        spec = self.cluster.spec

        async def _all():
            return [await admin_query(spec.endpoint(0, i)) for i in range(3)]

        return self.loop.run_until_complete(_all())

    def crash_and_recover(self) -> Dict[str, float]:
        """SIGKILL the victim, restart it, wait for it to catch up, and
        check it still covers every write acknowledged before the kill.

        This is a process crash, not a power loss: the OS page cache
        survives, so unsynced WAL bytes survive too."""
        self.close_clients()
        t_kill = time.perf_counter()
        self.cluster.kill_node(0, VICTIM)
        self.cluster.restart_node(0, VICTIM)
        t_ready = time.perf_counter()
        self.cluster.quiesce()
        t_quiet = time.perf_counter()
        status = self.statuses()[VICTIM]
        applied = list(status["applied"])
        if any(have < want for have, want in zip(applied, self.plan.writes_at)):
            self.checkers[0].fail(
                f"restarted replica {VICTIM} applied {applied}, "
                f"acknowledged before the kill {self.plan.writes_at}")
        return {
            "recovery_ms": status["stats"]["recovery_us"] / 1e3,
            "restart_wall_s": t_ready - t_kill,
            "resync_s": t_quiet - t_ready,
        }

    def check_convergence(self) -> None:
        """After quiesce every replica returns, for every key, exactly
        the last value written to it."""
        spec = self.cluster.spec
        keys = sorted(self.plan.final)
        frame_ops = [(OP_READ, k, None) for k in keys]

        async def _read_all(replica: int) -> List[Any]:
            client = await AsyncSessionClient(spec, replica=replica).connect()
            try:
                results = await asyncio.wait_for(
                    client.batch(frame_ops, group=0), load.REPLY_TIMEOUT)
            finally:
                await client.close()
            return [value for _, value in results]

        checker = self.checkers[0]
        for replica in range(3):
            got = self.loop.run_until_complete(_read_all(replica))
            checker.attempted += len(keys)
            for k, value in zip(keys, got):
                if value != self.plan.final[k]:
                    checker.fail(f"replica {replica} {k}: {value!r}, "
                                 f"expected {self.plan.final[k]!r}")

    def verify_recording(self) -> None:
        """Replay the recorded deployment through every oracle;
        exact-zero or the run fails."""
        report = self.cluster.verify()
        for group in report["groups"]:
            for gate in ("checker_problems", "invariant_findings",
                         "unnecessary_delays"):
                if group[gate]:
                    self.checkers[0].fail(f"recorded run {gate}: {group[gate]}")
        if not report["ok"]:
            self.checkers[0].fail("recorded run failed ServedCluster.verify()")

    @property
    def attempted(self) -> int:
        return sum(c.attempted for c in self.checkers)

    @property
    def failed(self) -> int:
        return sum(c.failed for c in self.checkers)

