"""Live run -> replayed WALs -> merged trace -> full oracle replay.

A recorded run is its WALs: every replica journals each input frame
with the time it served it, and :func:`replay_wal` rebuilds that
replica's events from the journal.  The claims here: what the replay
rebuilds is what the clients were answered (same reads, same write
sequence numbers, in order), a crash and restart loses none of the
victim's earlier events even after it snapshotted, and the merged trace
passes the same checkers that verify simulator runs (causal legality,
OptP safety/liveness/optimality, mck invariants).
"""

import asyncio

import pytest

from repro.analysis import check_run
from repro.protocols import PROTOCOLS
from repro.serve.client import AsyncSessionClient
from repro.serve.conformance import verify_live_trace
from repro.serve.merge import merge_node_logs, replay_wal
from repro.serve.server import SERVABLE_PROTOCOLS, ReplicaServer
from repro.sim.trace import EventKind

from .test_session import Group


async def _drive(group, ops=40, keys=4):
    """A deterministic little workload with cross-replica sessions; one
    client per replica.  Returns what each replica's client was answered,
    in order: ``("w", seq)`` per write ack, ``("r", value)`` per read."""
    n = group.spec.group_size
    clients = [AsyncSessionClient(group.spec, replica=i) for i in range(n)]
    seen = [[] for _ in range(n)]
    for i in range(ops):
        replica = i % n
        client = clients[replica]
        key = f"k{i % keys}"
        if i % 3 == 0:
            seen[replica].append(("w", await client.put(key, f"val{i}")))
        else:
            seen[replica].append(("r", await client.get(key)))
    for client in clients:
        await client.close()
    return seen


async def _quiesce(group, rounds=200):
    """Wait until every replica applied every write and buffers none."""
    for _ in range(rounds):
        applied = [tuple(s.applied) for s in group.servers]
        target = tuple(applied[j][j] for j in range(len(applied)))
        if all(a == target for a in applied) and all(
                s.node.buffered_count == 0 for s in group.servers):
            return
        await asyncio.sleep(0.01)
    raise AssertionError(f"group never quiesced: {applied}")


def _replayed(tmp_path, protocol, n=3):
    return [replay_wal(PROTOCOLS[protocol], i, n,
                       tmp_path / "wal" / f"node-g0n{i}.wal")
            for i in range(n)]


def _recorded_run(tmp_path, protocol):
    """Drive a recorded group to quiescence and stop it; return what the
    clients were answered and each replica's replayed trace."""
    async def go():
        async with Group(tmp_path, protocol=protocol, record=True) as group:
            seen = await _drive(group)
            await _quiesce(group)
            await group.stop_gracefully()
        return seen

    seen = asyncio.run(go())
    return seen, _replayed(tmp_path, protocol)


def _merged_trace_after_run(tmp_path, protocol):
    return merge_node_logs(_recorded_run(tmp_path, protocol)[1])


def _answers(trace, p):
    """What replica ``p``'s events say its clients were answered."""
    out = []
    for ev in trace.process_events(p):
        if ev.kind is EventKind.WRITE:
            out.append(("w", ev.wid.seq))
        elif ev.kind is EventKind.RETURN:
            out.append(("r", ev.value))
    return out


@pytest.mark.parametrize("protocol", sorted(SERVABLE_PROTOCOLS))
class TestLiveConformance:
    def test_live_trace_passes_all_oracles(self, tmp_path, protocol):
        trace = _merged_trace_after_run(tmp_path, protocol)
        report = verify_live_trace(
            trace,
            protocol_name=protocol,
            expect_optimal=protocol == "optp",
            quiescent=True,
        )
        assert report["checker_problems"] == []
        assert report["invariant_findings"] == []
        if protocol == "optp":   # Theorem 4; ANBKH may delay needlessly
            assert report["unnecessary_delays"] == 0
        assert report["ok"], report
        assert report["writes"] > 0 and report["reads"] > 0

    def test_live_trace_jsonl_roundtrip(self, tmp_path, protocol):
        """The merged trace serializes and replays byte-identically
        through the existing JSONL pipeline (what `repro-dsm replay`
        consumes)."""
        from repro.sim.serialize import trace_from_jsonl, trace_to_jsonl

        trace = _merged_trace_after_run(tmp_path, protocol)
        text = trace_to_jsonl(trace)
        back = trace_from_jsonl(text)
        assert trace_to_jsonl(back) == text
        assert len(back.events) == len(trace.events)

    def test_replay_rebuilds_what_clients_were_answered(self, tmp_path,
                                                        protocol):
        """Every read result a client received is, in order, the RETURN
        event the replica's replayed WAL rebuilds, and every write ack's
        sequence number is its replayed WRITE event's ``wid.seq``."""
        seen, traces = _recorded_run(tmp_path, protocol)
        for p, trace in enumerate(traces):
            assert seen[p], p
            assert _answers(trace, p) == seen[p], p


class TestCrashAndRestart:
    def test_merged_trace_keeps_the_victims_events_from_before_the_kill(
            self, tmp_path):
        """Replica 1 snapshots, is killed (no stop, no flush of its
        links) and restarted from its WAL directory; the replay of its
        whole WAL still rebuilds every answer it gave before the kill,
        and the merged run passes every oracle."""
        victim = 1

        async def crash(group):
            server, task = group.servers[victim], group.tasks[victim]
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            for redial in server._redials:
                redial.cancel()
            server._server.close()
            for conn in list(server._inbound):
                conn.transport.abort()
            server._wal.close()

        async def restart(group):
            server = ReplicaServer(group.spec, 0, victim, record=True,
                                   rundir=tmp_path)
            group.servers[victim] = server
            task = group.tasks[victim] = asyncio.ensure_future(server.run())
            for _ in range(1000):
                if len(server._links) == server.n - 1 or task.done():
                    break
                await asyncio.sleep(0.005)
            assert len(server._links) == server.n - 1, "never linked up"
            return server

        async def go():
            async with Group(tmp_path, record=True) as group:
                group.servers[victim].snapshot_every = 4
                before = await _drive(group, ops=30)
                snapshots = group.servers[victim].stats["snapshots"]
                await crash(group)
                restarted = await restart(group)
                after = await _drive(group, ops=12)
                await _quiesce(group)
                await group.stop_gracefully()
            return before, snapshots, restarted.stats["recovered"], after

        before, snapshots, recovered, after = asyncio.run(go())
        assert snapshots > 0 and recovered == 1
        traces = _replayed(tmp_path, "optp")
        answers = _answers(traces[victim], victim)
        assert answers == before[victim] + after[victim]
        trace = merge_node_logs(traces)
        assert _answers(trace, victim) == answers
        report = verify_live_trace(trace, protocol_name="optp",
                                   expect_optimal=True, quiescent=True)
        assert report["checker_problems"] == []
        assert report["invariant_findings"] == []
        assert report["unnecessary_delays"] == 0
        assert report["ok"], report


class TestVerifyLiveTrace:
    def test_checker_agrees_with_direct_check_run(self, tmp_path):
        """verify_live_trace's RunResult scaffolding must not change
        the checker verdict vs. calling check_run by hand."""
        trace = _merged_trace_after_run(tmp_path, "optp")
        from repro.sim.result import RunResult

        result = RunResult(
            protocol_name="optp",
            n_processes=trace.n_processes,
            trace=trace,
            duration=trace.events[-1].time if trace.events else 0.0,
            messages_sent=0,
            bytes_estimate=0,
            stores=[{} for _ in range(trace.n_processes)],
            protocol_stats=[{} for _ in range(trace.n_processes)],
        )
        direct = check_run(result)
        assert bool(direct.legality)
        assert not direct.safety_violations
