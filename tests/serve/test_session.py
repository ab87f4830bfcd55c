"""Session-guarantee and fault tests against in-process replica groups.

All servers share one event loop (no subprocess spawning), which keeps
these tests fast while exercising the full wire path: real UDS
sockets, real frames, real peer broadcast links.
"""

import asyncio

import pytest

from repro.core.base import BOTTOM
from repro.serve.client import AsyncSessionClient
from repro.serve.server import ReplicaServer, STOP_SHUTDOWN
from repro.serve.shard import ClusterSpec


class Group:
    """N in-process replica servers on the current loop."""

    def __init__(self, tmp_path, protocol="optp", n=3, shards=1,
                 record=False):
        self.spec = ClusterSpec.local_uds(tmp_path, protocol, shards, n)
        self.servers = [
            ReplicaServer(self.spec, g, i, record=record, rundir=tmp_path)
            for g in range(shards)
            for i in range(n)
        ]
        self.tasks = []

    async def __aenter__(self):
        # run() gates its ready signal on peer links; poll each
        # server's link count instead of touching real ready files.
        self.tasks = [
            asyncio.ensure_future(server.run()) for server in self.servers
        ]
        for server in self.servers:
            while len(server._links) < server.n - 1 or server._server is None:
                boom = [t for t in self.tasks if t.done() and t.exception()]
                if boom:
                    raise boom[0].exception()
                await asyncio.sleep(0.005)
        return self

    async def __aexit__(self, *exc):
        for server in self.servers:
            server._stop.set()
        await asyncio.gather(*self.tasks, return_exceptions=True)

    async def stop_gracefully(self):
        """Admin-plane shutdown (flush + dump) for recorded runs."""
        from repro.serve.harness import _admin_call

        for g in range(self.spec.n_shards):
            for i in range(self.spec.group_size):
                await _admin_call(self.spec.endpoint(g, i), STOP_SHUTDOWN)
        await asyncio.gather(*self.tasks, return_exceptions=True)


def run(coro):
    return asyncio.run(coro)


class TestSessionGuarantees:
    def test_read_your_writes_same_replica(self, tmp_path):
        async def go():
            async with Group(tmp_path) as group:
                client = AsyncSessionClient(group.spec)
                seq = await client.put("x", "hello")
                assert seq == 1
                assert await client.get("x") == "hello"
                await client.close()

        run(go())

    def test_read_your_writes_across_replicas(self, tmp_path):
        """A session that writes via replica 0 and reads via replica 1
        must see its own write (the read wa its on the session vector)."""

        async def go():
            async with Group(tmp_path) as group:
                writer = AsyncSessionClient(group.spec, replica=0)
                for i in range(5):
                    await writer.put("x", f"v{i}")
                # hand the session vector to a client on another replica
                reader = AsyncSessionClient(group.spec, replica=1)
                reader.sessions = [list(s) for s in writer.sessions]
                assert await reader.get("x") == "v4"
                await writer.close()
                await reader.close()

        run(go())

    def test_monotonic_reads_across_replicas(self, tmp_path):
        """Once a session has seen a state, moving replicas can never
        show it an older one."""

        async def go():
            async with Group(tmp_path) as group:
                writer = AsyncSessionClient(group.spec, replica=0)
                await writer.put("x", "new")
                reader = AsyncSessionClient(group.spec, replica=2)
                reader.sessions = [list(s) for s in writer.sessions]
                seen = await reader.get("x")
                assert seen == "new"
                # switch replica mid-session: still >= what it saw
                reader2 = AsyncSessionClient(group.spec, replica=1)
                reader2.sessions = [list(s) for s in reader.sessions]
                assert await reader2.get("x") == "new"
                for c in (writer, reader, reader2):
                    await c.close()

        run(go())

    def test_unwritten_variable_reads_bottom(self, tmp_path):
        async def go():
            async with Group(tmp_path) as group:
                client = AsyncSessionClient(group.spec)
                assert await client.get("never-written") is BOTTOM
                await client.close()

        run(go())

    def test_sharded_puts_route_by_key(self, tmp_path):
        async def go():
            async with Group(tmp_path, n=2, shards=2) as group:
                client = AsyncSessionClient(group.spec)
                keys = [f"k{i}" for i in range(8)]
                for key in keys:
                    await client.put(key, key.upper())
                for key in keys:
                    assert await client.get(key) == key.upper()
                # both shards must have taken writes
                writes = [s.stats["writes"] for s in group.servers]
                assert sum(1 for w in writes if w) >= 2
                await client.close()

        run(go())


class TestPeerLinks:
    def test_one_connection_per_replica_pair(self, tmp_path):
        """Three replicas hold three peer connections, each end an
        ``_Inbound`` that is its replica's link to the other."""
        async def go():
            async with Group(tmp_path) as group:
                ends = [(server.node_id, conn.peer)
                        for server in group.servers
                        for conn in server._inbound if conn.peer is not None]
                assert sorted(ends) == [(i, j) for i in range(3)
                                        for j in range(3) if i != j]
                for server in group.servers:
                    assert {dest: link.transport
                            for dest, link in server._links.items()} == {
                        conn.peer: conn.transport
                        for conn in server._inbound if conn.peer is not None}
                assert [s.stats["peer_dials"] for s in group.servers] == [
                    0, 1, 2]

        run(go())


class TestClientDeath:
    def test_server_survives_client_abort_mid_session(self, tmp_path):
        """Kill a client with pipelined requests in flight: the server
        must survive, and a new session must still be monotonic."""

        async def go():
            async with Group(tmp_path) as group:
                doomed = AsyncSessionClient(group.spec)
                for i in range(10):
                    await doomed.put("x", f"v{i}")
                # leave requests in flight, then yank the transport
                conn = await doomed._conn(0)
                pending = [
                    asyncio.ensure_future(
                        conn.request(tuple(doomed.sessions[0]),
                                     [(1, "x", f"dead{i}")]))
                    for i in range(4)
                ]
                await asyncio.sleep(0)  # let frames hit the socket
                doomed.abort()
                results = await asyncio.gather(*pending,
                                               return_exceptions=True)
                assert any(isinstance(r, Exception) for r in results)

                # the replica group is still fully alive; use a fresh
                # key -- the doomed session's writes to "x" are
                # *concurrent* with this session, so x's final value
                # is legitimately either's
                fresh = AsyncSessionClient(group.spec, replica=1)
                seq = await fresh.put("y", "after-crash")
                assert seq >= 1
                assert await fresh.get("y") == "after-crash"
                x_now = await fresh.get("x")
                valid = {f"v{i}" for i in range(10)} | {
                    f"dead{i}" for i in range(4)}
                assert x_now in valid
                # session vector only ever grows (monotonic sessions)
                before = [list(s) for s in fresh.sessions]
                await fresh.get("y")
                after = fresh.sessions
                for g in range(len(before)):
                    for j in range(len(before[g])):
                        assert after[g][j] >= before[g][j]
                await fresh.close()
                # every server task still running
                assert all(not t.done() for t in group.tasks)
                aborts = sum(s.stats["client_aborts"]
                             for s in group.servers)
                assert aborts >= 1

        run(go())

    def test_concurrent_sessions_isolated(self, tmp_path):
        """One session's abort must not fail another's in-flight ops."""

        async def go():
            async with Group(tmp_path) as group:
                a = AsyncSessionClient(group.spec, replica=0)
                b = AsyncSessionClient(group.spec, replica=0)
                await a.put("x", 1)
                await b.put("y", 2)
                a.abort()
                assert await b.get("y") == 2
                await b.close()

        run(go())
