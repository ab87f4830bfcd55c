"""Client library: sharded, pipelined, session-consistent access.

A :class:`SessionClient` owns one connection per replica group (to a
configurable replica affinity) and one *session vector* per group --
``session[j]`` = the highest write-sequence of group-node j this
session has observed.  The guarantees, in the classic Terry et al.
vocabulary:

- **read-your-writes**: a write's response carries the server's
  applied vector including that write; it is folded into the session
  vector, so any later read (even via another replica) waits until the
  serving replica has applied it.
- **monotonic reads**: every response's progress vector is folded in
  the same way, so a session can never observe a replica state older
  than one it has already seen.

Both hold across a hop between replicas; **writes-follow-reads** and
**monotonic writes** do not.  A write never waits on the session
vector, and the new replica's write carries only that replica's causal
past, not what the client saw elsewhere (ROADMAP item 2).  Causal
consistency *across* sessions is the protocol's job (OptP applies
remote writes only after their causal past), with the replica as the
process, and it holds per shard group only: groups never exchange
messages, so a dependency a client carries from one group to another
is not kept (ROADMAP item 12).

Ops are pipelined: :meth:`SessionClient.batch` ships one REQUEST frame
with many ops and multiple frames may be in flight per connection
(responses return in order).  The sync facade wraps its own event
loop per call -- use :class:`AsyncSessionClient` directly inside a
running loop (the load generator does).
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.serve import codec
from repro.serve.codec import (
    OP_READ,
    OP_WRITE,
    ROLE_CLIENT,
    CodecError,
    write_frame,
)
from repro.serve.shard import ClusterSpec, parse_endpoint

__all__ = ["AsyncSessionClient", "SessionClient"]


class _GroupConn(asyncio.BufferedProtocol):
    """One pipelined connection into one replica group.

    RESPONSE frames are parsed out of one reused receive buffer as they
    arrive, and each resolves the oldest request in flight: the server
    answers in request order, so no request id is needed."""

    def __init__(self, group: int, replica: int) -> None:
        self.group = group
        self.replica = replica
        self.transport: Optional[asyncio.Transport] = None
        self.frames = codec.FrameBuffer()
        #: response futures in request order (frame-level pipelining).
        self.inflight: "deque[asyncio.Future]" = deque()

    async def connect(self, endpoint: str) -> None:
        loop = asyncio.get_running_loop()
        scheme, addr = parse_endpoint(endpoint)
        if scheme == "unix":
            await loop.create_unix_connection(lambda: self, addr)
        else:
            await loop.create_connection(lambda: self, *addr)
        write_frame(self.transport, codec.encode_hello(ROLE_CLIENT))

    def connection_made(self, transport) -> None:
        self.transport = transport

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.frames.writable()

    def buffer_updated(self, nbytes: int) -> None:
        frames = self.frames
        frames.wrote(nbytes)
        try:
            while (body := frames.next_frame()) is not None:
                response = codec.decode_response(body)
                if not self.inflight:
                    raise CodecError("a RESPONSE with no request in flight")
                fut = self.inflight.popleft()
                if not fut.done():
                    fut.set_result(response)
        except CodecError as exc:
            self._fail(exc)
            self.transport.abort()

    def connection_lost(self, exc) -> None:
        self._fail(ConnectionError("server closed the connection"))

    def _fail(self, exc: Exception) -> None:
        inflight = self.inflight
        while inflight:
            fut = inflight.popleft()
            if not fut.done():
                fut.set_exception(exc)

    async def request(self, session: Tuple[int, ...],
                      ops: List[Tuple[int, Any, Any]]):
        if self.transport.is_closing():
            raise ConnectionError("connection closed")
        fut = asyncio.get_running_loop().create_future()
        self.inflight.append(fut)
        write_frame(self.transport, codec.encode_request(session, ops))
        return await fut

    async def close(self) -> None:
        self.transport.close()

    def abort(self) -> None:
        """Tear the transport down without goodbye (tests: mid-session
        client death)."""
        self.transport.abort()
        self._fail(ConnectionError("session aborted"))


class AsyncSessionClient:
    """The asyncio client; one instance = one session."""

    def __init__(self, spec: ClusterSpec, *, replica: int = 0):
        if not 0 <= replica < spec.group_size:
            raise ValueError(f"replica {replica} out of range")
        self.spec = spec
        self.replica = replica
        #: per-group session vectors (see module docstring).
        self.sessions: List[List[int]] = [
            [0] * spec.group_size for _ in range(spec.n_shards)
        ]
        self._conns: List[Optional[_GroupConn]] = [None] * spec.n_shards

    async def connect(self) -> "AsyncSessionClient":
        for group in range(self.spec.n_shards):
            await self._conn(group)
        return self

    async def _conn(self, group: int) -> _GroupConn:
        conn = self._conns[group]
        if conn is None:
            conn = _GroupConn(group, self.replica)
            await conn.connect(self.spec.endpoint(group, self.replica))
            self._conns[group] = conn
        return conn

    def _merge(self, group: int, progress: Sequence[int]) -> None:
        session = self.sessions[group]
        for j, seen in enumerate(progress):
            if seen > session[j]:
                session[j] = seen

    # -- operations ---------------------------------------------------------

    async def put(self, variable: Hashable, value: Any) -> int:
        """Write; returns the issued write's sequence number."""
        (result,) = await self.batch([(OP_WRITE, variable, value)],
                                     group=self.spec.group_for(variable))
        return result[1]

    async def get(self, variable: Hashable) -> Any:
        """Session-consistent read (BOTTOM when never written)."""
        (result,) = await self.batch([(OP_READ, variable, None)],
                                     group=self.spec.group_for(variable))
        return result[1]

    async def batch(self, ops: List[Tuple[int, Any, Any]],
                    *, group: int) -> List[Tuple[int, Any]]:
        """Ship one REQUEST frame of ops against one group."""
        conn = await self._conn(group)
        progress, results = await conn.request(tuple(self.sessions[group]),
                                               ops)
        self._merge(group, progress)
        return results

    def split_ops(self, ops: List[Tuple[int, Any, Any]]
                  ) -> Dict[int, List[Tuple[int, Any, Any]]]:
        """Group a mixed op list by owning shard (helper for callers
        that batch across the key space)."""
        grouped: Dict[int, List[Tuple[int, Any, Any]]] = {}
        for op in ops:
            grouped.setdefault(self.spec.group_for(op[1]), []).append(op)
        return grouped

    async def close(self) -> None:
        for conn in self._conns:
            if conn is not None:
                await conn.close()

    async def reset(self) -> None:
        """Drop every connection but keep the session vectors; each
        group re-dials lazily on next use.  This is how a load
        generator rides through a replica kill/restart: the preserved
        session vector makes the recovered replica prove it has caught
        up before serving this session's reads."""
        conns, self._conns = self._conns, [None] * self.spec.n_shards
        for conn in conns:
            if conn is not None:
                await conn.close()

    def abort(self) -> None:
        for conn in self._conns:
            if conn is not None:
                conn.abort()


class SessionClient:
    """Blocking facade over :class:`AsyncSessionClient` for scripts and
    doc examples; runs a private event loop."""

    def __init__(self, spec: ClusterSpec, *, replica: int = 0):
        self._loop = asyncio.new_event_loop()
        self._client = AsyncSessionClient(spec, replica=replica)
        self._loop.run_until_complete(self._client.connect())

    def put(self, variable: Hashable, value: Any) -> int:
        return self._loop.run_until_complete(self._client.put(variable, value))

    def get(self, variable: Hashable) -> Any:
        return self._loop.run_until_complete(self._client.get(variable))

    def close(self) -> None:
        self._loop.run_until_complete(self._client.close())
        self._loop.close()

    def __enter__(self) -> "SessionClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
