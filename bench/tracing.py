"""Spans around the calls into each layer, recorded from outside.

No file under ``src/`` is touched: :func:`instrument_server` and
:func:`instrument_client` replace the public functions at each layer
boundary with wrappers, in the process that calls them, before the
server (or the load driver) starts.  A span records its name, wall start
and end, thread-CPU start and end, the span that was open in the same
task when it started (call-stack nesting), and the id of the request the
task is serving.  Spans stay in memory and are written out after
``ReplicaServer.run`` returns.

Two clocks, because they answer different questions.  Wall time places
a span in the run (only spans inside the pipelined phase are summed) and
measures waiting (``read_frame``, ``fsync``).  Thread CPU time measures
busy time: on a box with fewer cores than runnable processes a span's
wall time includes the time the process sat preempted, and a sum of wall
times can exceed the CPU the process was given.  Summed CPU self times
cannot, which is what lets them be subtracted from
``server_cpu_us_per_op`` to leave a non-negative remainder.
"""

from __future__ import annotations

import asyncio
import json
import signal
from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from contextvars import ContextVar
from pathlib import Path
from time import perf_counter_ns, thread_time_ns
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

#: The innermost open span of the current task (index into Tracer.rows).
_SPAN: ContextVar[int] = ContextVar("bench_span", default=-1)
#: Id of the request the current task is serving (set at decode_request).
_REQUEST: ContextVar[int] = ContextVar("bench_request", default=0)

REQUEST_SPAN = "serve.server.request"
#: Spans whose duration is waiting, not work.
WAIT_SPANS = ("serve.codec.read_frame",)


class Span(NamedTuple):
    name: int
    wall0: int
    wall1: int
    cpu0: int
    cpu1: int
    parent: int
    request: int


class Tracer:
    """Span and count store of one process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.rows: List[Optional[Span]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._open: Dict[int, Tuple[int, int]] = {}
        self._patched: List[Tuple[Any, str, Any]] = []
        self._request_name = self.name_id(REQUEST_SPAN)

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self.name_id(name)
        rows = self.rows

        def traced(*args, **kwargs):
            idx = len(rows)
            rows.append(None)
            parent = _SPAN.get()
            token = _SPAN.set(idx)
            w0 = perf_counter_ns()
            c0 = thread_time_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                c1 = thread_time_ns()
                w1 = perf_counter_ns()
                _SPAN.reset(token)
                rows[idx] = Span(nid, w0, w1, c0, c1, parent, _REQUEST.get())

        return traced

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        nid = self.name_id(name)
        rows = self.rows

        async def traced(*args, **kwargs):
            idx = len(rows)
            rows.append(None)
            parent = _SPAN.get()
            token = _SPAN.set(idx)
            w0 = perf_counter_ns()
            c0 = thread_time_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                c1 = thread_time_ns()
                w1 = perf_counter_ns()
                _SPAN.reset(token)
                rows[idx] = Span(nid, w0, w1, c0, c1, parent, _REQUEST.get())

        return traced

    def open_request(self) -> None:
        """Open the span of one client request: everything the task does
        until :meth:`close_request` nests under it."""
        self.counts["requests"] += 1
        _REQUEST.set(self.counts["requests"])
        idx = len(self.rows)
        self.rows.append(None)
        self._open[idx] = (perf_counter_ns(), thread_time_ns())
        _SPAN.set(idx)

    def close_request(self) -> None:
        idx = _SPAN.get()
        started = self._open.pop(idx, None)
        if started is None:
            return
        self.rows[idx] = Span(self._request_name, started[0],
                              perf_counter_ns(), started[1], thread_time_ns(),
                              -1, _REQUEST.get())
        _SPAN.set(-1)

    # -- patching -----------------------------------------------------------

    def patch(self, owner: Any, attr: str, name: str, *,
              is_async: bool = False,
              around: Optional[Callable[[Callable], Callable]] = None) -> None:
        """Replace ``owner.attr`` with its traced wrapper (``around``
        adds boundary bookkeeping outside the span)."""
        original = getattr(owner, attr)
        wrapped = (self.wrap_async if is_async else self.wrap)(name, original)
        if around is not None:
            wrapped = around(wrapped)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def dump(self, stem: Path) -> None:
        flat = array("q")
        index = {}
        for idx, row in enumerate(self.rows):
            if row is not None:
                index[idx] = len(index)
        for row in self.rows:
            if row is not None:
                flat.extend(row._replace(parent=index.get(row.parent, -1)))
        with open(f"{stem}.spans", "wb") as fh:
            flat.tofile(fh)
        Path(f"{stem}.meta.json").write_text(
            json.dumps({"names": self.names, "counts": dict(self.counts)}))


def load_spans(stem: Path) -> Tuple[List[str], Dict[str, int], List[Span]]:
    meta = json.loads(Path(f"{stem}.meta.json").read_text())
    flat = array("q")
    raw = Path(f"{stem}.spans").read_bytes()
    flat.frombytes(raw)
    width = len(Span._fields)
    spans = [Span(*flat[i:i + width]) for i in range(0, len(flat), width)]
    return meta["names"], meta["counts"], spans


# -- what gets wrapped ------------------------------------------------------

def instrument_server(tracer: Tracer) -> None:
    """Wrap the layer boundaries a replica process crosses."""
    from repro import durability
    from repro.core.optp import OptPProtocol
    from repro.durability.wal import WalWriter
    from repro.serve import codec, server
    from repro.sim.node import Node

    def opening_request(decode):
        def decode_request(data):
            tracer.open_request()
            return decode(data)
        return decode_request

    def closing_request(write):
        def write_frame(writer, body):
            write(writer, body)
            if body[0] == codec.FRAME_RESPONSE:
                tracer.close_request()
        return write_frame

    def counting_delays(receive):
        def counted(node, message):
            before = node.buffered_count
            receive(node, message)
            # Definition 3, live: this receipt left a write waiting
            if node.buffered_count > before:
                tracer.counts["write_delays"] += 1
        return counted

    tracer.patch(codec, "decode_request", "serve.codec.decode_request",
                 around=opening_request)
    tracer.patch(codec, "encode_response", "serve.codec.encode_response")
    tracer.patch(codec, "encode_message_into",
                 "serve.codec.encode_message_into")
    tracer.patch(codec, "decode_message_from",
                 "serve.codec.decode_message_from")
    # the server module holds its own references to the frame functions
    tracer.patch(server, "read_frame", "serve.codec.read_frame",
                 is_async=True)
    tracer.patch(server, "write_frame", "serve.codec.write_frame",
                 around=closing_request)
    tracer.patch(Node, "do_write", "sim.node.do_write")
    tracer.patch(Node, "do_read", "sim.node.do_read")
    tracer.patch(Node, "receive", "sim.node.receive", around=counting_delays)
    for method in ("write", "read", "missing_deps", "classify",
                   "apply_update"):
        tracer.patch(OptPProtocol, method, f"core.optp.{method}")
    tracer.patch(WalWriter, "append", "durability.wal.append")
    tracer.patch(WalWriter, "sync", "durability.wal.sync")
    for fn in ("encode_write_record", "encode_read_record",
               "encode_recv_record"):
        tracer.patch(durability, fn, "durability.wal.encode_record")
    for fn in ("snapshot_node", "encode_snapshot", "write_framed_file"):
        tracer.patch(durability, fn, f"durability.snapshot.{fn}")


def instrument_client(tracer: Tracer) -> None:
    """Wrap the load process's side of the client plane."""
    from repro.serve import codec
    from repro.serve.client import AsyncSessionClient

    def counting_request_bytes(encode):
        def encode_request(session, ops):
            body = encode(session, ops)
            tracer.counts["request_bytes"] += len(body) + 4   # + length prefix
            return body
        return encode_request

    def counting_response_bytes(decode):
        def decode_response(data):
            tracer.counts["response_bytes"] += len(data) + 4
            return decode(data)
        return decode_response

    tracer.patch(AsyncSessionClient, "batch", "serve.client.batch",
                 is_async=True)
    tracer.patch(codec, "encode_request", "serve.client.encode_request",
                 around=counting_request_bytes)
    tracer.patch(codec, "decode_response", "serve.client.decode_response",
                 around=counting_response_bytes)


def traced_node_main(spec_json: str, group: int, node_id: int, rundir: str,
                     record: bool, batch_window: float,
                     wal_dir: "str | None" = None) -> None:
    """Spawn-safe replica entry point: ``repro.serve.worker.node_main``
    with the layer boundaries wrapped before the server is built."""
    from repro.serve.server import ReplicaServer
    from repro.serve.shard import ClusterSpec

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    tracer = Tracer()
    instrument_server(tracer)
    root = Path(rundir)
    server = ReplicaServer(
        ClusterSpec.from_json(spec_json), group, node_id,
        record=record, rundir=root,
        wal_dir=Path(wal_dir) if wal_dir is not None else None,
        batch_window=batch_window,
    )
    asyncio.run(server.run(
        ready_path=root / f"node-g{group}n{node_id}.ready"))
    tracer.dump(root / f"trace-n{node_id}")


# -- arithmetic -------------------------------------------------------------

class LayerTime(NamedTuple):
    count: int
    self_cpu_ns: int    #: CPU duration minus the children's CPU duration
    wall_ns: int        #: summed wall duration (children included)


def self_times(names: List[str], spans: List[Span],
               window: Optional[Tuple[int, int]] = None
               ) -> Dict[str, LayerTime]:
    """Per span name: count, CPU self time and wall time of the spans
    that lie inside ``window`` (wall ns; None = all).

    Self time = duration - the part covered by child spans.  A request
    span is different: the task serving it may be suspended (a read
    waiting in ``_await_session``) while other tasks run on the same
    thread, so only the gaps between its children in which no other
    task started a span count as its own work; the rest is left to
    ``unaccounted``."""
    def inside(s: Span) -> bool:
        return window is None or (window[0] <= s.wall0 and s.wall1 <= window[1])

    child_cpu = [0] * len(spans)
    children: Dict[int, List[Span]] = defaultdict(list)
    request_id = names.index(REQUEST_SPAN) if REQUEST_SPAN in names else -1
    roots = []
    for s in spans:
        parent = spans[s.parent] if s.parent >= 0 else None
        # A timer callback inherits the context of the span that armed
        # it and runs after that span closed: it is nobody's child.
        if parent is None or s.cpu0 < parent.cpu0 or s.cpu1 > parent.cpu1:
            roots.append(s.cpu0)
            continue
        child_cpu[s.parent] += s.cpu1 - s.cpu0
        if parent.name == request_id:
            children[s.parent].append(s)
    roots.sort()

    totals: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
    for idx, s in enumerate(spans):
        if not inside(s):
            continue
        if s.name == request_id:
            own = 0
            edge = s.cpu0
            for child in sorted(children[idx], key=lambda c: c.cpu0):
                own += _clean_gap(roots, edge, child.cpu0)
                edge = child.cpu1
            own += _clean_gap(roots, edge, s.cpu1)
        else:
            own = (s.cpu1 - s.cpu0) - child_cpu[idx]
        total = totals[names[s.name]]
        total[0] += 1
        total[1] += own
        total[2] += s.wall1 - s.wall0
    return {name: LayerTime(*t) for name, t in totals.items()}


def _clean_gap(roots: List[int], start: int, end: int) -> int:
    """``end - start`` when no other task opened a span in between."""
    if bisect_right(roots, start) != bisect_left(roots, end):
        return 0
    return end - start


def snapshot_walls(names: List[str], spans: List[Span]) -> List[int]:
    """Wall ns of each snapshot, in order: from ``snapshot_node`` to the
    end of the ``write_framed_file`` that follows it (that interval also
    covers re-encoding ``_sent`` and the WAL sync)."""
    try:
        first = names.index("durability.snapshot.snapshot_node")
        last = names.index("durability.snapshot.write_framed_file")
    except ValueError:
        return []
    out = []
    start = None
    for s in sorted(spans, key=lambda s: s.wall0):
        if s.name == first:
            start = s.wall0
        elif s.name == last and start is not None:
            out.append(s.wall1 - start)
            start = None
    return out
