"""Isolated single-process ceilings: what each layer could do alone.

Every ceiling runs one layer in this process, with no sockets between
replicas and no other process competing, on the ops the workload's own
plan generated.  They are per-layer metrics (no bound): a ceiling close
to the served ``ops_per_s`` names the layer that limits it.
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro import durability
from repro.core.base import BROADCAST
from repro.protocols import PROTOCOLS
from repro.serve import codec
from repro.serve.codec import OP_WRITE
from repro.sim.node import Node
from repro.sim.trace import NullTrace

from bench.workloads import Frame, Plan

_FRAMES = 1500       #: frames of the plan each ceiling consumes at most
_ECHO_FRAMES = 4000
_WAL_RECORDS = 40_000


def _sample(plan: Plan) -> List[Frame]:
    frames: List[Frame] = []
    for lanes in plan.segments:
        for lane in lanes:
            frames += lane
            if len(frames) >= _FRAMES:
                return frames[:_FRAMES]
    return frames


def _rate(count: int, started: float) -> float:
    return count / (time.perf_counter() - started)


def request_codec(frames: List[Frame]) -> Dict[str, float]:
    """Client-plane codec only: encode and decode every request, then
    every response (reads answered with the value the plan expects)."""
    session = (7, 7, 7)
    results = [[(kind, 1 if kind == OP_WRITE else (want or "x" * 64))
                for (kind, _, _), want in zip(f.ops, f.expect)]
               for f in frames]
    ops = nbytes = 0
    t0 = time.perf_counter()
    for frame, result in zip(frames, results):
        body = codec.encode_request(session, frame.ops)
        codec.decode_request(body)
        answer = codec.encode_response(session, result)
        codec.decode_response(answer)
        ops += len(frame.ops)
        nbytes += len(body) + len(answer)
    elapsed = time.perf_counter() - t0
    return {"serve.codec.ceiling_request_ops_per_s": ops / elapsed,
            "serve.codec.ceiling_mb_per_s": 2 * nbytes / elapsed / 1e6}


def _cluster(sent: list) -> List[Node]:
    """Three in-process OptP nodes wired directly to each other; every
    message dispatched is also appended to ``sent``."""
    nodes: List[Node] = []

    def dispatch(sender, outgoing):
        for out in outgoing:
            sent.append(out.message)
            for dest, node in enumerate(nodes):
                if dest != sender and out.dest in (BROADCAST, dest):
                    node.receive(out.message)

    for i in range(3):
        nodes.append(Node(PROTOCOLS["optp"](i, 3), NullTrace(3),
                          clock=lambda: 0.0, dispatch=dispatch, dedup=True))
    return nodes


def node_ops(frames: List[Frame], sent: list) -> float:
    """Protocol only: the ops applied to three in-process nodes, every
    write received and applied by the two others, no sockets."""
    nodes = _cluster(sent)
    ops = 0
    t0 = time.perf_counter()
    for frame in frames:
        node = nodes[frame.replica]
        for kind, variable, val in frame.ops:
            if kind == OP_WRITE:
                node.do_write(variable, val)
            else:
                node.do_read(variable)
        ops += len(frame.ops)
    return _rate(ops, t0)


def message_codec(messages: list) -> float:
    """Peer-plane codec only: each update encoded for the wire (interned,
    as a live link does) and decoded again."""
    enc, dec = codec.InternEncoder(), codec.InternDecoder()
    t0 = time.perf_counter()
    for message in messages:
        w = codec.VarWriter()
        codec.encode_message_into(w, message, enc)
        codec.decode_message_from(codec.VarReader(w.getvalue()), dec)
    return _rate(len(messages), t0)


def echo_frames(rundir: Path, body: bytes) -> float:
    """``read_frame``/``write_frame`` over a unix socket echo, one frame
    in flight, no protocol: the floor under every round trip."""
    path = str(rundir / "echo.sock")

    async def _run() -> float:
        served = asyncio.Event()

        async def _serve(reader, writer):
            while (frame := await codec.read_frame(reader)) is not None:
                codec.write_frame(writer, frame)
            writer.close()
            served.set()

        server = await asyncio.start_unix_server(_serve, path=path)
        reader, writer = await asyncio.open_unix_connection(path)
        t0 = time.perf_counter()
        for _ in range(_ECHO_FRAMES):
            codec.write_frame(writer, body)
            await codec.read_frame(reader)
        rate = _rate(_ECHO_FRAMES, t0)
        writer.close()
        await served.wait()
        server.close()
        await server.wait_closed()
        return rate

    return asyncio.run(_run())


def wal_append(rundir: Path, frames: List[Frame], fsync_every: int) -> float:
    """Encode and append one record per op; ``fsync_every=0`` never
    syncs, the server's default 256 does."""
    ops = [op for f in frames for op in f.ops]
    path = rundir / f"ceiling-{fsync_every}.wal"
    writer = durability.WalWriter(str(path), fsync_every=fsync_every)
    t0 = time.perf_counter()
    for i in range(_WAL_RECORDS):
        kind, variable, val = ops[i % len(ops)]
        if kind == OP_WRITE:
            writer.append(durability.encode_write_record(0.0, variable, val))
        else:
            writer.append(durability.encode_read_record(0.0, variable))
    if fsync_every:
        writer.sync()
    rate = _rate(_WAL_RECORDS, t0)
    writer.close()
    path.unlink()
    return rate


def replay(wal_path: Path, node_id: int) -> float:
    """``read_wal`` + ``rebuild_node`` from an empty state over the whole
    WAL a kv-durable replica left behind."""
    t0 = time.perf_counter()
    result = durability.read_wal(str(wal_path))
    durability.rebuild_node(PROTOCOLS["optp"], node_id, 3, None,
                            result.bodies, dedup=True)
    return _rate(len(result.bodies), t0)


def run_all(plan: Plan, rundir: Path,
            wal_path: Optional[Path]) -> Dict[str, float]:
    frames = _sample(plan)
    messages: list = []
    out = request_codec(frames)
    out["sim.node.ceiling_ops_per_s"] = node_ops(frames, messages)
    out["serve.codec.ceiling_message_msgs_per_s"] = message_codec(messages)
    out["serve.codec.ceiling_echo_frames_per_s"] = echo_frames(
        rundir, codec.encode_request((7, 7, 7), frames[0].ops))
    out["durability.wal.ceiling_append_records_per_s"] = wal_append(
        rundir, frames, 0)
    out["durability.wal.ceiling_append_fsync_records_per_s"] = wal_append(
        rundir, frames, 256)
    out["durability.recovery.ceiling_replay_records_per_s"] = (
        replay(wal_path, 2) if wal_path is not None else 0.0)
    return out
