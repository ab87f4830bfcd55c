"""The benchmark's own closed-loop load driver.

One process, one event loop, two client connections.  Each lane keeps
exactly one REQUEST frame in flight (closed loop: the next frame is sent
when the previous answer has been checked).  Built on the public
:class:`repro.serve.AsyncSessionClient`; ``repro.serve.loadgen`` stamps
every op with its batch's latency and runs for a duration, and this
benchmark needs per-op latency and fixed op counts.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Sequence

from repro.serve.client import AsyncSessionClient
from repro.serve.codec import OP_READ, OP_WRITE, CodecError

from bench.workloads import Frame

#: An op with no reply for this long has failed, and the run with it.
REPLY_TIMEOUT = 10.0


class Checker:
    """Checks every answer of one session as it arrives."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_failures: List[str] = []
        #: last value seen per key this session does not own
        self._seen: Dict[str, str] = {}

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.first_failures) < 5:
            self.first_failures.append(what)

    def check(self, frame: Frame, results: Sequence) -> None:
        self.attempted += len(frame.ops)
        if len(results) != len(frame.ops):
            self.fail(f"{len(results)} results for {len(frame.ops)} ops",
                      len(frame.ops))
            return
        seen = self._seen
        for (kind, key, _), want, (rkind, got) in zip(frame.ops, frame.expect,
                                                      results):
            if kind != rkind:
                self.fail(f"{key}: result kind {rkind} for op kind {kind}")
            elif kind == OP_WRITE:
                continue
            elif want is not None:
                # a key this session owns: exactly its last write
                if got != want:
                    self.fail(f"{key}: read {got!r}, last write {want!r}")
            else:
                # another writer's key: versions never go backwards
                prev = seen.get(key)
                if type(got) is not str or (prev is not None and got < prev):
                    self.fail(f"{key}: read {got!r} after {prev!r}")
                else:
                    seen[key] = got


async def run_lane(clients: Sequence[AsyncSessionClient], frames: List[Frame],
                   checker: Checker,
                   latencies: Optional[Dict[int, List[float]]] = None) -> None:
    """Send ``frames`` one at a time.  With ``latencies`` every
    single-op frame is timed on its own, by kind."""
    clock = time.perf_counter
    for frame in frames:
        client = clients[frame.replica]
        t0 = clock()
        try:
            results = await client.batch(frame.ops, group=0)
        except (CodecError, OSError) as exc:  # refusal or lost connection
            checker.attempted += len(frame.ops)
            checker.fail(f"replica {frame.replica}: {exc!r}", len(frame.ops))
            raise
        dt = clock() - t0
        checker.check(frame, results)
        if latencies is not None and len(frame.ops) == 1:
            latencies[frame.ops[0][0]].append(dt)


async def run_lanes(clients: Sequence[AsyncSessionClient],
                    lanes: List[List[Frame]], checkers: List[Checker],
                    latencies: Optional[Dict[int, List[float]]] = None
                    ) -> float:
    """Run the lanes concurrently; returns the wall seconds it took.

    A watchdog replaces per-op timeouts (which would cost a timer per
    op): when no lane has made progress for REPLY_TIMEOUT the frames in
    flight are counted as failed and the run is abandoned."""
    t0 = time.perf_counter()
    tasks = [asyncio.ensure_future(run_lane(clients, frames, checker,
                                            latencies))
             for frames, checker in zip(lanes, checkers)]
    try:
        progress = -1
        pending = set(tasks)
        while pending:
            _, pending = await asyncio.wait(pending, timeout=REPLY_TIMEOUT)
            now = sum(c.attempted for c in checkers)
            if pending and now == progress:
                for checker in checkers:
                    checker.fail(f"no reply in {REPLY_TIMEOUT:.0f} s")
                raise TimeoutError(f"no reply in {REPLY_TIMEOUT:.0f} s")
            progress = now
        for task in tasks:
            task.result()
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
    return time.perf_counter() - t0


class HostProbe:
    """How fast is the box right now, compared with its usual self?

    The benchmark runs on a shared virtual machine whose speed drifts by
    +-15 % over minutes (neighbours on the same cache and memory bus; the
    guest sees no steal for it).  Every CPU-bound metric drifts with it,
    far more than any bound could absorb.  So each phase interleaves short
    bursts of a fixed computation that belongs to the benchmark, not to
    the program: a strided walk over a 25 MB heap of small objects, which
    is cache- and memory-bound like an interpreter serving requests.
    One burst at a time, each after a stretch of served load: a second
    burst right behind the first finds the heap cached and runs 1.4x
    faster.
    ``speed()`` is the reference burst time over the measured one, and
    the end-to-end metrics are reported at reference speed (README, "Host
    speed").  Only the faster half of the bursts counts, as everywhere.
    """

    #: Burst time on the box the op counts were frozen on, in its
    #: usual state.  A constant: it only fixes where "speed 1.0" lies.
    REFERENCE_SECONDS = 0.0039

    def __init__(self) -> None:
        self._cells = [str(i) for i in range(400_000)]
        self.bursts: List[float] = []

    def burst(self) -> None:
        cells = self._cells
        total = 0
        t0 = time.perf_counter()
        for i in range(0, len(cells), 7):
            total += len(cells[i])
        self.bursts.append(time.perf_counter() - t0)

    def speed(self) -> float:
        """Speed over the bursts since the last call (1.0 = reference)."""
        bursts, self.bursts = sorted(self.bursts), []
        fast = bursts[:max(1, len(bursts) // 2)]
        return self.REFERENCE_SECONDS / (sum(fast) / len(fast))


def new_latencies() -> Dict[int, List[float]]:
    return {OP_READ: [], OP_WRITE: []}


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]
