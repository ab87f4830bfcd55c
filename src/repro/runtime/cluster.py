"""asyncio-based cluster: the paper's system model on real concurrency.

:class:`AsyncCluster` is a :class:`~repro.sim.cluster.SimCluster` whose
engine is the running event loop: the same network, message shipping,
program interpreter and timer stagger, with every scheduled callback a
``loop.call_at`` at its (scaled) wall-clock time instead of an entry in
a simulated queue.  A run is :meth:`AsyncCluster.start`, operations on
the nodes, and :meth:`AsyncCluster.close`, which awaits the simulator's
quiescence test and freezes the result.
:meth:`~AsyncCluster.run_programs` runs the simulator's program
interpreter between the two;
:class:`~repro.runtime.interactive.CausalKV` hands the nodes to
application code instead.  Because everything
runs on one event loop thread, each protocol procedure executes
atomically -- exactly the paper's atomicity assumption -- while message
interleavings come from a live loop.

Simulation-time latencies are scaled by ``time_scale`` wall seconds per
simulated unit (default 5 ms), so tests stay fast.  Trace timestamps
are reported back in simulated units for comparability with
:mod:`repro.sim` runs; exact values differ run to run (that is the
point), so assertions should target *properties* (safety, legality,
liveness), not timings -- which is what
:func:`repro.analysis.checker.check_run` does.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.sim.cluster import ProtocolFactory, SimCluster
from repro.sim.latency import LatencyModel
from repro.sim.node import expected_applies
from repro.sim.result import RunResult
from repro.workloads.ops import Program


class ClusterQuiesceError(TimeoutError):
    """The cluster failed to drain within ``quiesce_timeout``.

    Like :class:`repro.sim.engine.EngineLimitError`, the exception
    carries the substrate's state at the moment of failure so a
    liveness bug is debuggable from the exception alone: in-flight
    update count, expected vs. observed remote applies, and per-node
    queue depths (buffered messages + outstanding applies).
    """

    def __init__(
        self,
        reason: str,
        *,
        timeout: Optional[float] = None,
        in_flight_updates: Optional[int] = None,
        expected_applies: Optional[int] = None,
        observed_applies: Optional[int] = None,
        per_node: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        self.reason = reason
        self.timeout = timeout
        self.in_flight_updates = in_flight_updates
        self.expected_applies = expected_applies
        self.observed_applies = observed_applies
        self.per_node = list(per_node or [])
        parts = [reason]
        if timeout is not None:
            parts.append(f"timeout={timeout:.6g}s")
        if in_flight_updates is not None:
            parts.append(f"in_flight_updates={in_flight_updates}")
        if expected_applies is not None:
            parts.append(f"expected_applies={expected_applies}")
        if observed_applies is not None:
            parts.append(f"observed_applies={observed_applies}")
        for entry in self.per_node:
            parts.append(
                "p{node}: buffered={buffered} "
                "missing_applies={missing_applies}".format(**entry)
            )
        super().__init__("; ".join(parts))


class _WallClock:
    """The part of :class:`~repro.sim.engine.Engine` a cluster uses, over
    the running loop: ``now`` is ``loop.time()`` since :meth:`bind` in
    units of ``scale`` seconds, and ``schedule_at`` is ``loop.call_at``.
    The first exception a callback raises is kept in ``error`` (for
    ``close()`` to raise) and ends the run: no later callback runs, nor
    any once ``stopped`` is set."""

    def __init__(self, scale: float) -> None:
        self.scale = scale
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._t0 = 0.0
        self.error: Optional[Exception] = None
        self.stopped = False

    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        self.loop = loop
        self._t0 = loop.time()

    @property
    def now(self) -> float:
        if self.loop is None:
            return 0.0
        return (self.loop.time() - self._t0) / self.scale

    def schedule_at(self, time: float, fn: Callable[[], None]) -> None:
        self.loop.call_at(self._t0 + time * self.scale, self._fire, fn)

    def schedule_after(self, delay: float, fn: Callable[[], None]) -> None:
        self.schedule_at(self.now + delay, fn)

    def _fire(self, fn: Callable[[], None]) -> None:
        if self.stopped or self.error is not None:
            return
        try:
            fn()
        except Exception as exc:
            self.error = exc


class AsyncCluster(SimCluster):
    """``n`` processes under one protocol on the running event loop.

    Single-use: :meth:`start` it, drive its nodes (by programs, or by
    hand as :class:`~repro.runtime.interactive.CausalKV` does), then
    :meth:`close` it for the frozen :class:`RunResult`.
    """

    def __init__(
        self,
        protocol: ProtocolFactory,
        n_processes: int,
        *,
        latency: Optional[LatencyModel] = None,
        time_scale: float = 0.005,
        quiesce_timeout: float = 30.0,
    ):
        if n_processes < 1:
            raise ValueError("need at least one process")
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.time_scale = time_scale
        self.quiesce_timeout = quiesce_timeout
        self._running = False
        self._result: Optional[RunResult] = None
        super().__init__(protocol, n_processes, latency=latency)

    def _make_engine(self) -> _WallClock:
        return _WallClock(self.time_scale)

    def run_schedule(self, schedule) -> RunResult:
        raise TypeError(
            "AsyncCluster runs closed-loop programs only "
            "(await run_programs); an open-loop schedule needs SimCluster")

    # -- lifecycle --------------------------------------------------------------

    def _quiesce_error(self) -> ClusterQuiesceError:
        per_node = [{"node": node.process_id,
                     "buffered": node.buffered_count,
                     "missing_applies": node.protocol.missing_applies()}
                    for node in self.nodes]
        return ClusterQuiesceError(
            "cluster failed to quiesce (liveness bug?)",
            timeout=self.quiesce_timeout,
            in_flight_updates=self.network.in_flight_updates,
            expected_applies=expected_applies(self.nodes),
            observed_applies=sum(n.remote_applies for n in self.nodes),
            per_node=per_node,
        )

    def _start(self) -> None:
        if self.engine.loop is not None:
            raise RuntimeError(
                "cluster already started (instances are single-use)")
        self.engine.bind(asyncio.get_running_loop())
        self._running = True
        super()._start()

    async def start(self) -> None:
        """Boot the nodes and their timers on the running loop."""
        self._start()

    async def close(self) -> RunResult:
        """Await quiescence, tear down, and freeze the run's result.

        Raises the first exception a delivery, timer or program step
        raised, as soon as it is raised, and :class:`ClusterQuiesceError`
        when the nodes do not settle within ``quiesce_timeout`` of the
        programs' end (torn down all the same).  A second call returns
        the frozen result again.
        """
        if self._running:
            engine = self.engine
            try:
                deadline = engine.loop.time() + self.quiesce_timeout
                while engine.error is None and not self._quiescent():
                    if self._work_remaining:
                        deadline = engine.loop.time() + self.quiesce_timeout
                    elif engine.loop.time() > deadline:
                        raise self._quiesce_error()
                    await asyncio.sleep(self.time_scale)
            finally:
                self._stop()
            if engine.error is not None:
                raise engine.error
            self._result = self._run_result()
        return self._result

    def _stop(self) -> None:
        """End the run: whatever is still scheduled (token rounds,
        timers, messages in flight) comes due to nothing."""
        self._running = False
        self.engine.stopped = True

    async def run_programs(self, programs: Sequence[Program]) -> RunResult:
        """Run one program per process; await quiescence; return the result."""
        self._launch(programs)
        return await self.close()


def run_programs_async(
    protocol: ProtocolFactory,
    n_processes: int,
    programs: Sequence[Program],
    **kwargs,
) -> RunResult:
    """Synchronous convenience wrapper around :class:`AsyncCluster`."""
    cluster = AsyncCluster(protocol, n_processes, **kwargs)
    return asyncio.run(cluster.run_programs(programs))
