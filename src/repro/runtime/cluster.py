"""asyncio-based cluster: the paper's system model on real concurrency.

A run is :meth:`AsyncCluster.start`, operations on the nodes, and
:meth:`AsyncCluster.close`, which awaits the nodes' ledger
(:func:`~repro.sim.node.settled`) and freezes the result.
:meth:`~AsyncCluster.run_programs` drives the nodes with one asyncio task
per :class:`~repro.workloads.ops.Program`;
:class:`~repro.runtime.interactive.CausalKV` hands them to application
code.  Each message hop is a task that
sleeps its (scaled) latency and then delivers into the destination
node's synchronous ``receive``.  Because everything runs on one event
loop thread, each protocol procedure executes atomically -- exactly the
paper's atomicity assumption -- while message interleavings are
genuinely nondeterministic.

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
from typing import Any, Dict, List, Optional, Sequence

from repro.core.base import BROADCAST, Message, Outgoing, UpdateMessage
from repro.sim.cluster import ProtocolFactory, _resolve_factory
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.network import estimate_size
from repro.sim.node import Node, expected_applies, settled
from repro.sim.result import RunResult
from repro.sim.trace import Trace
from repro.workloads.ops import (
    Program,
    ReadStep,
    WaitReadStep,
    WriteStep,
)


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


class AsyncCluster:
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
        factory = _resolve_factory(protocol)
        self.n_processes = n_processes
        self.latency_model = (latency or ConstantLatency(1.0)).fork()
        self.time_scale = time_scale
        self.quiesce_timeout = quiesce_timeout
        self.trace = Trace(n_processes)
        self._t0 = 0.0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: every task the cluster started: message hops, timers, programs
        self._tasks: set = set()
        self._in_flight_updates = 0
        self.messages_sent = 0
        self.bytes_estimate = 0
        self._running = False
        self._result: Optional[RunResult] = None
        self.nodes: List[Node] = [
            Node(factory(i, n_processes), self.trace, clock=self._now,
                 dispatch=self._dispatch)
            for i in range(n_processes)
        ]
        self.protocol_name = self.nodes[0].protocol.name

    def _now(self) -> float:
        if self._loop is None:
            return 0.0
        return (self._loop.time() - self._t0) / self.time_scale

    def _spawn(self, coro) -> "asyncio.Future":
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    # -- messaging ----------------------------------------------------------------

    def _dispatch(self, sender: int, outgoing: Sequence[Outgoing]) -> None:
        for out in outgoing:
            if out.dest == BROADCAST:
                for dest in range(self.n_processes):
                    if dest != sender:
                        self._ship(sender, dest, out.message)
            else:
                self._ship(sender, out.dest, out.message)

    def _ship(self, sender: int, dest: int, message: Message) -> None:
        delay = self.latency_model.latency(sender, dest, message)
        self.messages_sent += 1
        self.bytes_estimate += estimate_size(message)
        is_update = isinstance(message, UpdateMessage)
        if is_update:
            self._in_flight_updates += 1

        async def hop() -> None:
            await asyncio.sleep(delay * self.time_scale)
            if is_update:
                self._in_flight_updates -= 1
            self.nodes[dest].receive(message)

        self._spawn(hop())

    # -- program execution -----------------------------------------------------------

    async def _run_program(self, process: int, program: Program) -> None:
        node = self.nodes[process]
        for step in program:
            if step.delay:
                await asyncio.sleep(step.delay * self.time_scale)
            if isinstance(step, WriteStep):
                node.do_write(step.variable, step.value)
            elif isinstance(step, ReadStep):
                node.do_read(step.variable)
            elif isinstance(step, WaitReadStep):
                for _ in range(step.max_polls):
                    if step.matches(node.do_read(step.variable)):
                        break
                    await asyncio.sleep(step.poll * self.time_scale)
                else:
                    raise RuntimeError(
                        f"p{process} gave up waiting for "
                        f"{step.variable}={step.expect!r}"
                    )
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown step {step!r}")

    async def _timer_loop(self, node: Node) -> None:
        """Fire the node's periodic protocol hook (anti-entropy etc.),
        staggered like the simulator does."""
        interval = node.protocol.timer_interval
        assert interval is not None
        await asyncio.sleep(
            interval * (1.0 + node.process_id / self.n_processes)
            * self.time_scale
        )
        while True:
            node.fire_timer()
            await asyncio.sleep(interval * self.time_scale)

    # -- lifecycle --------------------------------------------------------------

    def _quiesce_error(self) -> ClusterQuiesceError:
        per_node = [{"node": node.process_id,
                     "buffered": node.buffered_count,
                     "missing_applies": node.protocol.missing_applies()}
                    for node in self.nodes]
        return ClusterQuiesceError(
            "cluster failed to quiesce (liveness bug?)",
            timeout=self.quiesce_timeout,
            in_flight_updates=self._in_flight_updates,
            expected_applies=expected_applies(self.nodes),
            observed_applies=sum(n.remote_applies for n in self.nodes),
            per_node=per_node,
        )

    async def start(self) -> None:
        """Boot the nodes and their timers on the running loop."""
        if self._loop is not None:
            raise RuntimeError(
                "cluster already started (instances are single-use)")
        self._running = True
        self._loop = asyncio.get_running_loop()
        self._t0 = self._loop.time()
        for node in self.nodes:
            node.start()
        for node in self.nodes:
            if node.protocol.timer_interval is not None:
                self._spawn(self._timer_loop(node))

    async def close(self) -> RunResult:
        """Await quiescence, tear down, and freeze the run's result.

        Raises :class:`ClusterQuiesceError` (torn down all the same)
        when the nodes do not settle within ``quiesce_timeout``.  A
        second call returns the frozen result again.
        """
        if self._running:
            try:
                deadline = self._loop.time() + self.quiesce_timeout
                while self._in_flight_updates or not settled(self.nodes):
                    if self._loop.time() > deadline:
                        raise self._quiesce_error()
                    await asyncio.sleep(self.time_scale)
            finally:
                await self._stop()
            self._result = RunResult(
                protocol_name=self.protocol_name,
                n_processes=self.n_processes,
                trace=self.trace,
                duration=self._now(),
                messages_sent=self.messages_sent,
                bytes_estimate=self.bytes_estimate,
                stores=[node.protocol.store_snapshot() for node in self.nodes],
                protocol_stats=[node.protocol.stats() for node in self.nodes],
                in_class_p=type(self.nodes[0].protocol).in_class_p,
            )
        return self._result

    async def _stop(self) -> None:
        """Cancel whatever is still flying (token rounds, timers etc.)
        and *await* the cancellations, so no half-dead task outlives
        the run to fire a "was never retrieved" warning (or deliver
        into a dismantled node) later."""
        self._running = False
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    async def run_programs(self, programs: Sequence[Program]) -> RunResult:
        """Run one program per process; await quiescence; return the result."""
        if len(programs) != self.n_processes:
            raise ValueError(
                f"need exactly {self.n_processes} programs, got {len(programs)}"
            )
        await self.start()
        try:
            await asyncio.gather(*(
                self._spawn(self._run_program(i, p))
                for i, p in enumerate(programs)
            ))
        except BaseException:
            await self._stop()
            raise
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
