"""Orchestration: n simulated processes + network + workload driver.

:class:`SimCluster` wires an :class:`~repro.sim.engine.Engine`, a
:class:`~repro.sim.network.Network` and ``n`` :class:`~repro.sim.node.Node`
instances around a protocol, then drives a workload to quiescence:

- :meth:`SimCluster.run_schedule` -- open-loop workloads
  (:class:`~repro.workloads.ops.Schedule`): every operation fires at
  its pinned time regardless of protocol behaviour;
- :meth:`SimCluster.run_programs` -- closed-loop workloads (one
  :class:`~repro.workloads.ops.Program` per process) with think times
  and value-polling waits.

Quiescence means: all workload operations executed, no update in
flight, **and** the nodes' ledger is :func:`~repro.sim.node.settled`
(every issued write applied at every other process, minus the applies
the protocol legitimately skipped).
A run that cannot reach quiescence (a liveness bug) raises
:class:`~repro.sim.engine.EngineLimitError` instead of hanging or
silently returning a short trace.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

from repro.core.base import BROADCAST, Outgoing, Protocol
from repro.obs.spans import NULL_OBS, Obs
from repro.sim.engine import Engine
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.network import Network
from repro.sim.node import Node, settled
from repro.sim.result import RunResult
from repro.sim.trace import FlatTrace
from repro.workloads.ops import (
    Program,
    ReadOp,
    ReadStep,
    Schedule,
    WaitReadStep,
    WriteOp,
    WriteStep,
)

ProtocolFactory = Union[str, Callable[[int, int], Protocol]]


def _resolve_factory(factory: ProtocolFactory) -> Callable[[int, int], Protocol]:
    if callable(factory):
        return factory
    from repro.protocols import PROTOCOLS  # late import avoids cycles

    try:
        return PROTOCOLS[factory]
    except KeyError:
        raise ValueError(
            f"unknown protocol {factory!r}; known: {sorted(PROTOCOLS)}"
        ) from None


class SimCluster:
    """A single-use simulation of ``n`` processes running one protocol."""

    def __init__(
        self,
        protocol: ProtocolFactory,
        n_processes: int,
        *,
        latency: Optional[LatencyModel] = None,
        fifo: bool = False,
        record_state: bool = False,
        max_events: int = 2_000_000,
        max_time: float = float("inf"),
        crashes: Optional[dict] = None,
        deadline: Optional[float] = None,
        congestion_factor: float = 0.0,
        duplicate_prob: float = 0.0,
        dedup: bool = False,
        obs: Optional[Obs] = None,
    ):
        """See the class docstring; fault-injection extras:

        crashes:
            ``{process: crash_time}`` -- crash-stop faults (extension;
            the paper's model is failure-free).  With faults, liveness
            in the class-𝒫 sense is unattainable, so provide a
            ``deadline``.
        deadline:
            Stop the run at this simulated time even if not quiescent
            (the run result then shows partial progress; checkers that
            assume quiescence should not be applied wholesale).
        obs:
            Observability handle (:class:`repro.obs.Obs`); default is
            the shared disabled handle -- zero instrumentation beyond
            one branch per hook, and trace-identical output.  Pass
            ``Obs.recording()`` to collect metrics + lifecycle spans
            (surfaced on :class:`~repro.sim.result.RunResult` and
            exportable as a Perfetto trace, see docs/observability.md).
        """
        if n_processes < 1:
            raise ValueError("need at least one process")
        if crashes:
            for proc, t in crashes.items():
                if not 0 <= proc < n_processes:
                    raise ValueError(f"crash process {proc} out of range")
                if t < 0:
                    raise ValueError("crash time must be >= 0")
            if deadline is None:
                raise ValueError(
                    "fault injection requires an explicit deadline "
                    "(liveness cannot be awaited under crashes)"
                )
        factory = _resolve_factory(protocol)
        self.n_processes = n_processes
        self.obs = obs if obs is not None else NULL_OBS
        self.engine = self._make_engine()
        self.engine.diag_context = self._diag_context
        self.trace = FlatTrace(n_processes)
        model = (latency or ConstantLatency(1.0)).fork()
        self.network = Network(
            self.engine, model, self._deliver, fifo=fifo,
            congestion_factor=congestion_factor,
            duplicate_prob=duplicate_prob,
            obs=self.obs,
        )
        self.max_events = max_events
        self.max_time = max_time
        self.crashes = dict(crashes or {})
        self.deadline = deadline
        self._work_remaining = 0
        self._ran = False
        self.nodes: List[Node] = [
            Node(
                factory(i, n_processes),
                self.trace,
                clock=lambda: self.engine.now,
                dispatch=self._dispatch,
                record_state=record_state,
                dedup=dedup,
                obs=self.obs,
            )
            for i in range(n_processes)
        ]
        self.protocol_name = self.nodes[0].protocol.name

    # -- plumbing ---------------------------------------------------------------

    def _make_engine(self) -> Engine:
        """The clock and queue (:class:`~repro.runtime.AsyncCluster`'s
        is the running event loop)."""
        return Engine(obs=self.obs)

    def _dispatch(self, sender: int, outgoing: Sequence[Outgoing]) -> None:
        for out in outgoing:
            if out.dest == BROADCAST:
                for dest in range(self.n_processes):
                    if dest != sender:
                        self.network.send(sender, dest, out.message)
            else:
                self.network.send(sender, out.dest, out.message)

    def _deliver(self, dest: int, message) -> None:
        self.nodes[dest].receive(message)

    def _diag_context(self) -> dict:
        """Extra state for :class:`~repro.sim.engine.EngineLimitError`:
        where the undeliverable messages are stuck."""
        return {
            "buffered_per_node": [len(n.scheduler) for n in self.nodes],
            "in_flight_updates": self.network.in_flight_updates,
        }

    def _quiescent(self) -> bool:
        if self.deadline is not None and self.engine.now >= self.deadline:
            return True
        if self._work_remaining > 0:
            return False
        if self.network.in_flight_updates > 0:
            # Late messages (possibly headed for a discard) must still
            # arrive, or the trace under-reports.
            return False
        return settled(self.nodes)

    def _start(self) -> None:
        if self._ran:
            raise RuntimeError("SimCluster instances are single-use")
        self._ran = True
        for node in self.nodes:
            node.start()
        for proc, t in self.crashes.items():
            node = self.nodes[proc]
            self.engine.schedule_at(t, node.crash)
        for node in self.nodes:
            interval = node.protocol.timer_interval
            if interval is not None:
                # stagger first firings to avoid synchronized rounds
                first = interval * (1.0 + node.process_id / self.n_processes)
                self._schedule_timer(node, first, interval)
        if self.deadline is not None:
            # sentinel: guarantees the stop predicate gets evaluated at
            # the deadline even if no other event lands near it
            self.engine.schedule_at(self.deadline, lambda: None)

    def _schedule_timer(self, node: Node, at: float, interval: float) -> None:
        def fire() -> None:
            node.fire_timer()
            self._schedule_timer(node, self.engine.now + interval, interval)

        self.engine.schedule_at(at, fire)

    def _finish(self) -> RunResult:
        self.engine.run(
            stop=self._quiescent,
            max_events=self.max_events,
            max_time=self.max_time,
        )
        return self._run_result()

    def _run_result(self) -> RunResult:
        # Protocol counters live on the metrics registry; the list of
        # per-process dicts survives as the backward-compatible
        # ``RunResult.protocol_stats`` view (with ``stats_total`` as
        # the cluster-wide rollup).
        protocol_stats = [node.protocol.stats() for node in self.nodes]
        metrics = None
        if self.obs.enabled:
            self._publish_final_metrics(protocol_stats)
            metrics = self.obs.registry.collect()
        return RunResult(
            protocol_name=self.protocol_name,
            n_processes=self.n_processes,
            trace=self.trace,
            duration=self.engine.now,
            messages_sent=self.network.messages_sent,
            bytes_estimate=self.network.bytes_estimate,
            stores=[node.protocol.store_snapshot() for node in self.nodes],
            protocol_stats=protocol_stats,
            in_class_p=type(self.nodes[0].protocol).in_class_p,
            metrics=metrics,
            spans=self.obs.spans,
        )

    def _publish_final_metrics(self, protocol_stats) -> None:
        """End-of-run registry publication (not a hot path): protocol
        counters as labeled gauges, and the per-process write-delay
        distributions (Definition 3) as histograms."""
        reg = self.obs.registry
        for pid, stats in enumerate(protocol_stats):
            for key, value in stats.items():
                reg.gauge(f"protocol.{key}", protocol=self.protocol_name,
                          process=pid).set(value)
        for ev in self.trace.delayed():
            applied = self.trace.apply_event(ev.process, ev.wid)
            if applied is not None:
                reg.histogram("node.buffer_wait", process=ev.process).observe(
                    applied.time - ev.time
                )

    # -- open-loop ---------------------------------------------------------------

    def run_schedule(self, schedule: Schedule) -> RunResult:
        """Execute an open-loop workload to quiescence."""
        if schedule.max_process() >= self.n_processes:
            raise ValueError(
                f"schedule references process {schedule.max_process()} "
                f"but the cluster has {self.n_processes}"
            )
        self._start()
        self._work_remaining = schedule.n_ops
        for item in schedule:
            self.engine.schedule_at(
                item.time, self._make_op_runner(item.process, item.op)
            )
        return self._finish()

    def _make_op_runner(self, process: int, op) -> Callable[[], None]:
        node = self.nodes[process]

        def run() -> None:
            if isinstance(op, WriteOp):
                node.do_write(op.variable, op.value)
            elif isinstance(op, ReadOp):
                node.do_read(op.variable)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown op {op!r}")
            self._work_remaining -= 1

        return run

    # -- closed-loop --------------------------------------------------------------

    def run_programs(self, programs: Sequence[Program]) -> RunResult:
        """Execute one program per process to quiescence."""
        self._launch(programs)
        return self._finish()

    def _launch(self, programs: Sequence[Program]) -> None:
        if len(programs) != self.n_processes:
            raise ValueError(
                f"need exactly {self.n_processes} programs, got {len(programs)}"
            )
        self._start()
        self._work_remaining = sum(1 for p in programs if len(p) > 0)
        for i, program in enumerate(programs):
            if len(program) > 0:
                self._advance(i, program, 0)

    def _advance(self, process: int, program: Program, idx: int) -> None:
        if idx >= len(program):
            self._work_remaining -= 1
            return
        step = program.steps[idx]
        self.engine.schedule_after(
            step.delay, lambda: self._run_step(process, program, idx)
        )

    def _run_step(self, process: int, program: Program, idx: int) -> None:
        node = self.nodes[process]
        step = program.steps[idx]
        if isinstance(step, WriteStep):
            node.do_write(step.variable, step.value)
            self._advance(process, program, idx + 1)
        elif isinstance(step, ReadStep):
            node.do_read(step.variable)
            self._advance(process, program, idx + 1)
        elif isinstance(step, WaitReadStep):
            self._poll(node, program, idx, step, step.max_polls)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown step {step!r}")

    def _poll(
        self,
        node: Node,
        program: Program,
        idx: int,
        step: WaitReadStep,
        polls_left: int,
    ) -> None:
        value = node.do_read(step.variable)
        if step.matches(value):
            self._advance(node.process_id, program, idx + 1)
            return
        if polls_left <= 1:
            raise RuntimeError(
                f"p{node.process_id} gave up waiting for "
                f"{step.variable}={step.expect!r} after {step.max_polls} polls "
                f"(last value: {value!r})"
            )
        self.engine.schedule_after(
            step.poll,
            lambda: self._poll(node, program, idx, step, polls_left - 1),
        )


def run_schedule(
    protocol: ProtocolFactory,
    n_processes: int,
    schedule: Schedule,
    **kwargs,
) -> RunResult:
    """One-shot convenience: build a cluster and run an open-loop workload."""
    return SimCluster(protocol, n_processes, **kwargs).run_schedule(schedule)


def run_programs(
    protocol: ProtocolFactory,
    n_processes: int,
    programs: Sequence[Program],
    **kwargs,
) -> RunResult:
    """One-shot convenience: build a cluster and run a closed-loop workload."""
    return SimCluster(protocol, n_processes, **kwargs).run_programs(programs)
