"""Discrete-event simulation substrate (the paper's system model, §3.1).

Asynchronous reliable message passing over a deterministic, seeded
event loop: every run is exactly replayable and every event is traced
for the analyzers.

Quick use::

    from repro.sim import SimCluster, run_schedule
    from repro.sim.latency import SeededLatency
    from repro.workloads.ops import Schedule, ScheduledOp, WriteOp

    sched = Schedule.of([ScheduledOp(0.0, 0, WriteOp("x"))])
    result = run_schedule("optp", 3, sched, latency=SeededLatency(7))
    print(result.summary())
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.sim.cluster": ("SimCluster", "run_programs", "run_schedule"),
    "repro.sim.engine": ("Engine", "EngineLimitError"),
    "repro.sim.latency": ("ConstantLatency", "ExponentialLatency",
                          "LatencyModel", "MatrixLatency", "ScriptedLatency",
                          "SeededLatency", "UniformLatency"),
    "repro.sim.network": ("Network", "estimate_size"),
    "repro.sim.node": ("Node",),
    "repro.sim.result": ("RunResult",),
    "repro.sim.scheduler": ("CountingScheduler", "DeliveryScheduler",
                            "RescanScheduler"),
    "repro.sim.serialize": ("run_metrics_from_dict", "run_metrics_to_dict",
                            "trace_from_jsonl", "trace_to_jsonl"),
    "repro.sim.trace": ("EventKind", "Trace", "TraceEvent"),
})

__all__ = [
    "ConstantLatency",
    "CountingScheduler",
    "DeliveryScheduler",
    "Engine",
    "EngineLimitError",
    "EventKind",
    "ExponentialLatency",
    "LatencyModel",
    "MatrixLatency",
    "Network",
    "Node",
    "RescanScheduler",
    "RunResult",
    "ScriptedLatency",
    "SeededLatency",
    "SimCluster",
    "Trace",
    "TraceEvent",
    "UniformLatency",
    "estimate_size",
    "run_metrics_from_dict",
    "run_metrics_to_dict",
    "run_programs",
    "run_schedule",
    "trace_from_jsonl",
    "trace_to_jsonl",
]
