"""repro -- reproduction of Baldoni, Milani & Tucci Piergiovanni,
*An Optimal Protocol for Causally Consistent Distributed Shared Memory
Systems* (IPPS/IPDPS 2004).

Quick start::

    from repro import run_schedule, check_run, SeededLatency
    from repro.workloads import WorkloadConfig, random_schedule

    cfg = WorkloadConfig(n_processes=4, ops_per_process=20, seed=1)
    result = run_schedule("optp", 4, random_schedule(cfg),
                          latency=SeededLatency(1))
    report = check_run(result)
    assert report.ok and not report.unnecessary_delays   # Theorem 4

Package map (see DESIGN.md for the full inventory):

- :mod:`repro.model`     -- histories, ``->co``, legality (Section 2);
- :mod:`repro.core`      -- ``Write_co`` vector clocks + OptP (Section 4)
  and the class-P protocol framework (Section 3.2);
- :mod:`repro.protocols` -- ANBKH and writing-semantics baselines;
- :mod:`repro.sim`       -- deterministic discrete-event substrate;
- :mod:`repro.runtime`   -- asyncio real-concurrency substrate;
- :mod:`repro.workloads` -- schedules, generators, the paper's scenarios;
- :mod:`repro.analysis`  -- safety/legality/liveness/optimality checkers;
- :mod:`repro.paperfigs` -- regenerators for every table and figure.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.analysis": ("CheckReport", "assert_run_ok", "check_run",
                       "comparison_table", "x_anbkh", "x_co_safe"),
    "repro.core": ("OptPProtocol", "VectorClock"),
    "repro.model": ("BOTTOM", "History", "HistoryBuilder",
                    "WriteCausalityGraph", "WriteId", "example_h1",
                    "is_causally_consistent"),
    "repro.protocols": ("ANBKHProtocol", "JimenezTokenProtocol",
                        "PROTOCOLS", "Protocol", "WSReceiverProtocol"),
    "repro.runtime": ("AsyncCluster", "CausalKV", "run_programs_async"),
    "repro.sim": ("ConstantLatency", "ExponentialLatency", "MatrixLatency",
                  "RunResult", "ScriptedLatency", "SeededLatency",
                  "SimCluster", "UniformLatency", "run_programs",
                  "run_schedule"),
    "repro.workloads": ("Program", "ReadOp", "ReadStep", "Schedule",
                        "ScheduledOp", "WaitReadStep", "WorkloadConfig",
                        "WriteOp", "WriteStep", "random_schedule"),
})

__version__ = "1.0.0"

__all__ = [
    "ANBKHProtocol",
    "AsyncCluster",
    "BOTTOM",
    "CausalKV",
    "CheckReport",
    "ConstantLatency",
    "ExponentialLatency",
    "History",
    "HistoryBuilder",
    "JimenezTokenProtocol",
    "MatrixLatency",
    "OptPProtocol",
    "PROTOCOLS",
    "Program",
    "Protocol",
    "ReadOp",
    "ReadStep",
    "RunResult",
    "Schedule",
    "ScheduledOp",
    "ScriptedLatency",
    "SeededLatency",
    "SimCluster",
    "UniformLatency",
    "VectorClock",
    "WSReceiverProtocol",
    "WaitReadStep",
    "WorkloadConfig",
    "WriteCausalityGraph",
    "WriteId",
    "WriteOp",
    "WriteStep",
    "assert_run_ok",
    "check_run",
    "comparison_table",
    "example_h1",
    "is_causally_consistent",
    "random_schedule",
    "run_programs",
    "run_programs_async",
    "run_schedule",
    "x_anbkh",
    "x_co_safe",
]
