"""Live instrumentation: metrics, message-lifecycle spans, trace export.

The subsystem the simulator threads through its hot paths behind a
single :class:`Obs` handle (see docs/observability.md for the metric
catalog and span semantics):

- :mod:`repro.obs.metrics` -- labeled counters / gauges / histograms;
- :mod:`repro.obs.spans` -- ``send -> receipt -> [buffer] -> apply``
  lifecycle spans with per-wait blocking-dependency attribution, plus
  the :class:`Obs` handle and its sinks;
- :mod:`repro.obs.export` -- Perfetto / Chrome ``trace_event`` JSON
  rendering and validation, and metrics-file summarization.

Quick use::

    from repro.obs import Obs
    from repro.sim import run_schedule

    obs = Obs.recording()
    result = run_schedule("optp", 4, schedule, obs=obs)
    result.spans        # lifecycle spans, blocking deps annotated
    result.metrics      # registry snapshot (JSON-ready)
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.obs.benchcmp": ("BenchComparison", "compare_benchmarks",
                           "load_baseline", "update_baseline"),
    "repro.obs.critpath": ("Attribution", "CritPathReport", "DelayChain",
                           "analyze_critical_paths"),
    "repro.obs.export": ("chrome_trace", "summarize_metrics",
                         "validate_chrome_trace", "write_chrome_trace"),
    "repro.obs.journal": ("FlightRecorder", "JournalEvent", "JournalSink",
                          "events_from_jsonl"),
    "repro.obs.metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "repro.obs.progress": ("ProgressSink",),
    "repro.obs.spans": ("InMemorySink", "MessageSpan", "NullSink", "NULL_OBS",
                        "Obs", "WaitInterval"),
})

__all__ = [
    "Attribution",
    "BenchComparison",
    "Counter",
    "CritPathReport",
    "DelayChain",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "JournalEvent",
    "JournalSink",
    "MessageSpan",
    "MetricsRegistry",
    "NULL_OBS",
    "NullSink",
    "Obs",
    "ProgressSink",
    "WaitInterval",
    "analyze_critical_paths",
    "chrome_trace",
    "events_from_jsonl",
    "compare_benchmarks",
    "load_baseline",
    "summarize_metrics",
    "update_baseline",
    "validate_chrome_trace",
    "write_chrome_trace",
]
