"""Observability gating: a disabled-obs run must be *trace-identical*
to an instrumented build's enabled run -- instrumentation may observe,
never perturb (no RNG draws, no event reordering, no extra events).

Byte-comparing the serialized traces is the strongest cheap check: any
instrumentation-induced divergence in event order, timestamps, or
payloads shows up.  The companion overhead bound lives in
``benchmarks/test_bench_obs_overhead.py``.
"""

import pytest

from repro.obs import Obs
from repro.sim.cluster import run_schedule
from repro.sim.latency import ExponentialLatency
from repro.sim.serialize import trace_to_jsonl
from repro.workloads.generators import write_burst_schedule

from tests.oracle import hide_requirement

PROTOCOLS = ["optp", "anbkh", "sequencer"]


def _run(protocol, **kwargs):
    sched = write_burst_schedule(3, 2, 4)
    return run_schedule(
        protocol, 3, sched,
        latency=ExponentialLatency(mean=2.0, seed=11),
        **kwargs,
    )


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_enabled_run_is_trace_identical(protocol):
    plain = _run(protocol)
    observed = _run(protocol, obs=Obs.recording())
    assert trace_to_jsonl(plain.trace) == trace_to_jsonl(observed.trace)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_disabled_run_carries_no_observability(protocol):
    result = _run(protocol)
    assert result.metrics is None
    assert result.spans is None


def test_enabled_run_carries_metrics_and_spans():
    result = _run("optp", obs=Obs.recording())
    assert result.metrics is not None
    counters = result.metrics["counters"]
    # cross-check instrument totals against the trace itself
    n_applies = sum(s["value"] for s in counters["node.applies"])
    from repro.sim.trace import EventKind
    assert n_applies == sum(
        1 for _ in result.trace.of_kind(EventKind.APPLY))
    n_writes = sum(s["value"] for s in counters["node.writes"])
    assert n_writes == result.writes_issued
    assert result.spans is not None and len(result.spans) > 0


def test_legacy_scheduler_instrumented_run():
    """The re-scan scheduler cannot enumerate wait predicates; spans
    still form, with no dependency attribution."""
    rescanned = hide_requirement("optp")
    plain = _run(rescanned)
    observed = _run(rescanned, obs=Obs.recording())
    assert trace_to_jsonl(plain.trace) == trace_to_jsonl(observed.trace)
    assert observed.metrics["counters"].get("sched.scan_classifies")
    buffered = [s for s in observed.spans if s.buffered]
    assert all(w.dep is None for s in buffered for w in s.waits)
    assert all(s.apply_time is not None or s.discard_time is not None
               for s in buffered)


def test_protocol_stats_view_and_rollup():
    """Satellite: per-node stats remain on RunResult, with the
    cluster-wide rollup and (when enabled) the registry mirror."""
    result = _run("optp", obs=Obs.recording())
    assert len(result.protocol_stats) == 3
    totals = result.stats_total
    for key in result.protocol_stats[0]:
        assert totals[key] == sum(s[key] for s in result.protocol_stats)
    gauges = result.metrics["gauges"]
    for key, total in totals.items():
        series = gauges[f"protocol.{key}"]
        assert sum(s["value"] for s in series) == total
