"""Scale tests: bigger runs through the full verified pipeline.

Kept at "a second or two" scale so the default suite stays fast (the
10,000-op checker test takes a few seconds); the benchmark harness
covers the larger sweeps.
"""

import pytest

from repro.analysis import check_run
from repro.sim import SeededLatency, run_schedule
from repro.workloads import WorkloadConfig, chain_programs, random_schedule


class TestScale:
    def test_checker_scales_to_ten_thousand_ops(self):
        """Every check of ``check_run`` on a 10,000-op OptP history stays
        within 64 MB: ``->co`` is two bitsets per op, about 26 MB here,
        and no check builds a matrix."""
        import tracemalloc

        cfg = WorkloadConfig(n_processes=8, ops_per_process=1_250,
                             n_variables=8, write_fraction=0.5, seed=7)
        r = run_schedule("optp", 8, random_schedule(cfg),
                         latency=SeededLatency(7), record_state=True)
        tracemalloc.start()
        try:
            report = check_run(r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(r.history) == 10_000
        assert report.ok and report.characterization_ok, report.summary()
        assert report.total_delays > 0
        assert not report.unnecessary_delays
        assert peak < 64 * 2**20, peak

    def test_sixteen_processes(self):
        cfg = WorkloadConfig(n_processes=16, ops_per_process=10,
                             n_variables=8, write_fraction=0.5, seed=9)
        r = run_schedule("optp", 16, random_schedule(cfg),
                         latency=SeededLatency(9, dist="exponential", mean=2.0))
        report = check_run(r)
        assert report.ok, report.summary()
        assert not report.unnecessary_delays
        # 16 procs x 10 ops x ~0.5 writes -> ~80 writes, 1200 applies
        assert r.remote_applies == r.writes_issued * 15

    def test_many_operations_single_run(self):
        cfg = WorkloadConfig(n_processes=4, ops_per_process=150,
                             n_variables=6, write_fraction=0.6, seed=13)
        r = run_schedule("optp", 4, random_schedule(cfg),
                         latency=SeededLatency(13))
        report = check_run(r)
        assert report.ok
        assert r.writes_issued > 300

    def test_deep_causal_chain(self):
        """Multi-round relay: ->co chains dozens deep, every hop checked."""
        from repro.model.causality_graph import WriteCausalityGraph
        from repro.sim import ConstantLatency, run_programs

        programs = chain_programs(5, rounds=4)
        r = run_programs("optp", 5, programs, latency=ConstantLatency(0.4))
        report = check_run(r)
        assert report.ok
        g = WriteCausalityGraph.from_history(r.history)
        assert g.longest_chain_length() >= 4 * 5 - 1

    def test_all_protocols_mid_scale(self):
        cfg = WorkloadConfig(n_processes=8, ops_per_process=20,
                             write_fraction=0.7, seed=21)
        sched = random_schedule(cfg)
        delays = {}
        for proto in ("optp", "anbkh", "ws-receiver", "jimenez-token",
                      "sequencer"):
            r = run_schedule(proto, 8, sched,
                             latency=SeededLatency(21, dist="exponential",
                                                   mean=1.5))
            report = check_run(r)
            assert report.ok, (proto, report.summary())
            delays[proto] = report.total_delays
        assert delays["optp"] <= delays["anbkh"]
        assert delays["ws-receiver"] <= delays["optp"]
        assert delays["sequencer"] >= delays["optp"]
