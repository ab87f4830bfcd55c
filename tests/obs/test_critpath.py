"""Critical-path profiler tests.

The load-bearing invariant is conservation: the per-dependency
attribution is a *tiling* of each buffered stretch, so the attributed
blocked time reconciles exactly -- not approximately -- with the
span-measured buffer time, per message and per run.  On the paper's
Ĥ₁ scenario the necessity split must reproduce Theorem 4: OptP
attributes zero unnecessary milliseconds, ANBKH attributes all of its
false-causality delay.
"""

import math
from types import SimpleNamespace

import pytest

from repro.model.operations import WriteId
from repro.obs import Obs, analyze_critical_paths
from repro.obs.spans import MessageSpan, WaitInterval
from repro.sim import run_schedule
from repro.workloads import ALL_SCENARIOS


def span(process, wid, waits, apply_time, sender=0, receipt=0.0):
    return MessageSpan(wid=wid, sender=sender, process=process,
                       variable="x", receipt_time=receipt,
                       apply_time=apply_time, waits=waits)


def fake_result(spans, protocol="fake"):
    return SimpleNamespace(protocol_name=protocol, spans=spans)


def run_scenario(protocol, name="fig3"):
    scen = ALL_SCENARIOS[name]()
    obs = Obs.recording()
    return run_schedule(protocol, 3, scen.schedule, latency=scen.latency,
                        record_state=True, obs=obs)


class TestAttribution:
    def test_requires_spans(self):
        with pytest.raises(ValueError, match="no spans"):
            analyze_critical_paths(SimpleNamespace(protocol_name="x",
                                                   spans=None))

    def test_single_wait_attribution(self):
        s = span(1, WriteId(0, 2),
                 [WaitInterval(start=1.0, dep=(0, 1), end=None)],
                 apply_time=4.0)
        report = analyze_critical_paths(fake_result([s]), audits={})
        (a,) = report.attributions
        assert (a.process, a.wid, a.dep) == (1, WriteId(0, 2), (0, 1))
        assert (a.start, a.end, a.duration) == (1.0, 4.0, 3.0)
        assert a.necessary is None  # no audit entry matched
        assert report.total_blocked == 3.0
        assert report.necessary_blocked == 3.0  # unproven counts as necessary
        assert report.unnecessary_blocked == 0.0

    def test_tiling_reconciles_exactly_per_span(self):
        """Two waits tile [1.0, 5.5]: attribution == buffer_duration."""
        s = span(2, WriteId(0, 3),
                 [WaitInterval(start=1.0, dep=(0, 1), end=2.5),
                  WaitInterval(start=2.5, dep=(1, 1), end=None)],
                 apply_time=5.5)
        report = analyze_critical_paths(fake_result([s]), audits={})
        assert len(report.attributions) == 2
        assert math.fsum(a.duration for a in report.attributions) \
            == s.buffer_duration == 4.5

    def test_necessity_split(self):
        nec = span(1, WriteId(0, 2),
                   [WaitInterval(start=1.0, dep=(0, 1), end=None)],
                   apply_time=2.0)
        unnec = span(2, WriteId(1, 1),
                     [WaitInterval(start=1.0, dep=(0, 1), end=None)],
                     apply_time=4.0)
        audits = {(1, WriteId(0, 2)): True, (2, WriteId(1, 1)): False}
        report = analyze_critical_paths(fake_result([nec, unnec]),
                                        audits=audits)
        assert report.necessary_blocked == 1.0
        assert report.unnecessary_blocked == 3.0
        assert report.total_blocked == 4.0

    def test_unreleased_spans_excluded_but_counted(self):
        dead = span(1, WriteId(0, 9),
                    [WaitInterval(start=1.0, dep=None, end=None)],
                    apply_time=None)
        report = analyze_critical_paths(fake_result([dead]), audits={})
        assert report.unreleased == 1
        assert report.attributions == []
        assert report.chains == []

    def test_undelayed_spans_ignored(self):
        clean = span(1, WriteId(0, 1), [], apply_time=1.0)
        report = analyze_critical_paths(fake_result([clean]), audits={})
        assert report.attributions == []
        assert report.delayed_applies == 0
        assert report.critical_path() is None


class TestChains:
    def test_chain_follows_releasing_edges(self):
        """w0.3 released by w0.2's apply, itself delayed behind w0.1:
        the chain for w0.3 is [w0.3, w0.2]."""
        s2 = span(1, WriteId(0, 2),
                  [WaitInterval(start=1.0, dep=(0, 1), end=None)],
                  apply_time=3.0)
        s3 = span(1, WriteId(0, 3),
                  [WaitInterval(start=0.5, dep=(0, 2), end=None)],
                  apply_time=3.0)
        report = analyze_critical_paths(fake_result([s2, s3]), audits={})
        chains = {c.head.wid: c for c in report.chains}
        assert [s.wid for s in chains[WriteId(0, 3)].spans] == \
            [WriteId(0, 3), WriteId(0, 2)]
        assert chains[WriteId(0, 3)].blocked == 2.5 + 2.0
        assert [s.wid for s in chains[WriteId(0, 2)].spans] == [WriteId(0, 2)]
        crit = report.critical_path()
        assert crit.head.wid == WriteId(0, 3)

    def test_chain_stays_within_process(self):
        """The same wid delayed at another process must not be spliced
        into this process's chain."""
        here = span(1, WriteId(0, 2),
                    [WaitInterval(start=1.0, dep=(0, 1), end=None)],
                    apply_time=2.0)
        elsewhere = span(2, WriteId(0, 1),
                         [WaitInterval(start=0.0, dep=(2, 5), end=None)],
                         apply_time=9.0)
        report = analyze_critical_paths(fake_result([here, elsewhere]),
                                        audits={})
        chain = next(c for c in report.chains if c.process == 1)
        assert [s.wid for s in chain.spans] == [WriteId(0, 2)]

    def test_by_dependency_groups_and_sorts(self):
        s_a = span(1, WriteId(0, 2),
                   [WaitInterval(start=0.0, dep=(0, 1), end=None)],
                   apply_time=1.0)
        s_b = span(2, WriteId(0, 2),
                   [WaitInterval(start=0.0, dep=(0, 1), end=None)],
                   apply_time=2.0)
        s_c = span(1, WriteId(1, 1),
                   [WaitInterval(start=0.0, dep=(1, 9), end=None)],
                   apply_time=0.5)
        report = analyze_critical_paths(fake_result([s_a, s_b, s_c]),
                                        audits={})
        assert report.by_dependency() == [((0, 1), 3.0), ((1, 9), 0.5)]

    def test_render_and_to_dict(self):
        s = span(1, WriteId(0, 2),
                 [WaitInterval(start=1.0, dep=(0, 1), end=None)],
                 apply_time=2.0)
        report = analyze_critical_paths(
            fake_result([s], protocol="demo"), audits={})
        text = report.render()
        assert "demo: 1 delayed applies" in text
        assert "apply(0,1)" in text
        doc = report.to_dict()
        assert doc["critical_path"]["writes"] == [[0, 2]]
        assert doc["total_blocked"] == 1.0


class TestScenarioConservation:
    """Exact reconciliation on real runs: every scenario, both vector
    protocols -- attributed time == span-measured buffer time."""

    @pytest.mark.parametrize("scenario", sorted(ALL_SCENARIOS))
    @pytest.mark.parametrize("protocol", ["optp", "anbkh"])
    def test_attribution_conserves_buffer_time(self, protocol, scenario):
        result = run_scenario(protocol, scenario)
        report = analyze_critical_paths(result)
        measured = math.fsum(
            s.buffer_duration for s in result.spans
            if s.waits and s.apply_time is not None)
        assert math.fsum(a.duration
                         for a in report.attributions) == measured

    def test_fig3_optp_attributes_zero_unnecessary(self):
        report = analyze_critical_paths(run_scenario("optp"))
        assert report.unnecessary_blocked == 0.0
        assert report.delayed_applies == 0

    def test_fig3_anbkh_attributes_positive_unnecessary(self):
        """ANBKH's false-causality delay on Ĥ₁ (Figure 3) becomes
        visible critical-path time; OptP's is zero above."""
        report = analyze_critical_paths(run_scenario("anbkh"))
        assert report.delayed_applies == 1
        assert report.unnecessary_blocked > 0.0
        assert report.necessary_blocked == 0.0
        crit = report.critical_path()
        assert crit is not None
        assert crit.blocked == report.total_blocked

    @pytest.mark.parametrize("protocol", ["optp", "anbkh"])
    def test_optp_never_worse_than_anbkh_on_any_scenario(self, protocol):
        """Sanity over all scenarios: unnecessary blocked time is zero
        for OptP everywhere (Theorem 4 in milliseconds)."""
        for scenario in sorted(ALL_SCENARIOS):
            report = analyze_critical_paths(run_scenario(protocol, scenario))
            if protocol == "optp":
                assert report.unnecessary_blocked == 0.0, scenario


class TestEdgesThatNameNoWrite:
    """A dependency edge is a ``(component, required)`` progress key, a
    write id only for the vector protocols: the sequencer waits on
    stamps (the first is stamp 0, which is no legal ``WriteId``) and
    partial replication on held-write counts.  Attribution runs on the
    key as it is; a chain follows it only to a write the process really
    held back."""

    def test_stamp_zero_edge_is_attributed_not_resolved(self):
        s = span(1, WriteId(2, 1),
                 [WaitInterval(start=1.0, dep=(0, 0), end=None)],
                 apply_time=3.0)
        report = analyze_critical_paths(fake_result([s]), audits={})
        assert [(a.dep, a.duration) for a in report.attributions] \
            == [((0, 0), 2.0)]
        assert [c.spans for c in report.chains] == [(s,)]

    def _assert_sound(self, result):
        report = analyze_critical_paths(result)
        delayed = [s for s in result.spans
                   if s.waits and s.apply_time is not None]
        assert delayed, "the run must exercise buffering"
        assert math.fsum(a.duration for a in report.attributions) \
            == math.fsum(s.buffer_duration for s in delayed)
        assert report.delayed_applies == len(delayed)
        released = {(s.process, s.wid) for s in delayed}
        for chain in report.chains:
            for held, releaser in zip(chain.spans, chain.spans[1:]):
                assert releaser.wid == WriteId(*held.released_by)
                assert (chain.process, releaser.wid) in released
        return report

    def test_sequencer_run(self):
        from tests.integration.test_flat_obs_parity import _seeded

        result, _ = _seeded("sequencer", 2)
        report = self._assert_sound(result)
        # the run does wait on stamp 0, which used to raise
        assert any(a.dep[1] == 0 for a in report.attributions)

    def test_partial_replication_run(self):
        from repro.protocols.partial import ReplicationMap, partial_factory
        from repro.sim import SeededLatency
        from repro.workloads.generators import random_partial_schedule
        from tests.integration.test_scheduler_differential import _cfg

        cfg = _cfg(5, n=4)
        rmap = ReplicationMap.round_robin(
            [f"x{i}" for i in range(cfg.n_variables)], cfg.n_processes, 3)
        result = run_schedule(
            partial_factory(rmap), cfg.n_processes,
            random_partial_schedule(cfg, rmap),
            latency=SeededLatency(5, dist="exponential", mean=2.5),
            obs=Obs.recording())
        self._assert_sound(result)
