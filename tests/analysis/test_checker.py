"""Tests for the run checkers (Theorems 1-5 as machine checks)."""

import pytest

from repro.analysis import (
    assert_run_ok,
    check_run,
)
from repro.analysis.checker import (
    audit_delays,
    check_characterization,
    check_liveness,
    check_safety,
)
from repro.sim import ConstantLatency, SeededLatency, run_schedule
from repro.workloads import (
    WorkloadConfig,
    fig1_run2,
    fig3,
    random_schedule,
)

ALL_PROTOCOLS = ["optp", "anbkh", "ws-receiver", "jimenez-token"]


def quick_run(proto, seed=0, **kw):
    cfg = WorkloadConfig(n_processes=3, ops_per_process=10, seed=seed)
    return run_schedule(proto, 3, random_schedule(cfg),
                        latency=SeededLatency(seed), **kw)


class TestCheckRun:
    @pytest.mark.parametrize("proto", ALL_PROTOCOLS)
    def test_all_protocols_pass(self, proto):
        report = check_run(quick_run(proto))
        assert report.ok, report.summary()

    def test_optp_never_unnecessary(self):
        for seed in range(4):
            r = quick_run("optp", seed=seed)
            report = check_run(r)
            assert not report.unnecessary_delays, report.summary()

    def test_anbkh_unnecessary_on_fig3(self):
        scen = fig3()
        r = run_schedule("anbkh", 3, scen.schedule, latency=scen.latency)
        report = check_run(r)
        assert report.ok  # safe, legal, live...
        assert len(report.unnecessary_delays) == 1  # ...but not optimal

    def test_summary_strings(self):
        report = check_run(quick_run("optp", **{"record_state": True}))
        s = report.summary()
        assert "legal" in s and "safe" in s and "live" in s
        assert "characterized" in s

    def test_assert_run_ok_passes(self):
        assert_run_ok(quick_run("optp"), expect_optimal=True)

    def test_assert_run_ok_optimality_failure(self):
        scen = fig3()
        r = run_schedule("anbkh", 3, scen.schedule, latency=scen.latency)
        with pytest.raises(AssertionError, match="unnecessary delay"):
            assert_run_ok(r, expect_optimal=True)


class TestSafetyChecker:
    def test_detects_violation_in_doctored_trace(self):
        """Manually build a trace where a process applies writes in the
        wrong order: the checker must flag it."""
        from repro.model.operations import WriteId
        from repro.sim.result import RunResult
        from repro.sim.trace import EventKind, Trace

        t = Trace(2)
        # p0 issues two causally ordered writes (same process => ->po)
        t.record(0.0, 0, EventKind.WRITE, wid=WriteId(0, 1), variable="x", value=1)
        t.record(0.0, 0, EventKind.SEND, wid=WriteId(0, 1))
        t.record(1.0, 0, EventKind.WRITE, wid=WriteId(0, 2), variable="y", value=2)
        t.record(1.0, 0, EventKind.SEND, wid=WriteId(0, 2))
        # p1 applies them REVERSED: unsafe
        t.record(2.0, 1, EventKind.APPLY, wid=WriteId(0, 2), variable="y", value=2)
        t.record(3.0, 1, EventKind.APPLY, wid=WriteId(0, 1), variable="x", value=1)
        result = RunResult(
            protocol_name="doctored", n_processes=2, trace=t, duration=3.0,
            messages_sent=2, bytes_estimate=0, stores=[{}, {}],
            protocol_stats=[{}, {}],
        )
        violations = check_safety(result)
        assert len(violations) == 1
        assert "before its causal predecessor" in violations[0]

    def test_clean_run_no_violations(self):
        assert check_safety(quick_run("optp")) == []


class TestLivenessChecker:
    def test_class_p_missing_apply_detected(self):
        from repro.model.operations import WriteId
        from repro.sim.result import RunResult
        from repro.sim.trace import EventKind, Trace

        t = Trace(2)
        t.record(0.0, 0, EventKind.WRITE, wid=WriteId(0, 1), variable="x", value=1)
        result = RunResult(
            protocol_name="doctored", n_processes=2, trace=t, duration=1.0,
            messages_sent=0, bytes_estimate=0, stores=[{}, {}],
            protocol_stats=[{}, {}], in_class_p=True,
        )
        violations = check_liveness(result)
        assert violations == ["w[p0#1] never applied at p1"]

    def test_ws_accounting_balances(self):
        r = quick_run("ws-receiver")
        assert check_liveness(r) == []

    def test_ws_accounting_detects_imbalance(self):
        r = quick_run("ws-receiver")
        # doctor the stats: claim one fewer skip than actually happened
        skipped = r.stat_total("skipped")
        if skipped == 0:
            pytest.skip("this seed produced no skips")
        r.protocol_stats[0] = dict(r.protocol_stats[0])
        r.protocol_stats[0]["skipped"] = r.protocol_stats[0].get("skipped", 0) + 1
        assert check_liveness(r)

    def test_jimenez_accounting(self):
        r = quick_run("jimenez-token")
        assert check_liveness(r) == []


class TestDelayAudits:
    def test_necessary_delay_has_witness(self):
        scen = fig1_run2()
        r = run_schedule("optp", 3, scen.schedule, latency=scen.latency)
        audits = audit_delays(r)
        assert len(audits) == 1
        assert audits[0].necessary and audits[0].witness is not None

    def test_unnecessary_delay_has_no_witness(self):
        scen = fig3()
        r = run_schedule("anbkh", 3, scen.schedule, latency=scen.latency)
        audits = audit_delays(r)
        unnecessary = [a for a in audits if not a.necessary]
        assert len(unnecessary) == 1
        assert unnecessary[0].witness is None


class TestCharacterization:
    def test_optp_vectors_characterize_co(self):
        r = quick_run("optp", record_state=True)
        ok, errors = check_characterization(r)
        assert ok is True and errors == []

    def test_skipped_without_state(self):
        r = quick_run("optp")  # record_state defaults False
        ok, errors = check_characterization(r)
        assert ok is None

    def test_anbkh_has_no_write_co(self):
        r = quick_run("anbkh", record_state=True)
        ok, _ = check_characterization(r)
        assert ok is None  # FM vectors are not Write_co; not checked

    def test_ws_receiver_vectors_also_characterize(self):
        r = quick_run("ws-receiver", record_state=True)
        ok, errors = check_characterization(r)
        assert ok is True, errors


def doctored(trace, n):
    from repro.sim.result import RunResult

    return RunResult(
        protocol_name="doctored", n_processes=n, trace=trace, duration=0.0,
        messages_sent=0, bytes_estimate=0, stores=[{} for _ in range(n)],
        protocol_stats=[{} for _ in range(n)],
    )


class TestPinnedVerdicts:
    """Exact texts, witnesses and orders, as the checkers reported them
    when each check was a numpy matrix or a per-write scan."""

    def test_safety_messages_and_order(self):
        """p1 applies p0's three ->po-ordered writes backwards, p2 applies
        a causal successor first: one message per inverted pair, per
        process, predecessor-major."""
        from repro.model.operations import WriteId
        from repro.sim.trace import EventKind, Trace

        t = Trace(3)
        for seq in (1, 2, 3):
            t.record(0.0, 0, EventKind.WRITE, wid=WriteId(0, seq),
                     variable="x", value=seq)
        for seq in (3, 2, 1):
            t.record(1.0, 1, EventKind.APPLY, wid=WriteId(0, seq),
                     variable="x", value=seq)
        for seq in (2, 1, 3):
            t.record(2.0, 2, EventKind.APPLY, wid=WriteId(0, seq),
                     variable="x", value=seq)
        assert check_safety(doctored(t, 3)) == [
            "p1 applied w[p0#2] (seq 4) before its causal predecessor "
            "w[p0#1] (seq 5)",
            "p1 applied w[p0#3] (seq 3) before its causal predecessor "
            "w[p0#1] (seq 5)",
            "p1 applied w[p0#3] (seq 3) before its causal predecessor "
            "w[p0#2] (seq 4)",
            "p2 applied w[p0#2] (seq 6) before its causal predecessor "
            "w[p0#1] (seq 7)",
        ]

    @pytest.mark.parametrize("scenario,protocol,expected", [
        (fig3, "anbkh", [(2, (1, 1), 16, False, None)]),
        (fig3, "optp", []),
        (fig1_run2, "optp", [(2, (1, 1), 12, True, (0, 1))]),
        (fig1_run2, "anbkh", [(2, (1, 1), 12, True, (0, 1))]),
    ])
    def test_delay_audits_on_paper_runs(self, scenario, protocol, expected):
        from repro.model.operations import WriteId

        scen = scenario()
        r = run_schedule(protocol, 3, scen.schedule, latency=scen.latency)
        assert [(a.process, a.wid, a.receipt_seq, a.necessary, a.witness)
                for a in audit_delays(r)] == [
            (p, WriteId(*wid), seq, necessary, witness and WriteId(*witness))
            for p, wid, seq, necessary, witness in expected]

    def test_characterization_messages_and_order(self):
        from repro.model.operations import WriteId
        from repro.sim.trace import EventKind, Trace

        t = Trace(2)
        for p, seq, vec in ((0, 1, [1, 0]), (1, 1, [2, 1]), (0, 2, [0, 0])):
            t.record(0.0, p, EventKind.WRITE, wid=WriteId(p, seq),
                     variable="x", value=seq, state={"write_co": vec})
        ok, errors = check_characterization(doctored(t, 2))
        assert ok is False
        assert errors == [
            "w[p0#1] -> w[p0#2]: ->co=True but Write_co</= (1, 0) vs (0, 0)",
            "w[p0#1] -> w[p1#1]: ->co=False but Write_co<= (1, 0) vs (2, 1)",
            "w[p0#2] -> w[p0#1]: ->co=False but Write_co<= (0, 0) vs (1, 0)",
            "w[p0#2] -> w[p1#1]: ->co=False but Write_co<= (0, 0) vs (2, 1)",
        ]


def reference_audits(result):
    """Definition 5 by a scan of each delayed write's causal past."""
    co = result.history.causal_order
    out = []
    for ev in result.trace.events:
        if ev.kind.value != "buffer":
            continue
        witness = None
        for w2 in co.write_causal_past(result.history.write_by_id(ev.wid)):
            applied = result.trace.apply_event(ev.process, w2.wid)
            if applied is None or applied.seq > ev.seq:
                witness = w2.wid
                break
        out.append((ev.process, ev.wid, ev.seq, witness))
    return out


def reference_characterization(result):
    """Theorems 1-2 by comparing every ordered pair of vectors."""
    from repro.core.vectorclock import vc_lt

    vectors = {ev.wid: tuple(ev.state["write_co"])
               for ev in result.trace.events
               if ev.kind.value == "write" and ev.state
               and "write_co" in ev.state}
    co = result.history.causal_order
    writes = [w for w in result.history.writes() if w.wid in vectors]
    wrong = []
    for w1 in writes:
        for w2 in writes:
            if w1.wid != w2.wid and (co.precedes(w1, w2)
                                     != vc_lt(vectors[w1.wid],
                                              vectors[w2.wid])):
                wrong.append((w1.wid, w2.wid))
    return wrong


class TestBitsetChecksMatchReferenceScans:
    @pytest.mark.parametrize("protocol", ["anbkh", "optp", "ws-receiver"])
    @pytest.mark.parametrize("seed", range(4))
    def test_delay_audits(self, protocol, seed):
        cfg = WorkloadConfig(n_processes=4, ops_per_process=25,
                             n_variables=3, seed=seed)
        r = run_schedule(protocol, 4, random_schedule(cfg),
                         latency=SeededLatency(seed, dist="exponential",
                                               mean=1.5))
        audits = audit_delays(r)
        assert [(a.process, a.wid, a.receipt_seq, a.witness)
                for a in audits] == reference_audits(r)
        assert all(a.necessary == (a.witness is not None) for a in audits)

    @pytest.mark.parametrize("seed", range(4))
    def test_characterization_with_corrupted_vectors(self, seed):
        """Scramble some recorded vectors; the bitset comparison flags
        exactly the pairs the pairwise scan flags, in the same order."""
        import random
        from dataclasses import replace

        r = quick_run("optp", seed=seed, record_state=True)
        rng = random.Random(seed)
        events = r.trace.events
        for k, ev in enumerate(events):
            if ev.kind.value == "write" and rng.random() < 0.3:
                vec = [max(0, c + rng.choice((-1, 0, 1)))
                       for c in ev.state["write_co"]]
                events[k] = replace(ev, state={**ev.state, "write_co": vec})
        ok, errors = check_characterization(r)
        wrong = reference_characterization(r)
        assert ok == (not wrong)
        assert [e.split(":")[0] for e in errors] == [
            f"{a} -> {b}" for a, b in wrong]
