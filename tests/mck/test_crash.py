"""Crash-fault model checking: exhaustive crash/recover exploration,
crash-stop accounting, and the BrokenRecovery mutation self-check.

The crash adversary adds ``crash(p)`` / ``recover(p)`` transitions to
the interleaving space; recovery rebuilds the victim from its in-memory
snapshot + WAL with the server's own routine
(``repro.durability.recover_node``).  Clean protocols must
survive *every* placement of the crash with zero violations; a recovery
path that forgets the WAL tail (``losetail:N``) must be rejected with a
short replayable witness -- otherwise the crash checks check nothing.
"""

import pytest

from repro.mck import (
    CheckConfig,
    check,
    minimize_witness,
    parse_faults,
    workload_by_name,
)
from repro.mck.faults import NO_FAULTS, FaultSpec
from repro.mck.witness import replay_path


def run_exhaustive(protocol, workload_name, faults="none", **kwargs):
    return check(CheckConfig(
        protocol=protocol,
        workload=workload_by_name(workload_name),
        faults=parse_faults(faults),
        **kwargs,
    ))


class TestCrashRecovery:
    @pytest.mark.parametrize("workload", ["pair", "chain"])
    @pytest.mark.parametrize("protocol", ["optp", "anbkh"])
    def test_clean_under_crash_recover(self, protocol, workload):
        r = run_exhaustive(protocol, workload, faults="crash")
        assert r.ok, [str(v.finding) for v in r.violations]
        assert not r.state_limit_hit
        assert r.terminals["stuck"] == 0
        # the adversary really ran: crash placements multiply the space
        baseline = run_exhaustive(protocol, workload)
        assert r.states > baseline.states

    def test_pure_wal_replay_clean(self):
        """snap:0 disables snapshot folding -- recovery is a full WAL
        replay from the initial state on every explored path."""
        r = run_exhaustive("optp", "pair", faults="crash,snap:0")
        assert r.ok, [str(v.finding) for v in r.violations]
        assert r.terminals["stuck"] == 0

    def test_crash_composes_with_duplicates(self):
        """Crash + retransmission duplicates: the recovered replica's
        restored dedup guard must still drop replays."""
        r = run_exhaustive("optp", "pair", faults="crash,dup:1")
        assert r.ok, [str(v.finding) for v in r.violations]


class TestCrashStop:
    def test_survivors_quiesce_without_the_victim(self):
        r = run_exhaustive("optp", "pair", faults="crash,norecover")
        assert r.ok, [str(v.finding) for v in r.violations]
        assert r.terminals["stuck"] == 0

    def test_recover_disabled(self):
        from repro.mck import ControlledCluster
        cluster = ControlledCluster(
            "optp", workload_by_name("pair"),
            faults=parse_faults("crash,norecover"))
        cluster.execute(("crash", 0))
        assert not any(t[0] == "recover" for t in cluster.enabled())


class TestRecoveredLedger:
    @pytest.mark.parametrize("faults", ["crash", "crash,losetail:1"])
    def test_rebuilt_node_keeps_the_traces_counts(self, faults):
        """The rebuilt node's quiescence ledger is what the trace saw
        at that process, not what its replay re-did: a write a broken
        recovery lost is still owed to every process."""
        from repro.mck import ControlledCluster
        from repro.sim.trace import EventKind

        cluster = ControlledCluster("optp", workload_by_name("pair"),
                                    faults=parse_faults(faults))
        cluster.execute(("op", 1))                  # p1 writes y
        cluster.execute(("deliver", "u:1.0>0"))     # p0 applies it
        cluster.execute(("op", 0))                  # p0 writes x
        crashed = cluster.nodes[0]
        cluster.execute(("crash", 0))
        cluster.execute(("recover", 0))
        rebuilt = cluster.nodes[0]
        assert rebuilt is not crashed and not rebuilt.crashed
        events = cluster.trace.process_events(0)
        kinds = [e.kind for e in events]
        assert (rebuilt.writes, rebuilt.deferred_applies,
                rebuilt.remote_applies) == (
            kinds.count(EventKind.WRITE), 0, kinds.count(EventKind.APPLY))
        assert (rebuilt.writes, rebuilt.remote_applies) == (1, 1)


class TestBrokenRecoveryMutation:
    """Self-check: a recovery that loses the WAL tail must be caught."""

    def _config(self):
        return CheckConfig(
            protocol="optp",
            workload=workload_by_name("pair"),
            faults=parse_faults("crash,losetail:1"),
            stop_on_violation=True,
        )

    def test_rejected_with_replayable_witness(self):
        config = self._config()
        r = check(config)
        assert not r.ok

        violation = r.violations[0]
        minimal = minimize_witness(config, list(violation.choices))
        assert 0 < len(minimal) <= len(violation.choices)
        assert any(t[0] == "crash" for t in minimal)
        assert any(t[0] == "recover" for t in minimal)
        outcome = replay_path(config, minimal)
        assert outcome.findings, "minimized witness must still reproduce"
        again = replay_path(config, minimal)
        assert again.trace_jsonl == outcome.trace_jsonl

    def test_witness_is_short(self):
        config = self._config()
        r = check(config)
        minimal = minimize_witness(config, list(r.violations[0].choices))
        assert len(minimal) <= 8, minimal


class TestCrashGuards:
    def test_snapshotless_protocol_rejected(self):
        from repro.mck import ControlledCluster
        with pytest.raises(ValueError, match="does not support snapshots"):
            ControlledCluster("gossip-optp", workload_by_name("pair"),
                              faults=parse_faults("crash"))

    def test_timer_protocol_rejected(self):
        """Timer firings are not journaled, so even a snapshot-capable
        protocol with timers is outside the crash model."""
        from repro.core.optp import OptPProtocol
        from repro.mck import ControlledCluster

        class TimeredOptP(OptPProtocol):
            timer_interval = 1.0

        with pytest.raises(ValueError, match="timer"):
            ControlledCluster(TimeredOptP, workload_by_name("pair"),
                              faults=parse_faults("crash"))


class TestFaultGrammar:
    @pytest.mark.parametrize("text,expected", [
        ("crash", FaultSpec(crash=1)),
        ("crash:2", FaultSpec(crash=2)),
        ("crash,norecover", FaultSpec(crash=1, recover=False)),
        ("crash,snap:0", FaultSpec(crash=1, snap_every=0)),
        ("crash,losetail:1", FaultSpec(crash=1, wal_lose_tail=1)),
        ("crash:1,dup:1", FaultSpec(crash=1, duplicate=1)),
        ("none", NO_FAULTS),
    ])
    def test_parse(self, text, expected):
        assert parse_faults(text) == expected

    @pytest.mark.parametrize("spec", [
        FaultSpec(crash=1),
        FaultSpec(crash=2, recover=False, snap_every=0),
        FaultSpec(crash=1, wal_lose_tail=3, snap_every=5),
    ])
    def test_dict_round_trip(self, spec):
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_negative_budgets_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(crash=-1)
        with pytest.raises(ValueError):
            FaultSpec(snap_every=-1)
        with pytest.raises(ValueError):
            FaultSpec(wal_lose_tail=-1)
