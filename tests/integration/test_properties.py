"""Property-based integration tests: the paper's theorems over random
runs.

hypothesis generates workload shapes, latency regimes and seeds; every
generated run is pushed through the full checker.  These are the
machine-checked counterparts of the paper's proofs:

- Theorems 1-2 (characterization) -- `test_write_co_characterizes_co`
- Theorem 3 (safety)              -- inside `check_run` for every run
- Theorem 4 (optimality)          -- `test_optp_delays_all_necessary`,
                                     `test_optp_delays_subset_of_anbkh...`
- Theorem 5 (liveness)            -- inside `check_run` for every run

A caution that shaped the cross-protocol tests here: comparing two
protocols' *end-to-end delay totals* on the same schedule is not a
theorem.  The runs diverge -- a protocol that applies a write earlier
lets a read read-from a newer write, which enlarges the reader's
causal past, and its next write can then buffer at a third replica
where the other run's write does not (hypothesis found a 5-process
schedule where ws-receiver totals 32 delays to OptP's 31).  What *is*
a theorem is the per-receiver predicate comparison on one shared
history: fed the same arrivals, the weaker enabling predicate never
buffers a message the stronger one applies.  `_replay_stream` below
machine-checks exactly that.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import check_run
from repro.core.base import BROADCAST, Disposition, Outgoing, Protocol
from repro.core.optp import WRITE_CO_KEY, OptPProtocol
from repro.core.vectorclock import vc_join_inplace
from repro.protocols.anbkh import ANBKHProtocol
from repro.protocols.ws_receiver import WSReceiverProtocol
from repro.sim import SeededLatency, run_schedule
from repro.workloads import random_schedule

from tests.strategies import (
    latency_kinds,
    latency_seeds,
    make_latency,
    workload_configs,
)

# Run-generating tests are expensive; keep example counts modest but
# meaningful, and disable the too-slow health check.
RUN_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

configs = workload_configs()


def _record_event_streams(base_cls, cfg, lseed):
    """Run ``base_cls`` on a random schedule and capture each process's
    receiver-side view: the interleaved sequence of local writes and
    first message arrivals.  Replaying one stream against two enabling
    predicates compares them on literally the same history -- the only
    setting where the paper's per-event containments are theorems."""
    streams = {}

    class Recording(base_cls):
        # classify() is the arrival hook, so hide the requirement: the
        # node then runs the classify re-scan (the counting scheduler
        # never calls classify).
        requirement = Protocol.requirement

        def __init__(self, pid, n):
            super().__init__(pid, n)
            self._events = streams.setdefault(pid, [])
            self._seen = set()

        def classify(self, msg):
            if msg.wid not in self._seen:
                self._seen.add(msg.wid)
                self._events.append(("arrive", msg))
            return super().classify(msg)

        def write(self, variable, value):
            self._events.append(("write", variable, value))
            return super().write(variable, value)

    sched = random_schedule(cfg)
    run_schedule(Recording, cfg.n_processes, sched,
                 latency=SeededLatency(lseed, dist="exponential", mean=2.0))
    # Guard against a vacuous recording: under full replication every
    # write must have arrived at every other process.
    writes = {pid: sum(ev[0] == "write" for ev in events)
              for pid, events in streams.items()}
    total = sum(writes.values())
    for pid, events in streams.items():
        arrivals = sum(ev[0] == "arrive" for ev in events)
        assert arrivals == total - writes[pid], (
            f"p{pid}: recorded {arrivals} arrivals, "
            f"expected {total - writes[pid]}")
    return streams


def _replay_stream(proto_cls, n, pid, events):
    """Feed one recorded stream to a fresh ``proto_cls`` receiver:
    arrivals classify immediately, buffered messages retry after every
    step.  Local writes are replayed too (they advance the apply
    vector); local reads are not (they touch only send-side state,
    never the enabling predicate).  Returns (wids ever buffered,
    messages still buffered at the end)."""
    proto = proto_cls(pid, n)
    buffered = []
    delayed = set()

    def pump():
        progress = True
        while progress:
            progress = False
            for m in list(buffered):
                d = proto.classify(m)
                if d is not Disposition.BUFFER:
                    if d is Disposition.APPLY:
                        proto.apply_update(m)
                    buffered.remove(m)
                    progress = True

    for ev in events:
        if ev[0] == "write":
            proto.write(ev[1], ev[2])
        else:
            m = ev[1]
            d = proto.classify(m)
            if d is Disposition.APPLY:
                proto.apply_update(m)
            elif d is Disposition.BUFFER:
                buffered.append(m)
                delayed.add(m.wid)
        pump()
    return delayed, len(buffered)


class CoTrackingANBKH(ANBKHProtocol):
    """ANBKH with OptP's ``Write_co`` piggybacked on every message.

    Behaviour (sends, delivery predicate, applies) is pure ANBKH; the
    extra payload key is the co-past vector an OptP sender would have
    attached to the *same* write of the *same* history.  Replaying one
    recorded run against both predicates is Section 3.6 / Figure 3
    machine-checked: ``X_co-safe(e) ⊆ X_ANBKH(e)`` per event, because
    the read-from edges folded into ``Write_co`` are a sub-relation of
    the applied-before-send edges folded into the Fidge-Mattern ``VT``.
    """

    def __init__(self, pid, n):
        super().__init__(pid, n)
        self.co_vec = [0] * n
        self.co_last_write_on = {}

    def write(self, variable, value):
        self.co_vec[self.process_id] += 1
        out = super().write(variable, value)
        vec = tuple(self.co_vec)
        self.co_last_write_on[variable] = vec
        msg = out.outgoing[0].message
        tagged = dataclasses.replace(
            msg, payload={**msg.payload, WRITE_CO_KEY: vec})
        return dataclasses.replace(
            out, outgoing=(Outgoing(tagged, BROADCAST),))

    def read(self, variable):
        lwo = self.co_last_write_on.get(variable)
        if lwo is not None:
            vc_join_inplace(self.co_vec, lwo)
        return super().read(variable)

    def apply_update(self, msg):
        super().apply_update(msg)
        self.co_last_write_on[msg.variable] = msg.payload[WRITE_CO_KEY]


class TestClassPProtocols:
    @RUN_SETTINGS
    @given(cfg=configs, lk=latency_kinds, lseed=latency_seeds)
    def test_optp_runs_are_correct_and_optimal(self, cfg, lk, lseed):
        sched = random_schedule(cfg)
        r = run_schedule("optp", cfg.n_processes, sched,
                         latency=make_latency(lk, lseed), record_state=True)
        report = check_run(r)
        assert report.ok, report.summary()
        # Theorem 4: every delay necessary, on every run.
        assert not report.unnecessary_delays, report.summary()
        # Theorems 1-2: Write_co characterizes ->co (vacuous when the
        # generated workload happened to contain no writes).
        if r.writes_issued:
            assert report.characterization_ok is True

    @RUN_SETTINGS
    @given(cfg=configs, lk=latency_kinds, lseed=latency_seeds)
    def test_anbkh_runs_are_correct(self, cfg, lk, lseed):
        sched = random_schedule(cfg)
        r = run_schedule("anbkh", cfg.n_processes, sched,
                         latency=make_latency(lk, lseed))
        report = check_run(r)
        assert report.ok, report.summary()

    @RUN_SETTINGS
    @given(cfg=configs, lseed=latency_seeds)
    def test_optp_delays_subset_of_anbkh_on_same_stream(self, cfg, lseed):
        """Figure 3 / Table 2: per event of one shared history,
        ``X_co-safe(e) ⊆ X_ANBKH(e)``.  A CoTrackingANBKH run records
        each receiver's arrival stream with both vectors piggybacked;
        replaying the stream shows OptP's predicate never buffers a
        message ANBKH's applies.  (Comparing two separate runs' delay
        *totals* is not sound -- see the module docstring.)"""
        streams = _record_event_streams(CoTrackingANBKH, cfg, lseed)
        n = cfg.n_processes
        for pid, events in streams.items():
            optp_delayed, optp_left = _replay_stream(OptPProtocol, n, pid, events)
            anbkh_delayed, anbkh_left = _replay_stream(ANBKHProtocol, n, pid, events)
            assert optp_left == 0 and anbkh_left == 0
            assert optp_delayed <= anbkh_delayed, (
                f"p{pid}: OptP buffered {sorted(optp_delayed - anbkh_delayed)} "
                f"that ANBKH applied")

    @RUN_SETTINGS
    @given(cfg=configs, lseed=latency_seeds)
    def test_anbkh_unnecessary_delays_are_exactly_the_gap_witnesses(
        self, cfg, lseed
    ):
        """Every ANBKH delay the audit calls unnecessary is a real
        false-causality event: the delayed write's causal past was fully
        applied at receipt."""
        sched = random_schedule(cfg)
        latency = SeededLatency(lseed, dist="exponential", mean=2.0)
        r = run_schedule("anbkh", cfg.n_processes, sched, latency=latency)
        report = check_run(r)
        assert report.ok
        for audit in report.unnecessary_delays:
            assert audit.witness is None


class TestWritingSemanticsProtocols:
    @RUN_SETTINGS
    @given(cfg=configs, lk=latency_kinds, lseed=latency_seeds)
    def test_ws_receiver_runs_are_correct(self, cfg, lk, lseed):
        sched = random_schedule(cfg)
        r = run_schedule("ws-receiver", cfg.n_processes, sched,
                         latency=make_latency(lk, lseed), record_state=True)
        report = check_run(r)
        assert report.ok, report.summary()
        # the OptP-style vectors still characterize ->co
        if r.writes_issued:
            assert report.characterization_ok is True

    @RUN_SETTINGS
    @given(cfg=configs, lseed=latency_seeds)
    def test_ws_delays_subset_of_optp_on_same_stream(self, cfg, lseed):
        """Receiver-side overwriting only *weakens* the enabling
        predicate: fed the same arrival stream, the WS receiver never
        buffers a message plain OptP would apply.  (The end-to-end
        totals are not comparable -- WS applies overwriting writes
        earlier, a read can then read-from the newer write, and the
        enlarged ``Write_co`` can buffer downstream where the OptP
        run's write does not; see the module docstring.)"""
        streams = _record_event_streams(WSReceiverProtocol, cfg, lseed)
        n = cfg.n_processes
        for pid, events in streams.items():
            ws_delayed, ws_left = _replay_stream(WSReceiverProtocol, n, pid, events)
            optp_delayed, optp_left = _replay_stream(OptPProtocol, n, pid, events)
            assert ws_left == 0 and optp_left == 0
            assert ws_delayed <= optp_delayed, (
                f"p{pid}: WS buffered {sorted(ws_delayed - optp_delayed)} "
                f"that OptP applied")

    @RUN_SETTINGS
    @given(cfg=configs, lk=latency_kinds, lseed=latency_seeds)
    def test_jimenez_runs_are_correct(self, cfg, lk, lseed):
        sched = random_schedule(cfg)
        r = run_schedule("jimenez-token", cfg.n_processes, sched,
                         latency=make_latency(lk, lseed))
        report = check_run(r)
        assert report.ok, report.summary()

    @RUN_SETTINGS
    @given(cfg=configs, lseed=latency_seeds)
    def test_ws_skip_plus_discard_accounting(self, cfg, lseed):
        """Every skip eventually produces exactly one discarded message
        (channels are reliable), so at quiescence skips == discards."""
        sched = random_schedule(cfg)
        r = run_schedule("ws-receiver", cfg.n_processes, sched,
                         latency=SeededLatency(lseed, dist="exponential", mean=2.0))
        assert r.stat_total("skipped") == r.discards


class TestExtensionProtocols:
    @RUN_SETTINGS
    @given(cfg=configs, lseed=latency_seeds)
    def test_sequencer_runs_are_correct(self, cfg, lseed):
        sched = random_schedule(cfg)
        r = run_schedule("sequencer", cfg.n_processes, sched,
                         latency=make_latency("uniform", lseed))
        report = check_run(r)
        assert report.ok, report.summary()

    @RUN_SETTINGS
    @given(cfg=configs, lseed=latency_seeds)
    def test_gossip_runs_are_correct_and_optimal(self, cfg, lseed):
        sched = random_schedule(cfg)
        r = run_schedule("gossip-optp", cfg.n_processes, sched,
                         latency=make_latency("exponential", lseed))
        report = check_run(r)
        assert report.ok, report.summary()
        # footnote 5: optimality is propagation-independent
        assert not report.unnecessary_delays, report.summary()

    @RUN_SETTINGS
    @given(cfg=configs, lseed=latency_seeds,
           k=st.integers(min_value=1, max_value=3))
    def test_partial_runs_are_correct(self, cfg, lseed, k):
        from repro.protocols.partial import ReplicationMap, partial_factory
        from repro.workloads.generators import random_partial_schedule

        k = min(k, cfg.n_processes)
        variables = [f"x{i}" for i in range(cfg.n_variables)]
        rmap = ReplicationMap.round_robin(variables, cfg.n_processes, k)
        sched = random_partial_schedule(cfg, rmap)
        r = run_schedule(partial_factory(rmap), cfg.n_processes, sched,
                         latency=make_latency("exponential", lseed))
        report = check_run(r)
        assert report.ok, report.summary()
        assert not report.unnecessary_delays, report.summary()


class TestConvergence:
    @RUN_SETTINGS
    @given(cfg=configs, lseed=latency_seeds)
    def test_replicas_agree_on_causally_final_writes(self, cfg, lseed):
        """For every variable whose writes are totally ordered by ->co,
        all replicas must end with the ->co-maximal write's value."""
        sched = random_schedule(cfg)
        r = run_schedule("optp", cfg.n_processes, sched,
                         latency=SeededLatency(lseed))
        co = r.history.causal_order
        by_var = {}
        for w in r.history.writes():
            by_var.setdefault(w.variable, []).append(w)
        for var, writes in by_var.items():
            # totally ordered?
            chain = all(
                co.precedes(a, b) or co.precedes(b, a)
                for i, a in enumerate(writes)
                for b in writes[i + 1:]
            )
            if not chain:
                continue
            final = max(
                writes, key=lambda w: sum(co.precedes(o, w) for o in writes)
            )
            for store in r.stores:
                assert store[var][1] == final.wid
