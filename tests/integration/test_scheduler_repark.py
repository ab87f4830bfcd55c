"""Adversarial re-park coverage for the counting scheduler.

A causal chain a -> b -> c delivered to an observer in *reverse* order
forces the scheduler through its multi-key path: c parks under both
a's and b's keys, is woken when a lands, is still blocked (b is
missing) when the pump reaches it, and is reported re-parked under b's
key -- the one transition the random differential workloads only hit
occasionally.  Every delivery permutation of the chain must stay
byte-identical with the classify re-scan
(:func:`tests.oracle.hide_requirement`), and the wakeup/re-park
counters must show the counting path actually took the transitions
(not a silent fallback).

Topology (n=4, OptP):

- p0 writes x at t=0.0                       (message a, wid (0,1))
- p1 reads x at 2.0, writes y at 2.5         (message b, depends on a)
- p2 reads y at 4.0, writes z at 4.5         (message c, depends on b)
- p3 issues nothing; scripted latencies pick the arrival order of
  a, b, c there.  All other hops use the default latency (1.0), which
  keeps every non-p3 delivery in causal order.
"""

import itertools

import pytest

from repro.model.operations import WriteId
from repro.sim import run_schedule
from repro.sim.latency import ScriptedLatency, message_key
from repro.sim.serialize import trace_to_jsonl
from repro.workloads import ReadOp, Schedule, ScheduledOp, WriteOp

from tests.oracle import hide_requirement

#: send times of the three chained writes (see module docstring).
SENDS = {
    WriteId(0, 1): 0.0,
    WriteId(1, 1): 2.5,
    WriteId(2, 1): 4.5,
}

OBSERVER = 3


def chain_schedule():
    return Schedule.of([
        ScheduledOp(0.0, 0, WriteOp("x")),
        ScheduledOp(2.0, 1, ReadOp("x")),
        ScheduledOp(2.5, 1, WriteOp("y")),
        ScheduledOp(4.0, 2, ReadOp("y")),
        ScheduledOp(4.5, 2, WriteOp("z")),
    ])


def scripted(arrival_order):
    """Latency model delivering the chain to p3 in ``arrival_order``
    (a tuple of WriteIds) at t=5.0, 6.0, 7.0."""
    script = {}
    for slot, wid in enumerate(arrival_order):
        arrival = 5.0 + slot
        script[(("update", wid), OBSERVER)] = arrival - SENDS[wid]
    return ScriptedLatency(script, default=1.0)


def run_chain(latency, obs=None, protocol="optp"):
    return run_schedule(protocol, 4, chain_schedule(), latency=latency,
                        record_state=True, obs=obs)


@pytest.mark.parametrize(
    "order", list(itertools.permutations(sorted(SENDS))),
    ids=lambda o: "-".join(f"p{w.process}" for w in o),
)
def test_every_delivery_order_matches_legacy(order):
    latency = scripted(order)
    r_rescan = run_chain(latency, protocol=hide_requirement("optp"))
    r_counting = run_chain(latency)
    assert trace_to_jsonl(r_rescan.trace) == trace_to_jsonl(r_counting.trace)
    assert r_rescan.stores == r_counting.stores
    assert r_rescan.write_delays == r_counting.write_delays
    # the chain fully applies everywhere both ways
    assert all(len(store) == 3 for store in r_counting.stores)


def test_reverse_order_exercises_the_repark_path():
    """Reverse delivery (c, b, a) at p3: both parked messages wake on
    a's apply; c (woken first, still missing b) is re-parked under b's
    key and wakes again.  3 wakeups, 1 re-park, nothing dead-parked."""
    from repro.obs import Obs

    obs = Obs.recording()
    a, b, c = sorted(SENDS)
    result = run_chain(scripted((c, b, a)), obs=obs)
    reg = obs.registry
    assert reg.value("sched.wakeups", process=OBSERVER) == 3
    assert reg.value("sched.reparks", process=OBSERVER) == 1
    assert not reg.value("sched.dead_parked", process=OBSERVER)
    # both chained messages were write-delayed (buffered) at p3
    assert reg.value("sched.parks", process=OBSERVER, mode="counting") == 2
    waits = {s.wid: [w.dep for w in s.waits]
             for s in result.spans if s.process == OBSERVER}
    assert waits[c] == [(a.process, a.seq), (b.process, b.seq)]
    assert waits[b] == [(a.process, a.seq)]
    assert waits[a] == []


def test_in_order_delivery_never_parks():
    """Control: causal-order delivery (a, b, c) buffers nothing."""
    from repro.obs import Obs

    obs = Obs.recording()
    a, b, c = sorted(SENDS)
    run_chain(scripted((a, b, c)), obs=obs)
    reg = obs.registry
    assert not reg.value("sched.parks", process=OBSERVER, mode="counting")
    assert not reg.value("sched.wakeups", process=OBSERVER)
