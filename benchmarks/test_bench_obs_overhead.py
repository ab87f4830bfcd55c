"""Observability overhead budget: disabled-obs must cost <= 5%.

Every instrumentation hook on the simulator's hot paths is gated on a
single ``if obs.enabled:`` branch (instrument handles are resolved once
at construction).  This benchmark checks the budget on the most
hook-dense workload we have -- the reversed-chain scheduler drain of
``test_bench_scheduler.py``, where every message goes receipt -> park
-> wakeup -> apply, hitting Node and CountingScheduler hooks on each
step.

Three variants over the same workload:

- ``bare``      -- benchmark-local Node/scheduler subclasses whose hot
                   methods are the shipped bodies with the obs gates
                   removed (no obs attribute loads, no branches): the
                   honest "instrumentation absent" control;
- ``disabled``  -- the shipped code with the default ``NULL_OBS``
                   handle (what every non-observed run pays);
- ``enabled``   -- ``Obs.recording()``: metrics + spans materialized.

The acceptance bar (asserted, and written to ``BENCH_obs.json``):
``disabled / bare <= 1.05``.  ``enabled`` is reported for context; it
has no bar -- recording is allowed to cost real work.
"""

import gc
import heapq
import json
import time
from pathlib import Path

import pytest

from repro.core.base import Disposition
from repro.core.optp import OptPProtocol
from repro.obs import Obs
from repro.sim.node import Node
from repro.sim.scheduler import CountingScheduler
from repro.sim.trace import EventKind, Trace

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_obs.json"

CHAIN_DEPTH = 1024
N_PROCESSES = 64
OVERHEAD_CEILING = 1.05
#: absolute-noise guard: on a sub-millisecond delta the ratio test
#: measures the OS scheduler, not the code under test.
NOISE_FLOOR_S = 0.002


class BareScheduler(CountingScheduler):
    """CountingScheduler with the obs gates stripped from the hot path
    (offer / notify_applied / pump bodies minus every hook)."""

    def offer(self, msg):
        protocol = self.protocol
        requirement = protocol.requirement(msg)
        missing = protocol.missing_deps(msg, requirement)
        if not missing:
            self._handed = requirement
            return Disposition.APPLY
        seq = self._arrivals
        self._arrivals += 1
        self._buffered[seq] = msg
        head = missing[0]
        if protocol.progress[head[0]] > head[1]:
            self.dead_parked += 1
        else:
            parked = self._parked
            for key in missing:
                parked.setdefault(key, []).append(seq)
            self._slots[seq] = [msg, requirement, len(missing)]
        return Disposition.BUFFER

    def notify_applied(self, msg):
        parked = self._parked
        if not parked:
            return
        row, pivot = self._handed
        seqs = parked.pop((pivot, row[pivot]), None)
        if seqs:
            slots = self._slots
            ready = self._ready
            for seq in seqs:
                slot = slots[seq]
                slot[2] -= 1
                if slot[2] == 0:
                    heapq.heappush(ready, seq)
            self.wakeups += len(seqs)

    def pump(self, apply_cb, discard_cb):
        ready = self._ready
        progress = self.protocol.progress
        slots = self._slots
        while ready:
            seq = heapq.heappop(ready)
            slot = slots.pop(seq, None)
            if slot is None:  # pragma: no cover - defensive
                continue
            row, pivot = slot[1]
            if progress[pivot] != row[pivot] - 1:
                self.dead_parked += 1
                continue
            del self._buffered[seq]
            self._handed = slot[1]
            apply_cb(slot[0])


class BareNode(Node):
    """Node with the obs gates stripped from the receive/apply path."""

    def _receive_update(self, msg):
        now = self.clock()
        trace = self.trace
        trace.record_compact(now, self.process_id, EventKind.RECEIPT,
                             msg.wid, msg.variable, msg.value)
        disposition = self.scheduler.offer(msg)
        if disposition is Disposition.APPLY:
            self._apply(msg)
            self.scheduler.pump(self._apply, self._discard)
        elif disposition is Disposition.BUFFER:
            trace.record_compact(now, self.process_id, EventKind.BUFFER,
                                 msg.wid, msg.variable)
        else:
            self._discard(msg)

    def _apply(self, msg):
        self.protocol.apply_update(msg)
        self.trace.record_compact(self.clock(), self.process_id,
                                  EventKind.APPLY,
                                  msg.wid, msg.variable, msg.value)
        self.scheduler.notify_applied(msg)
        self.remote_applies += 1


def reversed_chain(n=N_PROCESSES, depth=CHAIN_DEPTH):
    sender = OptPProtocol(0, n)
    msgs = [sender.write("x", k).outgoing[0].message for k in range(depth)]
    msgs.reverse()
    return msgs


def make_node(variant, n=N_PROCESSES):
    trace = Trace(n)
    if variant == "bare":
        node = BareNode(OptPProtocol(1, n), trace, clock=lambda: 0.0,
                        dispatch=lambda *a: None)
        node.scheduler = BareScheduler(node.protocol)
        return node
    obs = Obs.recording() if variant == "enabled" else None
    kwargs = {"obs": obs} if obs is not None else {}
    return Node(OptPProtocol(1, n), trace, clock=lambda: 0.0,
                dispatch=lambda *a: None, **kwargs)


def drain(variant, msgs, n=N_PROCESSES):
    node = make_node(variant, n)
    for m in msgs:
        node.receive(m)
    assert node.buffered_count == 0
    return node


VARIANTS = ["bare", "disabled", "enabled"]


@pytest.mark.parametrize("variant", VARIANTS)
def test_bench_obs_drain(benchmark, variant):
    msgs = reversed_chain()
    benchmark.pedantic(drain, args=(variant, msgs), rounds=3, iterations=1)


def test_bare_variant_matches_shipped_behaviour():
    """The control must do the same protocol work as the real path."""
    msgs = reversed_chain(n=8, depth=32)
    bare = drain("bare", msgs, n=8)
    real = drain("disabled", msgs, n=8)
    assert len(bare.trace.apply_order(1)) == len(real.trace.apply_order(1)) == 32
    assert bare.scheduler.wakeups == real.scheduler.wakeups
    assert type(real.scheduler) is CountingScheduler


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _best_of_interleaved(fns, repeats=9):
    """Best-of timings with the variants *interleaved* round-robin, so
    clock-frequency / thermal drift lands on every variant equally --
    back-to-back blocks per variant systematically skew the ratios at
    this (~20 ms) measurement scale.  GC is parked while timing (a
    collection pause is ~10% of one measurement and lands on whichever
    variant is unlucky)."""
    best = {name: float("inf") for name in fns}
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            gc.collect()
            for name, fn in fns.items():
                t0 = time.perf_counter()
                fn()
                best[name] = min(best[name], time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return best


def test_obs_overhead_report():
    """Times all variants, asserts the disabled-mode ceiling, and
    writes the committed ``BENCH_obs.json`` artifact."""
    msgs = reversed_chain()
    timings = _best_of_interleaved(
        {v: (lambda v=v: drain(v, msgs)) for v in VARIANTS})
    ratio = timings["disabled"] / timings["bare"]

    report = {
        "bench": "observability hot-path overhead",
        "workload": {
            "shape": "single-sender reversed chain, counting scheduler",
            "chain_depth": CHAIN_DEPTH,
            "n_processes": N_PROCESSES,
        },
        "best_of_s": {v: round(t, 6) for v, t in timings.items()},
        "disabled_over_bare": round(ratio, 4),
        "enabled_over_bare": round(timings["enabled"] / timings["bare"], 4),
        "ceiling": OVERHEAD_CEILING,
    }
    RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")

    within_noise = (timings["disabled"] - timings["bare"]) <= NOISE_FLOOR_S
    assert ratio <= OVERHEAD_CEILING or within_noise, (
        f"disabled-observability overhead {ratio:.3f}x exceeds the "
        f"{OVERHEAD_CEILING}x budget: {report['best_of_s']}"
    )
