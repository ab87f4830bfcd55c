"""Delivery scheduling: when do buffered update messages get re-examined?

The paper's Figure 5 suspends a synchronization thread "till the
condition becomes true".  The substrate realizes the wakeup one of two
ways, chosen by :class:`~repro.sim.node.Node` from what the protocol
declares (never by an argument):

- :class:`CountingScheduler` -- for protocols that declare a
  :meth:`~repro.core.base.Protocol.requirement`.  The wait predicate is
  evaluated **once**, at receipt
  (:meth:`~repro.core.base.Protocol.missing_deps`); a blocked message
  is parked under *every* unsatisfied ``(component, required)`` key
  with an unsatisfied-counter, each apply fires exactly one key (one
  dict pop), and a message is ready when its counter reaches zero --
  O(1) amortized per apply.  Duplicates of already-applied writes
  (under ``duplicate_prob`` without ``dedup``) are *dead-parked*: they
  stay in the buffer forever, exactly like the wedged duplicates of
  the re-scan.

- :class:`RescanScheduler` -- for protocols that cannot enumerate
  their wait predicate (token batches, gossip, writing-semantics
  receivers): after every apply, re-classify the pending buffer
  front-to-back and perform the first actionable message, restarting
  until a fixpoint.  O(B) per apply, but it only needs
  :meth:`~repro.core.base.Protocol.classify`.

Both realize the same canonical drain order -- *apply the
oldest-buffered actionable message first, repeatedly* -- so a protocol
run with its requirement hidden produces byte-identical traces
(``tests/integration/test_scheduler_differential.py``).  The re-scan
picks the lowest-position actionable message by construction; the
counting path keeps ready messages in a min-heap keyed by buffer
arrival sequence, which coincides because a message becomes actionable
exactly when its last missing dependency fires.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.base import Disposition, Protocol, UpdateMessage
from repro.obs.spans import NULL_OBS, Obs

ApplyCallback = Callable[[UpdateMessage], None]
DiscardCallback = Callable[[UpdateMessage], None]
Clock = Callable[[], float]


class DeliveryScheduler:
    """Owns a node's pending buffer and its wakeup policy.

    The hosting :class:`~repro.sim.node.Node` records trace events and
    mutates protocol state; the scheduler only decides *which* buffered
    message to hand back next.  Interaction protocol:

    - ``offer(msg)`` -- a receipt: evaluate the wait predicate and
      return its disposition; on ``BUFFER`` the message is parked;
    - ``notify_applied(msg)`` -- the node applied ``msg``, the message
      the scheduler last handed out (``offer`` reporting ``APPLY`` or
      ``pump`` calling ``apply_cb``); the scheduler marks dependencies
      satisfied;
    - ``pump(apply_cb, discard_cb)`` -- perform every now-actionable
      buffered message, oldest-buffered first, until a fixpoint.  The
      callbacks re-enter ``notify_applied``, so cascades (one apply
      unblocking the next) happen inside a single pump.
    """

    #: label of the ``sched.parks`` series (introspection only).
    mode: str = "abstract"

    def __init__(
        self,
        protocol: Protocol,
        *,
        obs: Obs = NULL_OBS,
        clock: Optional[Clock] = None,
    ):
        self.protocol = protocol
        #: observability handle; every hook call is gated on
        #: ``obs.enabled`` so disabled runs pay one branch per hook.
        self._obs = obs
        self._clock: Clock = clock if clock is not None else (lambda: 0.0)
        if obs.enabled:
            pid = protocol.process_id
            reg = obs.registry
            self._m_parks = reg.counter(
                "sched.parks", process=pid, mode=self.mode)
            self._m_wakeups = reg.counter("sched.wakeups", process=pid)
            self._m_reparks = reg.counter("sched.reparks", process=pid)
            self._m_dead_parked = reg.counter("sched.dead_parked", process=pid)
            self._m_scans = reg.counter("sched.scan_classifies", process=pid)
            self._g_buffer_depth = reg.gauge("sched.buffer_depth", process=pid)
            self._g_index_depth = reg.gauge("sched.index_depth", process=pid)

    def offer(self, msg: UpdateMessage) -> Disposition:
        raise NotImplementedError

    def notify_applied(self, msg: UpdateMessage) -> None:
        raise NotImplementedError

    def pump(self, apply_cb: ApplyCallback, discard_cb: DiscardCallback) -> None:
        raise NotImplementedError

    def buffered(self) -> List[UpdateMessage]:
        """Buffered messages in arrival order (introspection)."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError


class RescanScheduler(DeliveryScheduler):
    """Full re-scan of the buffer per apply; needs only ``classify``."""

    mode = "rescan"

    def __init__(self, protocol: Protocol, **kwargs):
        super().__init__(protocol, **kwargs)
        self._pending: List[UpdateMessage] = []

    def offer(self, msg: UpdateMessage) -> Disposition:
        disposition = self.protocol.classify(msg)
        if disposition is Disposition.BUFFER:
            self._pending.append(msg)
            if self._obs.enabled:
                self._m_parks.inc()
                self._g_buffer_depth.set(len(self._pending))
                # no attribution: the wait predicate is not enumerable
                self._obs.sink.on_buffer(
                    self._clock(), self.protocol.process_id, msg.wid, None)
        return disposition

    def notify_applied(self, msg: UpdateMessage) -> None:
        pass  # the next pump() re-scans everything anyway

    def pump(self, apply_cb: ApplyCallback, discard_cb: DiscardCallback) -> None:
        # Canonical order: perform the oldest actionable message, then
        # restart (an apply may enable messages parked earlier in the
        # buffer).  Removal is by index -- ``pending.remove(msg)`` would
        # re-scan the list by value on every hit, turning each sweep
        # quadratic.
        pending = self._pending
        obs_on = self._obs.enabled
        i = 0
        while i < len(pending):
            msg = pending[i]
            disposition = self.protocol.classify(msg)
            if obs_on:
                self._m_scans.inc()
            if disposition is Disposition.BUFFER:
                i += 1
                continue
            del pending[i]
            if disposition is Disposition.APPLY:
                apply_cb(msg)
            else:
                discard_cb(msg)
            i = 0

    def buffered(self) -> List[UpdateMessage]:
        return list(self._pending)

    def __len__(self) -> int:
        return len(self._pending)

    def clear(self) -> None:
        self._pending.clear()


class CountingScheduler(DeliveryScheduler):
    """Counting wakeups over requirement rows.

    - :meth:`offer` runs the protocol's one predicate evaluation
      (:meth:`~repro.core.base.Protocol.missing_deps`) and either
      reports ``APPLY`` or parks the message under *every* unsatisfied
      key with an unsatisfied-counter;
    - :meth:`notify_applied` fires the applied message's pivot key
      ``(pivot, row[pivot])`` -- one dict pop per apply, from the
      requirement :meth:`offer` / :meth:`pump` handed out with the
      message, never a second ``requirement()`` call -- decrements the
      counters parked under it, and queues messages whose counter hits
      zero;
    - :meth:`pump` drains the ready heap oldest-arrival first.  The
      only *behavioural* recheck needed at pop time is the O(1) pivot
      test: progress components are monotone, so a satisfied ``>=``
      bound stays satisfied, and only the exact-match pivot can
      *overshoot* (a duplicate raced its original in; dead-park it).
      An undershoot is impossible -- the counter reaches zero only
      after the pivot's own key fired.  With obs on, the heap
      additionally carries flagged *recheck* entries so a re-park is
      reported at pop time, in arrival order, interleaved with the
      cascade -- the wait-interval tiling ``obs.critpath`` attributes
      (pinned by ``tests/integration/test_flat_obs_parity.py``).
    """

    mode = "counting"

    def __init__(self, protocol: Protocol, **kwargs):
        super().__init__(protocol, **kwargs)
        if protocol.progress is None:
            raise TypeError(
                f"{type(protocol).__name__} declares a requirement but "
                "binds no progress vector"
            )
        #: arrival order -> message; insertion-ordered, O(1) removal.
        self._buffered: Dict[int, UpdateMessage] = {}
        #: arrival order -> [msg, requirement, unsatisfied-count,
        #: still-unsatisfied keys (span emission only),
        #: pending-obs-recheck flag].
        self._slots: Dict[int, List] = {}
        #: requirement of the message last handed out for apply (by
        #: ``offer`` or ``pump``); ``notify_applied`` fires its pivot.
        self._handed: Optional[Tuple] = None
        #: wakeup index: key -> arrival seqs parked under it.
        self._parked: Dict[Tuple[int, int], List[int]] = {}
        #: ready-to-apply arrivals, min-heap.
        self._ready: List[int] = []
        self._arrivals = 0
        #: counters for tests / benchmarks
        self.wakeups = 0
        self.dead_parked = 0

    # -- receipt ---------------------------------------------------------------

    def offer(self, msg: UpdateMessage) -> Disposition:
        protocol = self.protocol
        requirement = protocol.requirement(msg)
        missing = protocol.missing_deps(msg, requirement)
        if not missing:
            self._handed = requirement
            return Disposition.APPLY
        seq = self._arrivals
        self._arrivals += 1
        self._buffered[seq] = msg
        obs_on = self._obs.enabled
        head = missing[0]
        if protocol.progress[head[0]] > head[1]:
            # An overshot pivot: duplicate of an already-applied write,
            # permanently undeliverable (wedged-buffer semantics).
            head = None
            self.dead_parked += 1
            if obs_on:
                self._m_dead_parked.inc()
        else:
            parked = self._parked
            for key in missing:
                parked.setdefault(key, []).append(seq)
            self._slots[seq] = [msg, requirement, len(missing), missing,
                                False]
        if obs_on:
            self._m_parks.inc()
            self._g_buffer_depth.set(len(self._buffered))
            self._g_index_depth.set(len(self._parked))
            self._obs.sink.on_buffer(
                self._clock(), protocol.process_id, msg.wid, head)
        return Disposition.BUFFER

    # -- wakeups ---------------------------------------------------------------

    def notify_applied(self, msg: UpdateMessage) -> None:
        parked = self._parked
        if not parked:
            return  # nothing waits (the in-order steady state)
        row, pivot = self._handed
        key = (pivot, row[pivot])
        seqs = parked.pop(key, None)
        if seqs:
            slots = self._slots
            ready = self._ready
            obs_on = self._obs.enabled
            for seq in seqs:
                slot = slots[seq]
                slot[2] -= 1
                if slot[2] == 0:
                    heapq.heappush(ready, seq)
                elif obs_on:
                    # The head of the still-unsatisfied keys is the
                    # dependency the open wait interval is charged to.
                    # When it fires the message is *woken*; whether it
                    # re-parks under the next key is decided when the
                    # pump pops it (in arrival order, interleaved with
                    # the cascade) -- by then a same-instant apply may
                    # have cleared the rest.  Components are monotone,
                    # so "not yet fired" == "still missing" and the
                    # surviving original order is the order a fresh
                    # evaluation would report.
                    keys = slot[3]
                    was_head = keys[0] == key
                    keys.remove(key)
                    if was_head and not slot[4]:
                        slot[4] = True
                        heapq.heappush(ready, seq)
            self.wakeups += len(seqs)
            if obs_on:
                self._m_wakeups.inc(len(seqs))
                self._g_index_depth.set(len(parked))

    def pump(self, apply_cb: ApplyCallback, discard_cb: DiscardCallback) -> None:
        # discard_cb is part of the scheduler interface but unused: a
        # requirement never classifies DISCARD.
        ready = self._ready
        progress = self.protocol.progress
        slots = self._slots
        while ready:
            seq = heapq.heappop(ready)
            slot = slots.get(seq)
            if slot is None:
                # A recheck entry whose message applied before the pop
                # reached it (its counter hit zero later in the same
                # cascade), or the stale twin of such a pair.
                continue
            if slot[2]:
                # Obs recheck entry: woken by its head dependency but
                # still blocked now that the cascade reached it --
                # re-parked under the surviving head dependency.
                slot[4] = False
                if self._obs.enabled:
                    self._m_reparks.inc()
                    self._obs.sink.on_repark(
                        self._clock(), self.protocol.process_id,
                        slot[0].wid, slot[3][0],
                    )
                continue
            del slots[seq]
            msg = slot[0]
            row, pivot = slot[1]
            if progress[pivot] != row[pivot] - 1:
                # Overshoot only (undershoot cannot reach the heap): a
                # duplicate whose original applied first.  Keep it in
                # the buffer forever; the terminal wait is reported as
                # a dependency-less repark.
                self.dead_parked += 1
                if self._obs.enabled:
                    self._m_dead_parked.inc()
                    self._m_reparks.inc()
                    self._obs.sink.on_repark(
                        self._clock(), self.protocol.process_id, msg.wid, None
                    )
                continue
            del self._buffered[seq]
            self._handed = slot[1]
            apply_cb(msg)  # re-enters notify_applied -> may refill ready

    # -- introspection -----------------------------------------------------------

    def buffered(self) -> List[UpdateMessage]:
        return list(self._buffered.values())

    def __len__(self) -> int:
        return len(self._buffered)

    def clear(self) -> None:
        self._buffered.clear()
        self._slots.clear()
        self._parked.clear()
        self._ready.clear()
        self._handed = None
