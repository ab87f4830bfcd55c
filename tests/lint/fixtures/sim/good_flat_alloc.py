"""GOOD: delivery hot zones stay allocation-free; conversions happen in
constructors and audit views, off the per-delivery path (RL009)."""


class CountingScheduler:
    def __init__(self, protocol):
        self.protocol = protocol
        # one-time conversions are fine: __init__ is not a hot zone.
        self.initial = list(protocol.progress)
        self.parked = {}
        self.ready = []

    def offer(self, msg):
        # GOOD: evaluates the row the message carries in place; the only
        # tuples built are small fixed-arity park keys, not vectors.
        row, pivot = self.protocol.requirement(msg)
        missing = 0
        for c, req in enumerate(row):
            if self.protocol.progress[c] < req and c != pivot:
                self.parked.setdefault((c, req), []).append(msg.wid)
                missing += 1
        return "buffer" if missing else "apply"

    def notify_applied(self, msg):
        row, pivot = self.protocol.requirement(msg)
        for wid in self.parked.pop((pivot, row[pivot]), ()):
            self.ready.append(wid)

    def pump(self, apply_cb, discard_cb):
        while self.ready:
            apply_cb(self.ready.pop())

    def buffered(self):
        # audit view, not a hot zone: allocation on demand is fine.
        return list(self.parked.values())


class VectorProtocol:
    def __init__(self, n):
        self.progress = [0] * n

    def requirement(self, msg):
        # GOOD: the wire vector is handed over untouched.
        return msg.payload["vc"], msg.sender


class Node:
    def __init__(self, scheduler):
        self.scheduler = scheduler
        self.applied = []

    def _receive_update(self, msg):
        # GOOD: the wire vector rides the message untouched.
        if self.scheduler.offer(msg) == "apply":
            self.applied.append(msg.wid)
