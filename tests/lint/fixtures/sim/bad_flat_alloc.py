"""BAD: per-message vector allocation inside delivery hot zones (RL009)."""


class CountingScheduler:
    def __init__(self, protocol):
        self.protocol = protocol
        self.parked = {}
        self.ready = []

    def offer(self, msg):
        # BAD: rebuilds the dependency vector for every delivery; the
        # payload already carries it as an immutable tuple.
        deps = list(msg.payload["vc"])
        missing = tuple(c for c, req in enumerate(deps) if req > 0)
        if missing:
            self.parked[msg.wid] = missing
            return "buffer"
        return "apply"

    def notify_applied(self, msg):
        # BAD: snapshots the progress vector per applied message.
        snapshot = tuple(self.protocol.progress)
        self.ready.append((msg.wid, snapshot))

    def pump(self, apply_cb, discard_cb):
        while self.ready:
            wid, _ = self.ready.pop()
            apply_cb(wid)


class VectorProtocol:
    def __init__(self, n):
        self.progress = [0] * n

    def requirement(self, msg):
        # BAD: a per-receipt copy of the row the payload already holds.
        return list(msg.payload["vc"]), msg.sender


class Node:
    def __init__(self, scheduler):
        self.scheduler = scheduler
        self.applied = []

    def _receive_update(self, msg):
        # BAD: per-delivery copy of the wire vector on the receive path.
        wire = tuple(msg.payload["vc"])
        if self.scheduler.offer(msg) == "apply":
            self.applied.append((msg.wid, wire))
