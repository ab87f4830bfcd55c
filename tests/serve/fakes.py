"""Stand-ins for the event loop and the transports a replica runs on:
no sockets and no sleeps, every instant and every ``recv`` chosen by
the test.  :class:`Duplex` wires two replicas' ends of one peer
connection back to back.
"""

from repro.serve.server import ReplicaServer, _Inbound


class FakeHandle:
    def __init__(self, callback, args, when=None):
        self.callback, self.args, self.when = callback, args, when
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class FakeLoop:
    """``call_soon`` runs at :meth:`tick`, ``call_later`` when
    :meth:`advance` moves the clock past it."""

    def __init__(self):
        self.now = 100.0
        self.soon = []
        self.timers = []

    def time(self):
        return self.now

    def call_soon(self, callback, *args):
        self.soon.append(FakeHandle(callback, args))
        return self.soon[-1]

    def call_later(self, delay, callback, *args):
        self.timers.append(FakeHandle(callback, args, self.now + delay))
        return self.timers[-1]

    def tick(self):
        due, self.soon = self.soon, []
        self._run(due)

    def advance(self, seconds):
        self.now += seconds
        due = [h for h in self.timers if h.when <= self.now]
        self.timers = [h for h in self.timers if h.when > self.now]
        self._run(due)

    @staticmethod
    def _run(handles):
        for handle in handles:
            if not handle.cancelled:
                handle.callback(*handle.args)

    def pending(self):
        return [h for h in self.soon + self.timers if not h.cancelled]


class FakeTransport:
    """Records writes (also into ``log``, which transports may share, as
    ``("write", transport)``) and whether it is being read."""

    def __init__(self, log=None):
        self.written = []
        self.closed = False
        self.reading = True
        self.log = [] if log is None else log

    def write(self, data):
        self.written.append(bytes(data))
        self.log.append(("write", self))

    def close(self):
        self.closed = True

    def is_closing(self):
        return self.closed

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True


def pour(chunk: bytes, writable, wrote) -> None:
    """What the transport does with one ``recv``: fill the buffer it is
    offered (as much as fits) and say how much arrived."""
    while chunk:
        buf = writable()
        assert len(buf) > 0
        n = min(len(buf), len(chunk))
        buf[:n] = chunk[:n]
        wrote(n)
        chunk = chunk[n:]


def deliver(conn: _Inbound, chunk: bytes) -> None:
    pour(chunk, lambda: conn.get_buffer(-1), conn.buffer_updated)


class Duplex:
    """One peer connection between two replicas on fake transports and
    one fake loop: ``dialer`` dials ``acceptor`` (the lower id), and each
    end is the :class:`_Inbound` that a socket would have made."""

    def __init__(self, dialer: ReplicaServer, acceptor: ReplicaServer,
                 loop: FakeLoop):
        dialer._loop = acceptor._loop = self.loop = loop
        self.accepted = _Inbound(acceptor)
        self.accepted.connection_made(FakeTransport())
        self.dialed = _Inbound(dialer, dial=acceptor.node_id)
        self.dialed.connection_made(FakeTransport())     # says HELLO
        self.carried = {self.dialed: 0, self.accepted: 0}

    def pump(self) -> None:
        """Carry what each end wrote to the other and run the loop's
        ticks, until nothing moves; a closed end reads nothing more."""
        ends = ((self.dialed, self.accepted), (self.accepted, self.dialed))
        moved = True
        while moved:
            moved = bool(self.loop.soon)
            self.loop.tick()
            for src, dst in ends:
                written = src.transport.written
                while (self.carried[src] < len(written)
                       and not dst.transport.closed):
                    deliver(dst, written[self.carried[src]])
                    self.carried[src] += 1
                    moved = True
