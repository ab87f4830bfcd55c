"""RL004 bad fixture: a requirement declaration out of shape.

Three shapes: the requirement declared *next to* a hand-written second
copy of the predicate, and two signatures the delivery scheduler cannot
call (a defaulted message, a keyword-only extra).
"""


class BaseProtocol:
    progress = None


class DeclaredTwice(BaseProtocol):
    def requirement(self, msg):
        return msg.payload["vt"], msg.sender

    def missing_deps(self, msg):
        vt = msg.payload["vt"]
        return [(t, v) for t, v in enumerate(vt) if v > self.progress[t]]


class DefaultedMessage(BaseProtocol):
    def requirement(self, msg=None):
        return None


class KeywordExtra(BaseProtocol):
    def requirement(self, msg, *, dense=False):
        return msg.payload["vt"], msg.sender
