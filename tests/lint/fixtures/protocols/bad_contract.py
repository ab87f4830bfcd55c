"""RL004 bad fixture: missing hooks, orphan missing_deps, bad signature."""

from repro.core.base import Protocol


class HalfProtocol(Protocol):
    """Missing read/classify/apply_update entirely."""

    name = "half"

    def write(self, variable, value):
        raise NotImplementedError


class OrphanDepsProtocol(Protocol):
    name = "orphan"

    def write(self, variable, value):
        raise NotImplementedError

    def read(self, variable):
        raise NotImplementedError

    def classify(self, msg):
        raise NotImplementedError

    def apply_update(self, msg):
        raise NotImplementedError

    # the wait predicate enumerated by hand: never the derived evaluation
    def missing_deps(self, msg):
        return [(msg.sender, msg.wid.seq - 1)]


class BadSignatureProtocol(Protocol):
    name = "badsig"

    def write(self, variable, value):
        raise NotImplementedError

    def read(self, variable):
        raise NotImplementedError

    def classify(self, msg):
        raise NotImplementedError

    def apply_update(self, msg):
        raise NotImplementedError

    def requirement(self, msg, rescan=False):  # extra parameter
        return None
