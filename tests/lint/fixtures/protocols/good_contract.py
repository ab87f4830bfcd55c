"""RL004 good fixture: complete hook set, one readiness declaration."""

from repro.core.base import Protocol


class CompleteProtocol(Protocol):
    name = "complete"

    def write(self, variable, value):
        raise NotImplementedError

    def read(self, variable):
        raise NotImplementedError

    def classify(self, msg):
        raise NotImplementedError

    def apply_update(self, msg):
        raise NotImplementedError

    def requirement(self, msg):
        return msg.payload["vt"], msg.sender


class ClassifyOnlyProtocol(Protocol):
    """No requirement is fine: the substrate re-scans with classify."""

    name = "classify-only"

    def write(self, variable, value):
        raise NotImplementedError

    def read(self, variable):
        raise NotImplementedError

    def classify(self, msg):
        raise NotImplementedError

    def apply_update(self, msg):
        raise NotImplementedError
