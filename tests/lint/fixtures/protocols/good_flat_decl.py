"""RL004 good fixture: the requirement declared once, callable as is."""


class BaseProtocol:
    progress = None


class Declares(BaseProtocol):
    def requirement(self, msg):
        return msg.payload["vt"], msg.sender


class PlainDeliverer(BaseProtocol):
    def classify(self, msg):
        return None
