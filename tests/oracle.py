"""The classify re-scan as a differential oracle.

``classify`` is the paper-literal wait predicate; ``requirement`` is
the same predicate as data.  :func:`hide_requirement` wraps a protocol
factory so every instance it builds *as shipped* loses its requirement
declaration -- the node then observes a protocol that cannot enumerate
its predicate and runs the :class:`~repro.sim.scheduler.RescanScheduler`
on ``classify`` alone.  Nothing in ``src`` selects the oracle: it exists
only as this test-side subclass.
"""

from repro.core.base import Protocol
from repro.protocols import PROTOCOLS

_hidden = {}


def _hidden_class(cls):
    sub = _hidden.get(cls)
    if sub is None:
        sub = _hidden[cls] = type(
            f"Rescan{cls.__name__}", (cls,),
            {"requirement": Protocol.requirement})
    return sub


def hide_requirement(factory):
    """A factory building ``factory``'s protocols with the requirement
    hidden (registry names are resolved like ``SimCluster`` does)."""
    if isinstance(factory, str):
        factory = PROTOCOLS[factory]

    def make(process_id, n_processes):
        protocol = factory(process_id, n_processes)
        protocol.__class__ = _hidden_class(type(protocol))
        return protocol

    return make
