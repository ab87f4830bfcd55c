"""Protocols implementing (or compared against) the class 𝒫 of Section 3.

- :class:`repro.core.optp.OptPProtocol` -- the paper's contribution
  (safe + write-delay optimal + live), re-exported here;
- :class:`ANBKHProtocol` -- the Ahamad et al. baseline (safe, not
  optimal: false causality, Section 3.6 / Figure 3);
- :class:`WSReceiverProtocol` -- receiver-side writing semantics on top
  of OptP vectors ([2, 14] + footnote 8; leaves 𝒫);
- :class:`JimenezTokenProtocol` -- sender-side writing semantics via a
  circulating token ([7]; leaves 𝒫).

``PROTOCOLS`` maps protocol names to constructors for the benchmark
sweeps and examples.
"""

from typing import Callable, Dict

from repro.core.base import (
    BROADCAST,
    ControlMessage,
    Disposition,
    Message,
    Outgoing,
    Protocol,
    ReadOutcome,
    UpdateMessage,
    WriteOutcome,
)
from repro.core.optp import OptPProtocol
from repro.protocols.anbkh import ANBKHProtocol
from repro.protocols.gossip import GossipOptPProtocol
from repro.protocols.jimenez import JimenezTokenProtocol
from repro.protocols.partial import (
    PartialReplicationProtocol,
    ReplicationMap,
    partial_factory,
)
from repro.protocols.sequencer import SequencerProtocol
from repro.protocols.ws_receiver import WSReceiverProtocol

#: Registry of all shipped protocols, keyed by their ``name``.
PROTOCOLS: Dict[str, Callable[[int, int], Protocol]] = {
    OptPProtocol.name: OptPProtocol,
    ANBKHProtocol.name: ANBKHProtocol,
    WSReceiverProtocol.name: WSReceiverProtocol,
    JimenezTokenProtocol.name: JimenezTokenProtocol,
    SequencerProtocol.name: SequencerProtocol,
    GossipOptPProtocol.name: GossipOptPProtocol,
}

__all__ = [
    "ANBKHProtocol",
    "BROADCAST",
    "ControlMessage",
    "Disposition",
    "GossipOptPProtocol",
    "JimenezTokenProtocol",
    "Message",
    "OptPProtocol",
    "Outgoing",
    "PROTOCOLS",
    "PartialReplicationProtocol",
    "ReplicationMap",
    "partial_factory",
    "Protocol",
    "ReadOutcome",
    "SequencerProtocol",
    "UpdateMessage",
    "WSReceiverProtocol",
    "WriteOutcome",
]
