"""ANBKH -- the Ahamad/Neiger/Burns/Kohli/Hutto causal memory protocol.

Reference implementation of the protocol of [1] (Ahamad et al.,
*Causal memory: definitions, implementation and programming*,
Distributed Computing 9(1), 1995), as characterized in Section 3.6 of
the reproduced paper:

    "To get causal consistent histories ANBKH orders all apply events
    at each process according to the happened-before relation of their
    corresponding send events. [...] This is obtained by causally
    ordering message deliveries through a Fidge-Mattern system of
    vector clocks which considers apply events as relevant ones."

Concretely this is Birman-Schiper-Stephenson causal broadcast: each
process keeps a vector ``VC`` where ``VC[j]`` counts the writes of
``p_j`` applied locally.  A write by ``p_i`` increments ``VC[i]`` and
broadcasts the new vector ``VT``; a receiver ``p_k`` delays the message
until ``VT[i] = VC[i] + 1`` (next-in-order from the sender) and
``VT[t] <= VC[t]`` for all ``t != i`` (everything the sender had
applied before sending is applied here too).

Because the sender's ``VC`` merges *every* apply that preceded the
send -- whether or not the sender ever read those values -- the
enabling set is

    X_ANBKH(apply_k(w)) = { apply_k(w') : send(w') -> send(w) }

a superset of ``X_co-safe``: the protocol is safe but **not**
write-delay optimal (paper, Section 3.6, Figure 3 / Table 2 -- the
"false causality" phenomenon of Tarafdar-Garg [15]).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Tuple

from repro.core.base import (
    BROADCAST,
    Disposition,
    Outgoing,
    Protocol,
    ReadOutcome,
    UpdateMessage,
    WriteOutcome,
)

#: Payload key for the Fidge-Mattern timestamp of the send event.
VT_KEY = "vt"


class ANBKHProtocol(Protocol):
    """Causal memory via Fidge-Mattern causal broadcast (safe, not optimal)."""

    name = "anbkh"
    in_class_p = True
    supports_snapshot = True

    def __init__(self, process_id: int, n_processes: int):
        super().__init__(process_id, n_processes)
        #: vc[j] = number of writes of p_j applied locally (and the
        #: progress vector requirements are measured against).
        self.vc = self.progress = [0] * n_processes

    # -- operations -----------------------------------------------------------

    def write(self, variable: Hashable, value: Any) -> WriteOutcome:
        i = self.process_id
        self.vc[i] += 1
        wid = self.next_wid()
        assert wid.seq == self.vc[i]
        vt = tuple(self.vc)
        msg = UpdateMessage(
            sender=i,
            wid=wid,
            variable=variable,
            value=value,
            payload={VT_KEY: vt},
        )
        self.store_put(variable, value, wid)
        return WriteOutcome(wid=wid, outgoing=(Outgoing(msg, BROADCAST),))

    def read(self, variable: Hashable) -> ReadOutcome:
        # Reads are purely local; unlike OptP there is no clock merge on
        # read -- causal dependencies are (over-)captured by the apply
        # history folded into vc at send time.
        value, wid = self.store_get(variable)
        return ReadOutcome(value=value, read_from=wid)

    # -- message handling -------------------------------------------------------

    def classify(self, msg: UpdateMessage) -> Disposition:
        u = msg.sender
        vt = msg.payload[VT_KEY]
        if vt[u] != self.vc[u] + 1:
            return Disposition.BUFFER
        for t in range(self.n_processes):
            if t != u and vt[t] > self.vc[t]:
                return Disposition.BUFFER
        return Disposition.APPLY

    def apply_update(self, msg: UpdateMessage) -> None:
        self.store_put(msg.variable, msg.value, msg.wid)
        self.vc[msg.sender] += 1

    def requirement(self, msg: UpdateMessage) -> Tuple[Tuple[int, ...], int]:
        """The BSS delivery condition as data: ``VC[t] >= VT[t]`` for
        ``t != u``, ``VC[u]`` exactly ``VT[u] - 1`` -- the row is the
        timestamp the message carries, the pivot its sender.
        Dependencies on this process itself cannot be pending (the
        sender cannot have applied more of our writes than we issued)."""
        return msg.payload[VT_KEY], msg.sender

    # -- durability ---------------------------------------------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        return {
            "store": [(var, value, wid)
                      for var, (value, wid) in self._store.items()],
            "write_seq": self._write_seq,
            "vc": tuple(self.vc),
        }

    def restore_state(self, doc: Dict[str, Any]) -> None:
        self._store.clear()
        for var, value, wid in doc["store"]:
            self._store[var] = (value, wid)
        self._write_seq = doc["write_seq"]
        # in place: ``progress`` aliases vc.  Snapshot restore
        # legitimately rewrites the whole vector -- the monotonicity
        # discipline applies to live protocol steps.
        self.vc[:] = doc["vc"]  # reprolint: disable=RL102

    # -- introspection ------------------------------------------------------------

    def debug_state(self) -> Dict[str, Any]:
        return {"vc": tuple(self.vc)}


def vt_of(msg: UpdateMessage) -> Tuple[int, ...]:
    """The Fidge-Mattern timestamp piggybacked on an ANBKH message."""
    return msg.payload[VT_KEY]
