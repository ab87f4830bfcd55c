"""OptP -- the write-delay-optimal protocol (paper, Section 4).

Data structures per process ``p_i`` (Section 4.1)::

    Apply[1..n]        Apply[j] = number of writes issued by p_j and
                       applied at p_i
    Write_co[1..n]     Write_co[j] = k means the k-th write issued by
                       p_j precedes the *next* local write w.r.t. ->co
    LastWriteOn[1..m]  LastWriteOn[h] = Write_co value of the last
                       write applied to x_h at p_i

Procedures (Figures 4-5), ported line-for-line:

``WRITE(x_h, v)``::

    1  Write_co[i] := Write_co[i] + 1          % tracking ->po
    2  send m(x_h, v, Write_co) to Π - p_i     % send event
    3  apply(v, x_h)                           % apply event
    4  Apply[i] := Apply[i] + 1
    5  LastWriteOn[h] := Write_co

``READ(x_h)``::

    1  Write_co := max(Write_co, LastWriteOn[h])
    2  return x_h

synchronization thread for message ``m(x_h, v, W_co)`` from ``p_u``::

    2  wait until ( for all t != u: W_co[t] <= Apply[t]
                    and Apply[u] = W_co[u] - 1 )
    3  apply(v, x_h)
    4  Apply[u] := Apply[u] + 1
    5  LastWriteOn[h] := W_co

The activation predicate at line 2 is exactly "every write in the
incoming write's ->co-causal past has been applied here" -- which by
Definition 4 makes :math:`\\mathcal{X}_{OptP}(e) =
\\mathcal{X}_{co\\text{-}safe}(e)` and hence OptP write-delay optimal
(Theorem 4).  Note the contrast with ANBKH
(:class:`repro.protocols.anbkh.ANBKHProtocol`), whose predicate quotes
the Fidge-Mattern vector of the *send* event and therefore also waits
for writes that merely happened-before the send without causally
affecting it.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Tuple

from repro.model.operations import WriteId
from repro.core.base import (
    BROADCAST,
    Disposition,
    Outgoing,
    Protocol,
    ReadOutcome,
    UpdateMessage,
    WriteOutcome,
)
from repro.core.vectorclock import vc_join_inplace

#: Payload key under which OptP piggybacks the write's Write_co vector.
WRITE_CO_KEY = "write_co"


class OptPProtocol(Protocol):
    """The paper's OptP protocol (safe, live, and write-delay optimal)."""

    name = "optp"
    in_class_p = True
    supports_snapshot = True

    def __init__(self, process_id: int, n_processes: int):
        super().__init__(process_id, n_processes)
        n = n_processes
        #: Apply doubles as the progress vector requirements are
        #: measured against
        self.apply_vec = self.progress = [0] * n
        self.write_co: List[int] = [0] * n
        # LastWriteOn is keyed by variable name; absent key = [0]*n
        # (every component initialized to zero, Section 4.1).
        self.last_write_on: Dict[Hashable, Tuple[int, ...]] = {}

    # -- operations -----------------------------------------------------------

    def write(self, variable: Hashable, value: Any) -> WriteOutcome:
        """Figure 4, lines 1-5."""
        i = self.process_id
        self.write_co[i] += 1                      # line 1: tracking ->po
        wid = self.next_wid()
        assert wid.seq == self.write_co[i], "Observation 2 invariant"
        vec = tuple(self.write_co)
        msg = UpdateMessage(
            sender=i,
            wid=wid,
            variable=variable,
            value=value,
            payload={WRITE_CO_KEY: vec},
        )                                           # line 2: send event
        self.store_put(variable, value, wid)        # line 3: apply event
        self.apply_vec[i] += 1                      # line 4
        self.last_write_on[variable] = vec          # line 5
        return WriteOutcome(wid=wid, outgoing=(Outgoing(msg, BROADCAST),))

    def read(self, variable: Hashable) -> ReadOutcome:
        """Figure 5 (read procedure), lines 1-2.

        Line 1 merges the causal relations of the last write applied to
        the variable into the local ``Write_co``: this is what makes a
        *read-from* edge count towards the causal past of subsequent
        local writes -- and nothing else, which is exactly why
        ``w_2(x_2)b.Write_co`` in Figure 6 does *not* track
        ``w_1(x_1)c`` even though c was already applied at p_2: p_2
        never read it.
        """
        lwo = self.last_write_on.get(variable)
        if lwo is not None:
            vc_join_inplace(self.write_co, lwo)      # line 1: componentwise max
        value, wid = self.store_get(variable)
        return ReadOutcome(value=value, read_from=wid)

    # -- message handling -------------------------------------------------------

    def classify(self, msg: UpdateMessage) -> Disposition:
        """Figure 5 (synchronization thread), line 2 -- the wait predicate.

        Deliverable iff the message's ``Write_co`` brings no causal
        relationship unknown to this process except the write itself:
        ``forall t != u: W_co[t] <= Apply[t]`` and
        ``Apply[u] = W_co[u] - 1``.
        """
        u = msg.sender
        w_co = msg.payload[WRITE_CO_KEY]
        if self.apply_vec[u] != w_co[u] - 1:
            return Disposition.BUFFER
        for t in range(self.n_processes):
            if t != u and w_co[t] > self.apply_vec[t]:
                return Disposition.BUFFER
        return Disposition.APPLY

    def apply_update(self, msg: UpdateMessage) -> None:
        """Figure 5 (synchronization thread), lines 3-5."""
        u = msg.sender
        w_co = msg.payload[WRITE_CO_KEY]
        self.store_put(msg.variable, msg.value, msg.wid)   # line 3
        self.apply_vec[u] += 1                             # line 4
        # line 5: the wire vector is a frozen tuple (payload
        # immutability contract), so storing it bare is alias-safe.
        self.last_write_on[msg.variable] = w_co  # reprolint: disable=RL003

    def requirement(self, msg: UpdateMessage) -> Tuple[Tuple[int, ...], int]:
        """Figure 5 line 2 as data: ``Apply[t] >= W_co[t]`` for
        ``t != u`` and ``Apply[u]`` exactly ``W_co[u] - 1`` -- the row
        is the ``Write_co`` tuple the message carries, the pivot its
        sender.  A dependency on this process itself can never be
        pending (the sender cannot know more of our writes than we have
        issued and locally applied), which is what lets wakeups fire on
        remote applies alone."""
        return msg.payload[WRITE_CO_KEY], msg.sender

    # -- durability ---------------------------------------------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """Section 4.1's three structures plus the store, in codec
        vocabulary.  Store and ``LastWriteOn`` entries keep insertion
        order so a restored instance is indistinguishable from the
        original (dict order shows up in debug snapshots)."""
        return {
            "store": [(var, value, wid)
                      for var, (value, wid) in self._store.items()],
            "write_seq": self._write_seq,
            "apply": tuple(self.apply_vec),
            "write_co": tuple(self.write_co),
            "last_write_on": [(var, vec)
                              for var, vec in self.last_write_on.items()],
        }

    def restore_state(self, doc: Dict[str, Any]) -> None:
        self._store.clear()
        for var, value, wid in doc["store"]:
            self._store[var] = (value, wid)
        self._write_seq = doc["write_seq"]
        # in place: ``progress`` aliases apply_vec.  Snapshot restore
        # legitimately rewrites the whole vectors -- the monotonicity
        # discipline applies to live protocol steps.
        self.apply_vec[:] = doc["apply"]  # reprolint: disable=RL102
        self.write_co[:] = doc["write_co"]  # reprolint: disable=RL102
        self.last_write_on.clear()
        for var, vec in doc["last_write_on"]:
            self.last_write_on[var] = tuple(vec)

    # -- introspection ------------------------------------------------------------

    def debug_state(self) -> Dict[str, Any]:
        return {
            "write_co": tuple(self.write_co),
            "apply": tuple(self.apply_vec),
            "last_write_on": {
                var: tuple(vec) for var, vec in self.last_write_on.items()
            },
        }


def write_co_of(msg: UpdateMessage) -> Tuple[int, ...]:
    """The ``Write_co`` vector piggybacked on an OptP update message."""
    return msg.payload[WRITE_CO_KEY]
