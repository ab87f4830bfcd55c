"""Deliberately broken protocol variants: the checker's self-check.

A model checker that has never caught a bug is untrustworthy.  These
mutants plant known protocol bugs -- each a one-token mutation of a
real activation predicate -- and ``tests/mck/test_checker.py`` asserts
the checker rejects both with a replayable witness trace:

- :class:`BrokenOptP` weakens OptP's cross-sender check by one
  (``W_co[t] <= Apply[t] + 1`` instead of ``<= Apply[t]``): a write may
  be applied while the *last* write of its causal past from another
  sender is still missing -- a Theorem-3 safety violation in any
  interleaving that delivers the dependent write first.
- :class:`BrokenANBKH` skips vector component 0 in the delivery
  condition: causal dependencies on ``p_0``'s writes are silently
  ignored, so a message can overtake the ``p_0`` write it depends on.

Both plant the mutation in ``requirement`` -- the one declaration of
the predicate the counting scheduler evaluates, parks and wakes by
(the bug is in the *predicate*, not in scheduler bookkeeping).

:class:`LeakyOptP` breaks a different contract: it ships a mutable
list inside message payloads and keeps mutating it after send,
violating the payload-immutability rule of ``repro.core.base`` -- the
checker's *isolation* invariant must flag it at send, at delivery, and
in the terminal pending-pool scan.
"""

from typing import List

from repro.core.base import UpdateMessage
from repro.core.optp import WRITE_CO_KEY, OptPProtocol
from repro.protocols.anbkh import VT_KEY, ANBKHProtocol


class BrokenOptP(OptPProtocol):
    """OptP with the cross-sender wait weakened by one write."""

    name = "broken-optp"

    def requirement(self, msg: UpdateMessage):
        u = msg.sender
        w_co = msg.payload[WRITE_CO_KEY]
        # BUG: admits one still-missing causal predecessor of p_t.
        return [w if t == u else w - 1 for t, w in enumerate(w_co)], u


class LeakyOptP(OptPProtocol):
    """OptP that leaks shared mutable state through payloads."""

    name = "leaky-optp"

    def __init__(self, process_id: int, n_processes: int) -> None:
        super().__init__(process_id, n_processes)
        self._scratch: List[int] = []

    def write(self, variable, value):
        outcome = super().write(variable, value)
        # BUG: every sent payload aliases the same list, mutated on
        # each subsequent write -- in-flight messages change under the
        # receiver's feet.
        self._scratch.append(len(self._scratch))
        for out in outcome.outgoing:
            out.message.payload["scratch"] = self._scratch
        return outcome


class BrokenANBKH(ANBKHProtocol):
    """ANBKH that ignores causal dependencies on ``p_0``."""

    name = "broken-anbkh"

    def requirement(self, msg: UpdateMessage):
        u = msg.sender
        vt = msg.payload[VT_KEY]
        row = [0] * self.n_processes
        row[u] = vt[u]
        # BUG: starts at 1 -- p_0's writes are never waited for.
        for t in range(1, self.n_processes):
            row[t] = vt[t]
        return row, u
