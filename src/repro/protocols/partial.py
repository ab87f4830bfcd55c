"""Partially replicated causal DSM (the setting of Raynal-Singhal [14]).

The paper (and OptP) assume every process replicates every variable.
Reference [14] — *Exploiting Write Semantics in Implementing Partially
Replicated Causal Objects* — works in the setting this module
implements: each variable ``x`` is held by a subset ``replicas(x)`` of
the processes; writes are multicast to holders only; processes read and
write only variables they hold.  The challenge is that causal
dependencies may pass *through* variables a replica does not hold::

    w(x) ->co w(y) ->co w(z)     replica d holds {x, z} but not y

``d`` never receives ``w(y)``, yet must still apply ``w(x)`` before
``w(z)``.

Mechanism (OptP's idea, projected per destination)
--------------------------------------------------

Exactly like :mod:`repro.protocols.ws_receiver`, every update message
for ``w`` carries ``VP``: per variable, the vector of per-process write
counts inside ``w``'s causal past (exact under componentwise-max
merging, because per-process writes are prefixes).  A holder ``d`` of
``x`` derives the *relevant* dependency vector itself::

    rel(t) = sum over y in held(d) of VP[y][t]      (own write included)

and applies ``w`` from ``p_u`` iff ``rel(t) <= AppliedRel[t]`` for
every ``t != u`` and ``AppliedRel[u] = rel(u) - 1``, where
``AppliedRel[t]`` counts the writes of ``p_t`` applied at ``d`` (all of
which are on variables ``d`` holds).  Because each process's
writes on ``held(d)`` form a subsequence of its write sequence and
``rel`` counts its prefixes, the condition forces per-sender
subsequence order and (transitively, since ``VP`` flows through reads
of *any* variable) the full ``->co`` restriction to ``d``'s held
writes — the partial-replication analogue of ``X_co-safe``.  Delays
happen only when a *held* causal predecessor is missing: the protocol
inherits OptP's optimality in the projected sense (checked by the
standard delay audit, which only ever demands held predecessors since
unheld ones are never applied anywhere... at that replica).

Class-𝒫 membership: **no** by the paper's letter (a write is applied
only at its holders).  The shortfall is exact and reported via
``stats()['unreplicated']`` / ``missing_applies()`` so the substrate's
quiescence and the liveness checker stay balanced.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    Sequence,
    Tuple,
)

from repro.core.base import (
    Disposition,
    Outgoing,
    Protocol,
    ReadOutcome,
    UpdateMessage,
    WriteOutcome,
)
from repro.core.vectorclock import vc_join_inplace
from repro.model.operations import WriteId

VAR_PAST_KEY = "var_past"


class ReplicationMap:
    """Static assignment ``variable -> frozenset(holder process ids)``.

    All processes know the full map (standard for static partial
    replication schemes).  Unknown variables raise — a workload that
    touches an unmapped variable is a configuration bug, not data.
    """

    def __init__(self, assignment: Mapping[Hashable, Sequence[int]],
                 n_processes: int):
        self.n_processes = n_processes
        self._holders: Dict[Hashable, FrozenSet[int]] = {}
        for var, procs in assignment.items():
            holders = frozenset(procs)
            if not holders:
                raise ValueError(f"variable {var!r} has no replicas")
            for p in sorted(holders):
                if not 0 <= p < n_processes:
                    raise ValueError(
                        f"replica {p} of {var!r} out of range [0, {n_processes})"
                    )
            self._holders[var] = holders

    @classmethod
    def round_robin(cls, variables: Sequence[Hashable], n_processes: int,
                    k: int) -> "ReplicationMap":
        """``k`` holders per variable, spread round-robin."""
        if not 1 <= k <= n_processes:
            raise ValueError("need 1 <= k <= n_processes")
        assignment = {}
        for idx, var in enumerate(variables):
            assignment[var] = [(idx + j) % n_processes for j in range(k)]
        return cls(assignment, n_processes)

    @classmethod
    def full(cls, variables: Sequence[Hashable], n_processes: int) -> "ReplicationMap":
        """Degenerate full replication (for differential testing)."""
        return cls({v: range(n_processes) for v in variables}, n_processes)

    def holders(self, variable: Hashable) -> FrozenSet[int]:
        try:
            return self._holders[variable]
        except KeyError:
            raise KeyError(f"variable {variable!r} not in the replication map")

    def held_by(self, process: int) -> FrozenSet[Hashable]:
        return frozenset(
            v for v, hs in self._holders.items() if process in hs
        )

    def variables(self) -> FrozenSet[Hashable]:
        return frozenset(self._holders)


class PartialReplicationProtocol(Protocol):
    """Causally consistent DSM over a static partial replication map."""

    name = "partial"
    in_class_p = False

    def __init__(self, process_id: int, n_processes: int,
                 replication: ReplicationMap):
        super().__init__(process_id, n_processes)
        if replication.n_processes != n_processes:
            raise ValueError("replication map sized for a different cluster")
        self.replication = replication
        self.held = replication.held_by(process_id)
        #: per-variable causal-past vectors (exact; see module docstring)
        self.var_past: Dict[Hashable, List[int]] = {}
        #: writes of p_t applied here (all on held variables); the
        #: progress vector requirements are measured against
        self.applied_rel = self.progress = [0] * n_processes
        #: last applied write's VP map per variable, in wire form (the
        #: sorted immutable pairs tuple shipped in payloads).
        self.last_var_past_on: Dict[
            Hashable, Tuple[Tuple[Hashable, Tuple[int, ...]], ...]
        ] = {}
        self.unreplicated = 0

    # -- helpers ---------------------------------------------------------------

    def _vp_row(self, var: Hashable) -> List[int]:
        row = self.var_past.get(var)
        if row is None:
            row = [0] * self.n_processes
            self.var_past[var] = row
        return row

    def _frozen_var_past(self) -> Tuple[Tuple[Hashable, Tuple[int, ...]], ...]:
        """Wire form of the VP map: sorted, deeply immutable pairs (the
        payload contract -- in-flight messages are shared across
        receivers; see :mod:`repro.protocols.ws_receiver`)."""
        return tuple(sorted(
            ((var, tuple(vec)) for var, vec in self.var_past.items()),
            key=lambda pair: repr(pair[0]),
        ))

    def _check_held(self, variable: Hashable, op: str) -> None:
        if variable not in self.held:
            raise PermissionError(
                f"p{self.process_id} does not replicate {variable!r} "
                f"(cannot {op}; holders: "
                f"{sorted(self.replication.holders(variable))})"
            )

    def _rel(self, vp: Tuple[Tuple[Hashable, Tuple[int, ...]], ...]
             ) -> List[int]:
        """Per-process write counts of the causal past ``vp`` restricted
        to this replica's held set, the carried write included."""
        rel = [0] * self.n_processes
        for var, vec in vp:
            if var in self.held:
                for t, v in enumerate(vec):
                    rel[t] += v
        return rel

    # -- operations -----------------------------------------------------------

    def write(self, variable: Hashable, value: Any) -> WriteOutcome:
        self._check_held(variable, "write")
        i = self.process_id
        self._vp_row(variable)[i] += 1
        wid = self.next_wid()
        vp = self._frozen_var_past()
        msg = UpdateMessage(
            sender=i,
            wid=wid,
            variable=variable,
            value=value,
            payload={VAR_PAST_KEY: vp},
        )
        self.store_put(variable, value, wid)
        self.applied_rel[i] += 1
        # the wire pairs tuple doubles as the read-merge source; no
        # per-write dict rebuild (immutable, so sharing is safe)
        self.last_var_past_on[variable] = vp  # reprolint: disable=RL003
        holders = self.replication.holders(variable)
        self.unreplicated += self.n_processes - len(holders)
        outgoing = tuple(
            Outgoing(msg, dest) for dest in sorted(holders) if dest != i
        )
        return WriteOutcome(wid=wid, outgoing=outgoing)

    def read(self, variable: Hashable) -> ReadOutcome:
        self._check_held(variable, "read")
        last = self.last_var_past_on.get(variable)
        if last is not None:
            for var, vec in last:
                vc_join_inplace(self._vp_row(var), vec)
        value, wid = self.store_get(variable)
        return ReadOutcome(value=value, read_from=wid)

    # -- message handling -------------------------------------------------------

    def classify(self, msg: UpdateMessage) -> Disposition:
        u = msg.sender
        rel = self._rel(msg.payload[VAR_PAST_KEY])
        if self.applied_rel[u] != rel[u] - 1:
            return Disposition.BUFFER
        for t in range(self.n_processes):
            if t != u and rel[t] > self.applied_rel[t]:
                return Disposition.BUFFER
        return Disposition.APPLY

    def requirement(self, msg: UpdateMessage) -> Tuple[List[int], int]:
        """Held-restricted dependencies as data.  ``rel[t]`` counts the
        writes of ``p_t`` on *held* variables in the message's causal
        past, so progress is this replica's per-sender *applied count*,
        not a global write sequence number (p_t's held writes form a
        subsequence of its write sequence); the message itself is held
        write number ``rel[u]`` of its sender, the pivot.  The row is
        receiver-specific, hence computed here and not by the writer."""
        return self._rel(msg.payload[VAR_PAST_KEY]), msg.sender

    def apply_update(self, msg: UpdateMessage) -> None:
        # NOTE: the write's causal knowledge (its VP map, including
        # counts for variables we do not hold) is stored but NOT merged
        # into our own var_past here -- merging happens at *read* time
        # only, exactly like OptP's line-1 read merge.  Merging on
        # apply would make our later writes claim dependence on writes
        # we merely applied, reintroducing the false causality the
        # paper eliminates.
        self.store_put(msg.variable, msg.value, msg.wid)
        self.applied_rel[msg.sender] += 1
        # The wire VP is a deeply immutable sorted pairs tuple (payload
        # contract), so storing it bare is alias-safe -- and drops the
        # per-delivery dict rebuild this hot path used to pay.
        self.last_var_past_on[msg.variable] = msg.payload[VAR_PAST_KEY]  # reprolint: disable=RL003

    # -- introspection ------------------------------------------------------------

    def debug_state(self) -> Dict[str, Any]:
        return {
            "applied_rel": tuple(self.applied_rel),
            "held": tuple(sorted(map(str, self.held))),
        }

    def stats(self) -> Dict[str, int]:
        return {"unreplicated": self.unreplicated}

    def missing_applies(self) -> int:
        return self.unreplicated


def partial_factory(replication: ReplicationMap):
    """A cluster-compatible factory binding the replication map."""

    def make(process_id: int, n_processes: int) -> PartialReplicationProtocol:
        return PartialReplicationProtocol(process_id, n_processes, replication)

    return make
