"""A cluster whose scheduler and network are the model checker.

:class:`ControlledCluster` hosts real :class:`repro.sim.node.Node`
instances (the production protocol + buffering + tracing stack), but
replaces the discrete-event engine and latency network with an
explicit *transition system*: every send lands in an unordered pending
pool, and the explorer decides -- one transition at a time -- which
operation issues, which message delivers, which timer fires, and which
fault strikes.  Exploring all choices covers every non-FIFO delivery
order of the paper's system model (Section 2.1).

Transition vocabulary (all JSON-serializable 2-tuples):

- ``("op", p)``       -- process ``p`` issues its next scripted operation
- ``("deliver", mid)``-- deliver pending message ``mid`` to its target
- ``("timer", p)``    -- fire ``p``'s periodic hook (budgeted)
- ``("dup", mid)``    -- clone a pending update (fault, budgeted)
- ``("drop", mid)``   -- drop a pending update (fault, budgeted)
- ``("crash", p)``    -- crash process ``p`` (fault, budgeted): volatile
  state -- including the buffer of blocked messages -- is lost; while
  down, ``p`` takes no ops/timers and receives no deliveries (the
  unordered pool holds its traffic, modelling connected channels)
- ``("recover", p)``  -- rebuild ``p`` from its durable snapshot + WAL
  and resume

Each process journals the records a served replica writes, folds them
into the served snapshot document and recovers with the server's own
routine (:mod:`repro.durability`), all in memory.

Crash/recover are semantic no-ops on the *trace*: recovery replays the
journaled inputs through a :class:`~repro.sim.trace.NullTrace`, so a
recovered process carries exactly its pre-crash protocol state and the
ordinary invariants (legality, Theorem 3 safety, ordered-write agreement,
class-𝒫 liveness) are required to hold on every crash path unchanged.
Under ``recover=False`` (crash-stop) the terminal conditions are judged
over the surviving processes instead.

Message ids are *interleaving-independent*: ``u:{origin}.{seq}>{dest}``
with a per-origin emission counter, so two independent transitions
produce the same ids in either execution order -- a requirement for
both sleep-set soundness and witness replay.  Fault copies stack a
prefix (``d:``/``r:``) on the id they were derived from.

Cross-node isolation is checked here: every enqueued message's payload
is scanned for deep immutability (messages are shared objects -- one
broadcast object reaches n-1 receivers and every clone of this
cluster), and a content fingerprint taken at enqueue is re-verified at
delivery and, for still-pending messages, at terminal states.  A
mutation by the last receiver of a message that nothing later delivers
escapes the fingerprint net, but the immutability scan already flags
the mutable container such a mutation would need.

Cloning: the explorer snapshots a state with :meth:`clone`, a
``copy.deepcopy`` whose memo is pre-seeded with the immutable shared
objects (trace events, messages, write ids, past-sets) so branching
cost stays proportional to the *mutable* state.  Everything handed to
``Node`` is a bound method -- never a lambda -- because deepcopy
rebinds bound methods to the copied cluster, while a lambda's closure
would keep pointing at the original (silent cross-branch corruption).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.base import (
    BROADCAST,
    ControlMessage,
    Message,
    Outgoing,
    UpdateMessage,
)
from repro.durability import encode_snapshot, recover_node, snapshot_document
from repro.durability.wal import encode_batch_record, encode_ops_record
from repro.model.operations import WriteId
from repro.obs.spans import NULL_OBS
from repro.serve.codec import (
    OP_READ,
    OP_WRITE,
    encode_batch,
    encode_message,
    encode_request,
)
from repro.sim.cluster import ProtocolFactory, _resolve_factory
from repro.sim.node import Node, settled
from repro.sim.trace import NullTrace, Trace
from repro.workloads.ops import ReadOp, WriteOp

from repro.mck.faults import NO_FAULTS, FaultSpec
from repro.mck.invariants import Finding, InvariantTracker
from repro.mck.workloads import MckWorkload

#: A checker transition: ``(kind, process-or-mid)``.
Transition = Tuple[str, Union[int, str]]

__all__ = ["ControlledCluster", "Transition", "independent",
           "transition_actor"]

#: Types that are deeply immutable by construction (payload scan).
_ATOMS = (type(None), bool, int, float, str, bytes, WriteId)


def _find_mutable(value: Any) -> Optional[str]:
    """Return a description of the first mutable object inside
    ``value`` (tuples/frozensets recursed), or None if deeply
    immutable."""
    if isinstance(value, _ATOMS):
        return None
    if isinstance(value, (tuple, frozenset)):
        for item in value:
            problem = _find_mutable(item)
            if problem is not None:
                return problem
        return None
    return f"{type(value).__name__} ({value!r})"


def _fingerprint(message: Message) -> str:
    """Deterministic content digest of a message (payload order-free)."""
    items = sorted(message.payload.items())
    if isinstance(message, UpdateMessage):
        return repr((message.sender, message.wid, message.variable,
                     message.value, items))
    return repr((message.sender, message.kind, items))


def _core(mid: str) -> str:
    """Strip fault prefixes: the identity of the underlying send."""
    while mid.startswith(("d:", "r:")):
        mid = mid[2:]
    return mid


def _dest(mid: str) -> int:
    return int(mid.rsplit(">", 1)[1])


def transition_actor(t: Transition) -> Optional[int]:
    """The process whose local state a transition touches (None for
    channel-fault transitions, which only touch the pool + budgets)."""
    if t[0] in ("op", "timer", "crash", "recover"):
        return t[1]  # type: ignore[return-value]
    if t[0] == "deliver":
        return _dest(t[1])  # type: ignore[arg-type]
    return None


def independent(a: Transition, b: Transition) -> bool:
    """True when ``a`` and ``b`` commute (same successor state either
    order) -- the sleep-set relation.  Sound because:

    - op/timer/deliver transitions mutate exactly one node's state plus
      that node's emission counter; different actors touch disjoint
      state (the pool is a dict keyed by ids that embed the origin).
    - channel-fault transitions (dup/drop) touch only the pool entry
      for their ``mid`` and the fault budgets, so they commute with
      anything that neither consumes the same ``mid`` nor spends a
      budget.  Fault-vs-fault is conservatively declared dependent
      (shared budgets).
    - crash/recover touch one node plus the crash budget: two crashes
      contend for the budget (dependent -- spending it may disable the
      other), while crash/recover on *different* processes neither
      share mutable state nor affect each other's enabledness.
      Same-process pairs fall out of the actor comparison, including
      crash-vs-deliver-to-p (a crash disables the delivery).
    """
    a_fault = a[0] in ("dup", "drop")
    b_fault = b[0] in ("dup", "drop")
    if a_fault or b_fault:
        if a_fault and b_fault:
            return False
        fault, other = (a, b) if a_fault else (b, a)
        if other[0] == "deliver" and other[1] == fault[1]:
            return False
        return True
    if a[0] == "crash" and b[0] == "crash":
        return False
    return transition_actor(a) != transition_actor(b)


@dataclass(frozen=True)
class _Pending:
    """A pool entry.  Frozen so clones can share entries outright."""

    mid: str
    sender: int
    dest: int
    message: Message
    fingerprint: str
    is_update: bool


class ControlledCluster:
    """``n`` protocol instances + pending pool, stepped by transitions."""

    def __init__(
        self,
        protocol: ProtocolFactory,
        workload: MckWorkload,
        *,
        faults: FaultSpec = NO_FAULTS,
        expect_optimal: bool = False,
        check_convergence: bool = True,
        timer_budget: int = 3,
    ):
        factory = _resolve_factory(protocol)
        n = workload.n_processes
        self.n_processes = n
        self.workload = workload
        self.faults = faults
        #: kept for crash recovery: rebuilding a node needs a fresh
        #: protocol instance of the same kind.
        self._factory = factory
        self._now = 0
        self.trace = Trace(n)
        self._seen_events = 0
        self._pool: Dict[str, _Pending] = {}
        #: every message object ever enqueued on this path -- protocols
        #: may retain references (logs, buffers), and clone() pins them
        #: in the deepcopy memo so all branches share one object.
        self._msgs: List[Message] = []
        self._emit_seq = [0] * n
        self._pending_findings: List[Finding] = []
        self.writes: List[WriteId] = []
        self.pc = [0] * n
        self._dup_budget = faults.duplicate
        self._drop_budget = faults.drop
        self._duped: Set[str] = set()
        self._lost: List[_Pending] = []
        self._crash_budget = faults.crash
        #: crash mode only, per process: ``(snapshot bytes or None,
        #: records it covers, the whole WAL)``, immutable so clones share
        #: it, and its own broadcast bodies (a served replica's ``_sent``)
        self._durable: Optional[List[Tuple[Optional[bytes], int,
                                           Tuple[bytes, ...]]]] = None
        self._sent: Optional[List[List[bytes]]] = None
        if faults.crash > 0:
            self._durable = [(None, 0, ())] * n
            self._sent = [[] for _ in range(n)]
        #: set while a recovering node replays: its sends are effects
        #: the pool already holds
        self._replaying = False
        self.check_convergence = check_convergence
        self.tracker = InvariantTracker(n, expect_optimal=expect_optimal)
        #: whether the last executed transition recorded trace events
        #: (cycle pruning only tracks no-growth chains).
        self.last_trace_grew = False
        self.nodes: List[Node] = [
            Node(
                factory(i, n),
                self.trace,
                clock=self._clock,          # bound methods: deepcopy-safe
                dispatch=self._dispatch,
                dedup=faults.dedup_effective,
                obs=NULL_OBS,
            )
            for i in range(n)
        ]
        self.protocol_name = self.nodes[0].protocol.name
        self.in_class_p = type(self.nodes[0].protocol).in_class_p
        if faults.crash > 0:
            if not type(self.nodes[0].protocol).supports_snapshot:
                raise ValueError(
                    f"protocol {self.protocol_name!r} does not support "
                    "snapshots; crash faults need snapshot_state/"
                    "restore_state"
                )
            if self.nodes[0].protocol.timer_interval is not None:
                raise ValueError(
                    f"protocol {self.protocol_name!r} uses timers, which "
                    "the WAL does not journal; crash faults are limited "
                    "to timer-free protocols"
                )
        self._timer_budget = [
            timer_budget if node.protocol.timer_interval is not None else 0
            for node in self.nodes
        ]
        self._has_timers = any(self._timer_budget)
        for node in self.nodes:
            node.start()
        #: findings raised by bootstrap traffic (e.g. token injection);
        #: the explorer reports these against the empty choice path.
        self.bootstrap_findings = self._absorb()

    # -- node plumbing (bound methods; see module docstring) ----------------

    def _clock(self) -> float:
        return float(self._now)

    def _dispatch(self, sender: int, outgoing: Sequence[Outgoing]) -> None:
        for out in outgoing:
            if out.dest == BROADCAST:
                if self._sent is not None:
                    self._sent[sender].append(encode_message(out.message))
                dests = [d for d in range(self.n_processes) if d != sender]
            else:
                dests = [out.dest]
            if self._replaying:
                continue
            for dest in dests:
                self._enqueue(sender, dest, out.message)

    def _enqueue(self, sender: int, dest: int, message: Message) -> None:
        is_update = isinstance(message, UpdateMessage)
        prefix = "u" if is_update else "c"
        seq = self._emit_seq[sender]
        self._emit_seq[sender] = seq + 1
        mid = f"{prefix}:{sender}.{seq}>{dest}"
        problem = _find_mutable(message.value) if is_update else None
        if problem is None:
            for key in sorted(message.payload):
                problem = _find_mutable(message.payload[key])
                if problem is not None:
                    problem = f"payload[{key!r}] holds {problem}"
                    break
        if problem is not None:
            self._pending_findings.append(Finding(
                kind="isolation", process=sender,
                wid=getattr(message, "wid", None),
                detail=f"message {mid} carries mutable state shared "
                       f"across nodes/clones: {problem}",
            ))
        self._msgs.append(message)
        self._pool[mid] = _Pending(
            mid=mid, sender=sender, dest=dest, message=message,
            fingerprint=_fingerprint(message), is_update=is_update,
        )

    # -- transition system --------------------------------------------------

    def enabled(self) -> List[Transition]:
        """All enabled transitions, in a deterministic order."""
        ts: List[Transition] = []
        crashed = [node.crashed for node in self.nodes]
        for p in range(self.n_processes):
            if crashed[p]:
                continue
            if self.pc[p] < len(self.workload.scripts[p]):
                ts.append(("op", p))
        for p in range(self.n_processes):
            if self._timer_budget[p] > 0 and not crashed[p]:
                ts.append(("timer", p))
        mids = sorted(self._pool)
        for mid in mids:
            if not crashed[_dest(mid)]:
                ts.append(("deliver", mid))
        if self._crash_budget > 0:
            for p in range(self.n_processes):
                if not crashed[p]:
                    ts.append(("crash", p))
        if self.faults.recover:
            for p in range(self.n_processes):
                if crashed[p]:
                    ts.append(("recover", p))
        if self._dup_budget > 0:
            for mid in mids:
                entry = self._pool[mid]
                if entry.is_update and _core(mid) not in self._duped:
                    ts.append(("dup", mid))
        if self._drop_budget > 0:
            for mid in mids:
                if self._pool[mid].is_update:
                    ts.append(("drop", mid))
        return ts

    def execute(self, t: Transition) -> List[Finding]:
        """Apply one transition; return invariant findings it caused."""
        self._now += 1
        kind, arg = t
        if kind == "op":
            self._exec_op(arg)
        elif kind == "deliver":
            self._exec_deliver(arg)
        elif kind == "timer":
            self._timer_budget[arg] -= 1
            self.nodes[arg].fire_timer()
        elif kind == "crash":
            self._crash_budget -= 1
            self.nodes[arg].crash()
        elif kind == "recover":
            self._exec_recover(arg)
        elif kind == "dup":
            entry = self._pool[arg]
            self._dup_budget -= 1
            self._duped.add(_core(arg))
            self._pool["d:" + arg] = _Pending(
                mid="d:" + arg, sender=entry.sender, dest=entry.dest,
                message=entry.message, fingerprint=entry.fingerprint,
                is_update=True,
            )
        elif kind == "drop":
            entry = self._pool.pop(arg)
            self._drop_budget -= 1
            if self.faults.retransmit:
                self._pool["r:" + arg] = _Pending(
                    mid="r:" + arg, sender=entry.sender, dest=entry.dest,
                    message=entry.message, fingerprint=entry.fingerprint,
                    is_update=True,
                )
            else:
                self._lost.append(entry)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown transition {t!r}")
        return self._absorb()

    def _exec_op(self, p: int) -> None:
        op = self.workload.scripts[p][self.pc[p]]
        self.pc[p] += 1
        node = self.nodes[p]
        if isinstance(op, WriteOp):
            wid = node.do_write(op.variable, op.value)
            if wid is not None:
                self.writes.append(wid)
        elif isinstance(op, ReadOp):
            node.do_read(op.variable)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown op {op!r}")
        if self._durable is not None:
            # Journal what a served replica does: a one-op REQUEST run.
            # The *scripted* value: value=None replays as the same
            # deterministic fresh_value the original produced.
            if isinstance(op, WriteOp):
                request = (OP_WRITE, op.variable, op.value)
            else:
                request = (OP_READ, op.variable, None)
            body = encode_request((0,) * self.n_processes, [request])
            self._journal(p, encode_ops_record(float(self._now), 0, 1, body))

    def _exec_deliver(self, mid: str) -> None:
        entry = self._pool.pop(mid)
        if _fingerprint(entry.message) != entry.fingerprint:
            self._pending_findings.append(Finding(
                kind="isolation", process=entry.dest,
                wid=getattr(entry.message, "wid", None),
                detail=f"message {mid} mutated between send and delivery",
            ))
        self.nodes[entry.dest].receive(entry.message)
        if self._durable is not None:
            self._journal(entry.dest, encode_batch_record(
                float(self._now), encode_batch([encode_message(entry.message)])))

    def _journal(self, p: int, body: bytes) -> None:
        """Append one record to ``p``'s WAL (never truncated, as a served
        replica's is not) and snapshot every ``snap_every`` records."""
        snapshot, covered, wal = self._durable[p]
        wal += (body,)
        every = self.faults.snap_every
        if every and len(wal) - covered >= every:
            covered = len(wal)
            snapshot = encode_snapshot(snapshot_document(
                self.nodes[p], float(self._now), self._sent[p], covered))
        self._durable[p] = (snapshot, covered, wal)

    def _exec_recover(self, p: int) -> None:
        """Rebuild ``p`` from its snapshot + WAL as a restarted server
        does, into a fresh node on a null trace (its pre-crash events
        are on the trace, and its sends in the pool: ``_replaying``
        holds them back), then put it on the live trace.  ``losetail:N``
        hides the WAL's last N records (the BrokenRecovery mutation).
        The quiescence ledger is carried over from the crashed node: it
        counts what the trace saw, not what the replay re-did."""
        snapshot, _, wal = self._durable[p]
        wal = wal[:max(0, len(wal) - self.faults.wal_lose_tail)]
        node = Node(self._factory(p, self.n_processes),
                    NullTrace(self.n_processes), clock=self._clock,
                    dispatch=self._dispatch,
                    dedup=self.faults.dedup_effective, obs=NULL_OBS)
        self._sent[p] = []
        self._replaying = True
        try:
            recover_node(node, snapshot, wal, self._sent[p])
        finally:
            self._replaying = False
        node.trace = self.trace
        crashed = self.nodes[p]
        node.writes = crashed.writes
        node.deferred_applies = crashed.deferred_applies
        node.remote_applies = crashed.remote_applies
        self.nodes[p] = node

    def _absorb(self) -> List[Finding]:
        """Feed newly recorded trace events to the invariant tracker."""
        events = self.trace.events[self._seen_events:]
        self._seen_events += len(events)
        self.last_trace_grew = bool(events)
        findings = self._pending_findings
        self._pending_findings = []
        findings.extend(self.tracker.observe(self.trace, events))
        return findings

    # -- terminal conditions ------------------------------------------------

    @property
    def quiescent(self) -> bool:
        """Mirror of ``SimCluster._quiescent``: workload done, no update
        in flight, and the nodes' ledger :func:`~repro.sim.node.settled`.

        A crashed process under crash-*recovery* blocks quiescence (its
        recover transition is always enabled, so such paths keep
        running); under crash-*stop* the accounting is judged over the
        survivors only -- see :meth:`_quiescent_crash_stop`.
        """
        if any(node.crashed for node in self.nodes):
            if self.faults.recover:
                return False
            return self._quiescent_crash_stop()
        for p in range(self.n_processes):
            if self.pc[p] < len(self.workload.scripts[p]):
                return False
        if any(e.is_update for e in self._pool.values()):
            return False
        return settled(self.nodes)

    def _quiescent_crash_stop(self) -> bool:
        """Survivor-only quiescence: live scripts done, no update in
        flight *to a live process*, and every scripted write has reached
        every live process other than its (live) writer.

        Writes issued by a now-crashed process still count: their
        broadcasts sit in the pool (connected channels) and the
        survivors must apply them -- paper liveness (Theorem 5)
        restricted to the correct processes.
        """
        nodes = self.nodes
        live = [p for p in range(self.n_processes) if not nodes[p].crashed]
        for p in live:
            if self.pc[p] < len(self.workload.scripts[p]):
                return False
        if any(e.is_update and not nodes[e.dest].crashed
               for e in self._pool.values()):
            return False
        n_live = len(live)
        expected = sum(
            n_live if nodes[wid.process].crashed else n_live - 1
            for wid in self.writes
        )
        got = sum(nodes[p].remote_applies for p in live)
        missing = sum(nodes[p].protocol.missing_applies() for p in live)
        return got + missing >= expected

    def status(self) -> str:
        """``running`` | ``quiescent`` | ``stuck`` | ``truncated``.

        ``stuck`` is a liveness violation (nothing enabled, yet not
        quiescent); ``truncated`` is "out of timer budget" -- the
        checker cannot conclude anything about liveness there.
        """
        if self.quiescent:
            return "quiescent"
        if not self.enabled():
            if self._lost or any(n.buffered_count for n in self.nodes):
                return "stuck"
            return "truncated" if self._has_timers else "stuck"
        return "running"

    def terminal_findings(self, status: str) -> List[Finding]:
        """Invariants judged only at path end (liveness, convergence,
        leftover isolation fingerprints)."""
        findings: List[Finding] = []
        for entry in self._pool.values():
            if _fingerprint(entry.message) != entry.fingerprint:
                findings.append(Finding(
                    kind="isolation", process=entry.sender,
                    wid=getattr(entry.message, "wid", None),
                    detail=f"pending message {entry.mid} mutated after send",
                ))
        if status == "quiescent":
            if self.in_class_p:
                findings.extend(
                    f for f in self.tracker.liveness_findings(self.writes)
                    if not self.nodes[f.process].crashed
                )
            if self.check_convergence:
                findings.extend(self._convergence_findings())
            # Quiescence is judged by apply accounting; a message still
            # buffered here is wedged junk (e.g. a duplicate admitted
            # without the dedup guard) that no future apply can free.
            # Crashed processes (crash-stop) are exempt throughout:
            # liveness only binds the correct processes.
            for p, node in enumerate(self.nodes):
                if node.crashed:
                    continue
                for msg in node.pending:
                    findings.append(Finding(
                        kind="stuck_message", process=p, wid=msg.wid,
                        detail=f"{msg.wid} still buffered at p{p} at "
                               "quiescence (undeliverable forever)",
                    ))
        elif status == "stuck":
            for entry in self._lost:
                findings.append(Finding(
                    kind="liveness", process=entry.dest,
                    wid=getattr(entry.message, "wid", None),
                    detail=f"update {entry.mid} dropped without retransmit "
                           f"and never delivered to p{entry.dest}",
                ))
            for p, node in enumerate(self.nodes):
                for msg in node.pending:
                    findings.append(Finding(
                        kind="stuck_message", process=p, wid=msg.wid,
                        detail=f"{msg.wid} buffered forever at p{p} "
                               "(activation condition never satisfied)",
                    ))
            if not findings:
                findings.append(Finding(
                    kind="liveness", process=-1,
                    detail="no enabled transitions before quiescence",
                ))
        return findings

    def _convergence_findings(self) -> List[Finding]:
        """Ordered-write agreement, *not* causal convergence: this
        rejects replicas that settle a variable on two final writes
        only when one is in the causal past of the other -- the replica
        holding the causally older write either missed an apply
        (liveness) or applied out of order (safety).  Disagreement
        between ``||co`` writes passes (the paper imposes no total
        order on them), so replicas that diverge forever on concurrent
        writes to one key are not a finding (ROADMAP item 14).
        Crash-stop terminals compare the surviving replicas only."""
        stores = [node.protocol.store_snapshot()
                  for node in self.nodes if not node.crashed]
        variables = sorted({v for s in stores for v in s}, key=repr)
        past = self.tracker.past
        findings = []
        for var in variables:
            wids = {store.get(var, (None, None))[1] for store in stores}
            if len(wids) <= 1:
                continue
            finals = sorted(wids, key=repr)
            for i, w1 in enumerate(finals):
                for w2 in finals[i + 1:]:
                    ordered = (w1 in past.get(w2, ()) or
                               w2 in past.get(w1, ()))
                    if ordered:
                        findings.append(Finding(
                            kind="convergence", process=-1,
                            detail=f"stores settle {var!r} on causally "
                                   f"ordered writes {w1} vs {w2} at "
                                   "quiescence",
                        ))
        return findings

    # -- exploration support ------------------------------------------------

    def state_key(self) -> str:
        """Fingerprint for cycle pruning (only consulted along chains of
        transitions that record no trace events, where protocol control
        loops -- token hops, dedup'd duplicates -- could revisit a
        state)."""
        parts: List[Any] = [
            tuple(self.pc),
            tuple(self._emit_seq),
            tuple(self._timer_budget),
            self._dup_budget,
            self._drop_budget,
            tuple(sorted(self._pool)),
            tuple(node.crashed for node in self.nodes),
            self._crash_budget,
        ]
        if self._durable is not None:
            parts.append(tuple((covered, len(wal))
                               for _, covered, wal in self._durable))
        for node in self.nodes:
            store = node.protocol.store_snapshot()
            parts.append((
                repr(sorted(store.items(), key=repr)),
                repr(node.protocol.debug_state()),
                node.duplicates_dropped,
                repr([(m.wid, m.variable) for m in node.pending]),
            ))
        return repr(parts)

    def clone(self) -> "ControlledCluster":
        """Branch-point snapshot; shares immutable objects with the
        parent (see module docstring).

        Everything outside the nodes is copied by hand (container
        copies of shared immutable values -- this runs once per
        explored transition and dominates exploration cost).  The nodes
        (protocol + scheduler state, arbitrary per-protocol structure)
        go through ``copy.deepcopy`` with a memo pre-seeded so that the
        trace, every message ever sent, and the cluster itself resolve
        to their new-branch counterparts -- the last entry is what
        rebinds the nodes' bound-method clock/dispatch callbacks to the
        clone."""
        new = ControlledCluster.__new__(ControlledCluster)
        new.n_processes = self.n_processes
        new.workload = self.workload          # frozen
        new.faults = self.faults              # frozen
        new._now = self._now
        new.trace = self.trace.clone_shared()
        new._seen_events = self._seen_events
        new._pool = dict(self._pool)          # entries frozen
        new._msgs = list(self._msgs)
        new._emit_seq = list(self._emit_seq)
        new._pending_findings = list(self._pending_findings)
        new.writes = list(self.writes)
        new.pc = list(self.pc)
        new._dup_budget = self._dup_budget
        new._drop_budget = self._drop_budget
        new._duped = set(self._duped)
        new._lost = list(self._lost)          # entries frozen
        new._factory = self._factory          # shared callable
        new._crash_budget = self._crash_budget
        new._durable = (None if self._durable is None
                        else list(self._durable))
        new._sent = (None if self._sent is None
                     else [list(sent) for sent in self._sent])
        new._replaying = False
        new.check_convergence = self.check_convergence
        new.tracker = self.tracker.clone()
        new.last_trace_grew = self.last_trace_grew
        new.protocol_name = self.protocol_name
        new.in_class_p = self.in_class_p
        new._timer_budget = list(self._timer_budget)
        new._has_timers = self._has_timers
        new.bootstrap_findings = self.bootstrap_findings  # frozen entries
        memo: Dict[int, Any] = {
            id(self): new,
            id(self.trace): new.trace,
            id(NULL_OBS): NULL_OBS,
        }
        for msg in self._msgs:
            memo[id(msg)] = msg
        new.nodes = copy.deepcopy(self.nodes, memo)
        return new
