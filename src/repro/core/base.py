"""The protocol class 𝒫 of the paper (Section 3.2), as a Python ABC.

Every protocol ``P ∈ 𝒫`` reacts to three stimuli:

- a local **write** ``w_i(x)v``: applied locally, and propagated to the
  other processes (the ``send`` event) so that each ``p_k`` eventually
  produces ``apply_k(w)``;
- a local **read** ``r_i(x)``: wait-free, returns the locally visible
  value (the ``return`` event);
- a **receipt** of an update message: the protocol classifies it as
  immediately applicable, to be buffered (a *write delay*,
  Definition 3), or -- for the writing-semantics variants, which leave
  𝒫 -- to be discarded as overwritten.

The hosting substrate (:mod:`repro.sim` or :mod:`repro.runtime`) owns
the pending buffer, re-examines buffered messages when applies land
(the counting wakeup scheduler of :mod:`repro.sim.scheduler` for
protocols that declare a :meth:`Protocol.requirement`, a classify
re-scan for those that cannot enumerate their wait predicate), and
records the trace events (`send`,
`receipt`, `apply`, `return`, plus `buffer`/`discard`/`suppress`
bookkeeping events) that the analyzers consume.

Protocols that need non-write-triggered communication (the token of the
Jimenez et al. variant) emit :class:`ControlMessage` values, which the
substrate routes to :meth:`Protocol.on_control` immediately on receipt,
bypassing the buffer.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.flatstate import DENSE_THRESHOLD, ProgressMirror, wide_row
from repro.model.operations import BOTTOM, WriteId

#: Destination sentinel: deliver to every other process.
BROADCAST = -1


@dataclass(frozen=True, init=False)
class UpdateMessage:
    """Propagation of one write operation (the paper's ``m(x_h, v, ...)``).

    ``payload`` carries the protocol-specific control data -- e.g. OptP
    piggybacks the write's ``Write_co`` vector (Figure 4, line 2),
    ANBKH a Fidge-Mattern vector.  Payload values must be immutable
    (tuples, not lists): messages are shared between the sender's trace
    and every receiver.
    """

    sender: int
    wid: WriteId
    variable: Hashable
    value: Any
    payload: Mapping[str, Any] = field(default_factory=dict)
    #: Receiver-side cache of the requirement row's summary
    #: (:func:`repro.core.flatstate.wide_row`), filled only for rows
    #: wider than ``DENSE_THRESHOLD``.  Deliberately *outside*
    #: ``payload`` (and excluded from construction/comparison/repr): it
    #: is derived from numbers the payload already carries, so
    #: wire-size estimates, message fingerprints, and payload
    #: immutability scans are unaffected.
    row_cache: Any = field(default=None, init=False, compare=False,
                           repr=False)

    # Every write builds one and every receipt decodes one: the
    # generated ``__init__`` would pay a ``object.__setattr__`` call
    # per field, this one writes the instance dict.  ``payload=None``
    # means an empty payload.
    def __init__(self, sender: int, wid: WriteId, variable: Hashable,
                 value: Any, payload: Optional[Mapping[str, Any]] = None):
        d = self.__dict__
        d["sender"] = sender
        d["wid"] = wid
        d["variable"] = variable
        d["value"] = value
        d["payload"] = {} if payload is None else payload
        d["row_cache"] = None

    def __str__(self) -> str:
        return f"m({self.variable}={self.value!r} from {self.wid})"


@dataclass(frozen=True)
class ControlMessage:
    """Non-update protocol traffic (e.g. the Jimenez token)."""

    sender: int
    kind: str
    payload: Mapping[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"ctrl({self.kind} from p{self.sender})"


Message = Union[UpdateMessage, ControlMessage]


@dataclass(frozen=True, init=False)
class Outgoing:
    """A message and its destination (``BROADCAST`` or a process id)."""

    message: Message
    dest: int = BROADCAST

    def __init__(self, message: Message, dest: int = BROADCAST):
        d = self.__dict__
        d["message"] = message
        d["dest"] = dest


class Disposition(enum.Enum):
    """Receiver-side classification of an update message."""

    #: All enabling events have occurred: apply now.
    APPLY = "apply"
    #: Some enabling event is missing: buffer (this is a write delay).
    BUFFER = "buffer"
    #: Writing semantics: the write is overwritten; never apply it.
    DISCARD = "discard"


@dataclass(frozen=True, init=False)
class WriteOutcome:
    """Result of a local write: its identity and the traffic it generates.

    ``local_apply`` is True for the paper's class-𝒫 protocols (the
    write procedure applies to the local copy immediately, Figure 4
    line 3).  Protocols that defer their own apply to an ordering
    mechanism (e.g. the totally-ordered sequencer baseline waits for
    its stamped copy to come back) set it False; the substrate then
    records the local apply when the protocol reports it via
    :meth:`Protocol.record_apply`.
    """

    wid: WriteId
    outgoing: Tuple[Outgoing, ...] = ()
    local_apply: bool = True

    def __init__(self, wid: WriteId, outgoing: Tuple[Outgoing, ...] = (),
                 local_apply: bool = True):
        d = self.__dict__
        d["wid"] = wid
        d["outgoing"] = outgoing
        d["local_apply"] = local_apply


@dataclass(frozen=True, init=False)
class ReadOutcome:
    """Result of a local read: the value and the write it came from.

    ``read_from is None`` means the location still held ``BOTTOM``.
    """

    value: Any
    read_from: Optional[WriteId]

    def __init__(self, value: Any, read_from: Optional[WriteId]):
        d = self.__dict__
        d["value"] = value
        d["read_from"] = read_from


class Protocol(abc.ABC):
    """Abstract base for every protocol in (or compared against) 𝒫.

    Subclasses implement the five hooks below.  A protocol instance is
    owned by exactly one process and must never be shared.

    Attributes
    ----------
    process_id:
        0-based id of the owning process ``p_i``.
    n_processes:
        Total process count ``n``.
    """

    #: Short human-readable protocol name (used in reports and benches).
    name: ClassVar[str] = "abstract"

    #: Whether the protocol guarantees every write is applied at every
    #: process (i.e. belongs to class 𝒫).  The writing-semantics
    #: variants set this False -- the liveness checker then accounts
    #: for discarded/suppressed writes instead of failing.
    in_class_p: ClassVar[bool] = True

    #: When set, the substrate fires :meth:`on_timer` every
    #: ``timer_interval`` simulated time units (anti-entropy rounds,
    #: retransmission, ...).  ``None`` = no timer.
    timer_interval: ClassVar[Optional[float]] = None

    def __init__(self, process_id: int, n_processes: int):
        if not 0 <= process_id < n_processes:
            raise ValueError(
                f"process_id {process_id} out of range [0, {n_processes})"
            )
        self.process_id = process_id
        self.n_processes = n_processes
        self._store: Dict[Hashable, Tuple[Any, Optional[WriteId]]] = {}
        self._write_seq = 0
        self._apply_recorder: Optional[Any] = None
        #: The live progress vector :meth:`requirement` rows are
        #: measured against -- the protocol's *own* apply-count list
        #: (``Apply``, ``vc``, ...), bound by subclasses that declare a
        #: requirement and only ever mutated in place.
        self.progress: Optional[List[int]] = None
        self._mirror: Optional[ProgressMirror] = None

    # -- local replica ------------------------------------------------------

    def store_get(self, variable: Hashable) -> Tuple[Any, Optional[WriteId]]:
        """Current locally visible ``(value, writer)`` for ``variable``.

        Returns ``(BOTTOM, None)`` for never-written locations.
        """
        return self._store.get(variable, (BOTTOM, None))

    def store_put(self, variable: Hashable, value: Any, wid: WriteId) -> None:
        """Overwrite the local replica of ``variable``."""
        self._store[variable] = (value, wid)

    def store_snapshot(self) -> Dict[Hashable, Tuple[Any, Optional[WriteId]]]:
        """A copy of the whole local replica (for final-state checks)."""
        return dict(self._store)

    def next_wid(self) -> WriteId:
        """Allocate the next :class:`WriteId` for a local write."""
        self._write_seq += 1
        return WriteId(self.process_id, self._write_seq)

    @property
    def writes_issued(self) -> int:
        return self._write_seq

    # -- protocol hooks ------------------------------------------------------

    @abc.abstractmethod
    def write(self, variable: Hashable, value: Any) -> WriteOutcome:
        """Perform a local write; return its id and outgoing messages."""

    @abc.abstractmethod
    def read(self, variable: Hashable) -> ReadOutcome:
        """Perform a wait-free local read."""

    @abc.abstractmethod
    def classify(self, msg: UpdateMessage) -> Disposition:
        """Decide the fate of a (newly arrived or buffered) update.

        Must be side-effect free: the substrate calls it repeatedly on
        buffered messages.
        """

    @abc.abstractmethod
    def apply_update(self, msg: UpdateMessage) -> None:
        """Apply an update previously classified ``APPLY``."""

    def discard_update(self, msg: UpdateMessage) -> None:
        """Account for an update classified ``DISCARD`` (WS variants)."""
        raise NotImplementedError(
            f"{type(self).__name__} never discards updates"
        )

    def on_control(self, msg: ControlMessage) -> Sequence[Outgoing]:
        """Handle a control message; return follow-up traffic."""
        raise NotImplementedError(
            f"{type(self).__name__} does not use control messages"
        )

    def bootstrap(self) -> Sequence[Outgoing]:
        """Traffic to emit at start-up (e.g. injecting the first token).

        Called once per process by the substrate before any operation
        runs.  Default: nothing.
        """
        return ()

    def on_timer(self) -> Sequence[Outgoing]:
        """Periodic hook (every :attr:`timer_interval`); returns traffic.

        Only called when :attr:`timer_interval` is set.
        """
        raise NotImplementedError(
            f"{type(self).__name__} declares no timer_interval"
        )

    # -- substrate callbacks ----------------------------------------------------

    def bind_recorder(self, recorder: Any) -> None:
        """Install the substrate's apply recorder.

        Most protocols never need it: the substrate records the apply
        event itself when :meth:`apply_update` returns.  Protocols that
        apply writes outside the update-message flow (e.g. the batched
        applies of the token protocol, delivered via control messages)
        call :meth:`record_apply` for each write so the trace stays
        complete.
        """
        self._apply_recorder = recorder

    def record_apply(self, wid: WriteId, variable: Hashable, value: Any) -> None:
        """Report an out-of-band apply event to the substrate's trace."""
        if self._apply_recorder is not None:
            self._apply_recorder(wid, variable, value)

    # -- delivery scheduling ---------------------------------------------------

    def requirement(
        self, msg: UpdateMessage
    ) -> Optional[Tuple[Sequence[int], int]]:
        """The wait predicate of ``msg`` as data: ``(row, pivot)``.

        The one readiness declaration besides :meth:`classify` (see
        DESIGN.md, "Buffering strategy").  ``row`` has one entry per
        component of :attr:`progress`; the message is applicable iff

        - ``progress[c] >= row[c]`` for every ``c != pivot``, and
        - ``progress[pivot] == row[pivot] - 1`` *exactly*: the message
          is advance number ``row[pivot]`` of its pivot component, and
          :meth:`apply_update` performs that advance (by one).

        Everything else is derived by the substrate: an unsatisfied
        ``(c, row[c])`` waits for component ``c`` to reach ``row[c]``,
        the apply of this message fires ``(pivot, row[pivot])``, and a
        pivot that has *overshot* marks a duplicate of an applied write
        (parked forever, the wedged-buffer semantics of the re-scan).

        Return ``None`` (the default) when the predicate cannot be
        enumerated this way -- writing-semantics discards, token
        batches, gossip; the substrate then re-scans with
        :meth:`classify`.  Must agree with :meth:`classify`, be side-
        effect free, and copy nothing it can hand over as is: OptP
        returns the ``Write_co`` tuple its payload carries.
        """
        return None

    def missing_deps(
        self,
        msg: UpdateMessage,
        requirement: Optional[Tuple[Sequence[int], int]] = None,
    ) -> Optional[List[Tuple[int, int]]]:
        """Evaluate :meth:`requirement` against :attr:`progress`.

        Returns the still-unsatisfied ``(component, required)`` keys,
        pivot first (``required`` for the pivot is ``row[pivot] - 1``),
        or ``None`` when the protocol declares no requirement.  An empty
        list means *applicable now*.  An overshot pivot is reported
        alone: nothing can ever satisfy it.

        Derived, never overridden -- this is the single evaluation of
        the wait predicate the counting scheduler runs per receipt (it
        passes the ``requirement`` it already holds).
        """
        if requirement is None:
            requirement = self.requirement(msg)
            if requirement is None:
                return None
        row, pivot = requirement
        progress = self.progress
        need = row[pivot] - 1
        have = progress[pivot]
        if have == need:
            missing: List[Tuple[int, int]] = []
        elif have > need:
            return [(pivot, need)]
        else:
            missing = [(pivot, need)]
        if len(row) <= DENSE_THRESHOLD:
            c = 0
            for required in row:
                if progress[c] < required and c != pivot:
                    missing.append((c, required))
                c += 1
            return missing
        _, items, dense = wide_row(msg, row)
        if dense is None:
            for c, required in items:
                if progress[c] < required and c != pivot:
                    missing.append((c, required))
            return missing
        mirror = self._mirror
        if mirror is None:
            mirror = self._mirror = ProgressMirror(progress)
        missing += mirror.unsatisfied(row, dense, pivot)
        return missing

    # -- durability ------------------------------------------------------------

    #: Class-level opt-in to crash durability (:mod:`repro.durability`).
    #: A protocol that sets this True must implement
    #: :meth:`snapshot_state` / :meth:`restore_state` as exact inverses
    #: over the codec value vocabulary (:mod:`repro.serve.codec`).
    #: Only snapshot-capable protocols can be crash-checked or served
    #: with a write-ahead log.
    supports_snapshot: ClassVar[bool] = False

    def snapshot_state(self) -> Dict[str, Any]:
        """The protocol's complete durable state as a codec-encodable
        document.  Must capture everything :meth:`restore_state` needs
        to make a fresh instance behaviorally identical: the store, the
        write counter, and all control vectors.  Values must be
        snapshots, not live references."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support snapshots"
        )

    def restore_state(self, doc: Dict[str, Any]) -> None:
        """Inverse of :meth:`snapshot_state` on a freshly constructed
        instance.  Must mutate existing vectors in place
        (:attr:`progress` *is* one of them)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support snapshots"
        )

    # -- introspection --------------------------------------------------------

    def debug_state(self) -> Dict[str, Any]:
        """Protocol-internal state for tracing/diagnostics (e.g. the
        ``Write_co`` evolution shown in Figure 6).  Values must be
        snapshots, not live references."""
        return {}

    def stats(self) -> Dict[str, int]:
        """Protocol-specific counters (suppressed writes, discards, ...)."""
        return {}

    def missing_applies(self) -> int:
        """Apply events this process is responsible for *never* producing.

        Class-𝒫 protocols return 0 (every write is applied everywhere,
        Theorem 5).  Writing-semantics variants report how many applies
        they legitimately skipped: the receiver-side variant counts the
        writes it overwrote locally; the token variant counts
        ``suppressed * (n - 1)`` at the sender, since a suppressed write
        is never propagated to the other ``n - 1`` processes.  The
        simulation substrate uses the sum of these to know when a run
        has quiesced.
        """
        return 0
