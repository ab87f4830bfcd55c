"""Histories and the causal order ``->co`` (paper, Section 2).

A *local history* ``h_i`` is the sequence of operations executed by the
sequential process ``p_i`` (so ``->po_i`` is just the sequence order).
A *global history* ``H = <h_1 .. h_n>`` together with the causal order
``->co`` forms the partial order :math:`\\hat H = (H, \\mapsto_{co})`,
where ``->co`` is the transitive closure of

- **process order**: ``o1 ->po_i o2`` (same process, o1 earlier), and
- **read-from order**: ``o1 ->ro o2`` (o1 a write, o2 a read returning
  the value o1 wrote).

Two operations are *concurrent* (``o1 ||co o2``) when neither causally
precedes the other, and the *causal past* of an operation ``o`` is
:math:`\\downarrow(o, \\mapsto_{co}) = \\{o' \\mid o' \\mapsto_{co} o\\}`.

Implementation notes
--------------------

The base relation (po + ro edges) is a digraph over operations.  For
histories produced by correct protocols it is acyclic, but *arbitrary*
histories can contain ``->co`` cycles (e.g. two processes each reading a
value the other writes only later); the legality checker must detect
and reject those rather than crash.  :class:`CausalOrder` numbers the
operations in :meth:`History.operations` order and keeps, per
operation, its strict ancestors and descendants as bitsets on plain
Python ints.  On a DAG both come from one pass each in Kahn order; a
cyclic history falls back to a search per operation, so members of a
nontrivial strongly connected component precede each other and
themselves.  Legality, safety, the delay audit and characterization
(:mod:`repro.model.legality`, :mod:`repro.analysis.checker`) are bitwise
ANDs over these sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.model.operations import (
    BOTTOM,
    Operation,
    Read,
    Write,
    WriteId,
    fresh_value,
)

OpKey = Tuple[int, int]


@dataclass(frozen=True)
class LocalHistory:
    """The sequence of operations executed by one process.

    Operations must carry the owning process id and consecutive 0-based
    indices; :meth:`validate` checks both, plus the monotonicity of
    write sequence numbers (writes by ``p_i`` must carry ``WriteId``
    seq values 1, 2, 3, ... in order).
    """

    process: int
    operations: Tuple[Operation, ...]

    def validate(self) -> None:
        expected_seq = 1
        for idx, op in enumerate(self.operations):
            if op.process != self.process:
                raise ValueError(
                    f"operation {op} at index {idx} belongs to process "
                    f"{op.process}, not {self.process}"
                )
            if op.index != idx:
                raise ValueError(
                    f"operation {op} has index {op.index}, expected {idx}"
                )
            if isinstance(op, Write):
                if op.wid.seq != expected_seq:
                    raise ValueError(
                        f"write {op} has seq {op.wid.seq}, expected "
                        f"{expected_seq} (write seq numbers must be "
                        "consecutive from 1)"
                    )
                expected_seq += 1

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations)

    def __getitem__(self, idx: int) -> Operation:
        return self.operations[idx]

    @property
    def writes(self) -> Tuple[Write, ...]:
        return tuple(op for op in self.operations if isinstance(op, Write))

    @property
    def reads(self) -> Tuple[Read, ...]:
        return tuple(op for op in self.operations if isinstance(op, Read))


class History:
    """A global history ``H = <h_1 .. h_n>`` with its causal order.

    Construct directly from :class:`LocalHistory` values or use
    :class:`HistoryBuilder` for hand-written examples.  The causal
    order is computed lazily and cached.
    """

    def __init__(self, locals_: Sequence[LocalHistory], *, validate: bool = True):
        locals_ = sorted(locals_, key=lambda lh: lh.process)
        if validate:
            for i, lh in enumerate(locals_):
                if lh.process != i:
                    raise ValueError(
                        f"local histories must cover processes 0..n-1; "
                        f"got process {lh.process} at position {i}"
                    )
                lh.validate()
        self._locals: Tuple[LocalHistory, ...] = tuple(locals_)
        self._writes_by_id: Dict[WriteId, Write] = {}
        for lh in self._locals:
            for op in lh.writes:
                if op.wid in self._writes_by_id:
                    raise ValueError(f"duplicate WriteId {op.wid}")
                self._writes_by_id[op.wid] = op

    # -- basic accessors --------------------------------------------------

    @property
    def n_processes(self) -> int:
        return len(self._locals)

    @property
    def locals(self) -> Tuple[LocalHistory, ...]:
        return self._locals

    def local(self, process: int) -> LocalHistory:
        return self._locals[process]

    def operations(self) -> Iterator[Operation]:
        """All operations, grouped by process, in process order."""
        for lh in self._locals:
            yield from lh

    def writes(self) -> Iterator[Write]:
        for lh in self._locals:
            yield from lh.writes

    def reads(self) -> Iterator[Read]:
        for lh in self._locals:
            yield from lh.reads

    def write_by_id(self, wid: WriteId) -> Write:
        """Look up the write with identity ``wid`` (KeyError if absent)."""
        return self._writes_by_id[wid]

    def has_write(self, wid: WriteId) -> bool:
        return wid in self._writes_by_id

    def op(self, key: OpKey) -> Operation:
        process, index = key
        return self._locals[process][index]

    def variables(self) -> set:
        return {op.variable for op in self.operations()}

    # -- relations ---------------------------------------------------------

    def base_edges(self) -> Iterator[Tuple[Operation, Operation]]:
        """The generating edges of ``->co``: po edges plus ro edges.

        Process order contributes only *consecutive* pairs (transitivity
        is handled by the closure); read-from contributes one edge per
        read that returned a written (non-BOTTOM) value.
        """
        for lh in self._locals:
            for a, b in zip(lh.operations, lh.operations[1:]):
                yield (a, b)
        for lh in self._locals:
            for op in lh.reads:
                if op.read_from is not None:
                    writer = self._writes_by_id.get(op.read_from)
                    if writer is None:
                        raise ValueError(
                            f"read {op} reads-from unknown write {op.read_from}"
                        )
                    yield (writer, op)

    @cached_property
    def causal_order(self) -> "CausalOrder":
        """The (cached) transitive closure structure for ``->co``."""
        return CausalOrder(self)

    # -- dunder ------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(lh) for lh in self._locals)

    def __str__(self) -> str:
        lines = []
        for lh in self._locals:
            ops = "; ".join(str(op) for op in lh)
            lines.append(f"h{lh.process}: {ops}")
        return "\n".join(lines)


def close(adjacent: Sequence[Sequence[int]], order: Iterable[int]) -> List[int]:
    """Reachability bitsets over a DAG given as adjacency lists.

    ``order`` must visit every node after all of its ``adjacent`` nodes
    (reverse topological order for successor lists, topological order
    for predecessor lists).  Returns ``reach`` with bit ``j`` of
    ``reach[i]`` set iff ``j`` is reachable from ``i`` in one or more
    steps.
    """
    reach = [0] * len(adjacent)
    for i in order:
        mask = 0
        for j in adjacent[i]:
            mask |= reach[j] | (1 << j)
        reach[i] = mask
    return reach


def _search(adjacent: Sequence[Sequence[int]], start: int) -> int:
    """Reachability bitset from ``start`` by explicit search (any graph)."""
    seen = 0
    stack = list(adjacent[start])
    while stack:
        j = stack.pop()
        if not seen >> j & 1:
            seen |= 1 << j
            stack.extend(adjacent[j])
    return seen


def bit_positions(mask: int) -> List[int]:
    """The set bits of ``mask``, lowest first."""
    return [i for i, c in enumerate(reversed(bin(mask))) if c == "1"]


class CausalOrder:
    """``->co`` as ancestor and descendant bitsets over a history.

    Bit ``i`` stands for ``ops[i]``, the ``i``-th operation of
    :meth:`History.operations`; ``anc[i]`` / ``desc[i]`` hold the
    operations that causally precede / follow ``ops[i]``.  Cyclic base
    relations (possible only in *inconsistent* histories) are handled
    gracefully: operations inside a nontrivial strongly connected
    component causally precede each other and themselves, which
    :mod:`repro.model.legality` treats as an automatic violation.
    """

    def __init__(self, history: History):
        self.ops: List[Operation] = list(history.operations())
        self.index: Dict[OpKey, int] = {
            op.key: i for i, op in enumerate(self.ops)
        }
        succ: List[List[int]] = [[] for _ in self.ops]
        pred: List[List[int]] = [[] for _ in self.ops]
        for a, b in history.base_edges():
            i, j = self.index[a.key], self.index[b.key]
            succ[i].append(j)
            pred[j].append(i)
        # Kahn: a topological order exists iff the base relation is a DAG.
        indegree = [len(p) for p in pred]
        order = [i for i, d in enumerate(indegree) if d == 0]
        for i in order:
            for j in succ[i]:
                indegree[j] -= 1
                if indegree[j] == 0:
                    order.append(j)
        #: True when the base relation contains a cycle: only an
        #: inconsistent history has one, never a protocol trace.
        self.has_cycle = len(order) < len(self.ops)
        if self.has_cycle:
            nodes = range(len(self.ops))
            self.desc = [_search(succ, i) for i in nodes]
            self.anc = [_search(pred, i) for i in nodes]
        else:
            self.desc = close(succ, reversed(order))
            self.anc = close(pred, order)

    # -- queries -----------------------------------------------------------

    def bit(self, op: Operation) -> int:
        """The bit position standing for ``op``."""
        return self.index[op.key]

    def mask(self, ops: Iterable[Operation]) -> int:
        """The bitset of ``ops``."""
        out = 0
        for op in ops:
            out |= 1 << self.index[op.key]
        return out

    def precedes(self, o1: Operation, o2: Operation) -> bool:
        """``o1 ->co o2``: does o1 causally precede o2?"""
        return bool(self.desc[self.index[o1.key]] >> self.index[o2.key] & 1)

    def concurrent(self, o1: Operation, o2: Operation) -> bool:
        """``o1 ||co o2``: neither operation causally precedes the other."""
        if o1.key == o2.key:
            return False
        return not self.precedes(o1, o2) and not self.precedes(o2, o1)

    def causal_past(self, o: Operation) -> List[Operation]:
        """:math:`\\downarrow(o, \\mapsto_{co})` -- all ops preceding ``o``.

        ``o`` itself is left out even when a cycle makes it its own
        ancestor; :attr:`has_cycle` reports cycles.
        """
        i = self.index[o.key]
        return [self.ops[j] for j in bit_positions(self.anc[i] & ~(1 << i))]

    def causal_future(self, o: Operation) -> List[Operation]:
        """All operations that ``o`` causally precedes (``o`` excluded)."""
        i = self.index[o.key]
        return [self.ops[j] for j in bit_positions(self.desc[i] & ~(1 << i))]

    def write_causal_past(self, o: Operation) -> List[Write]:
        """The writes in ``o``'s causal past (what safety quantifies over)."""
        return [op for op in self.causal_past(o) if isinstance(op, Write)]


class HistoryBuilder:
    """Fluent construction of hand-written histories.

    Example (the paper's Example 1, history :math:`\\hat H_1`)::

        b = HistoryBuilder(3)
        wa = b.write(0, "x1", "a")
        wc = b.write(0, "x1", "c")
        b.read(1, "x1", wa)          # r2(x1)a
        wb = b.write(1, "x2", "b")
        b.read(2, "x2", wb)          # r3(x2)b
        wd = b.write(2, "x2", "d")
        h1 = b.build()

    ``write`` returns the :class:`WriteId` so later reads can name their
    writer directly, keeping ``->ro`` explicit and unambiguous.
    """

    def __init__(self, n_processes: int):
        if n_processes < 1:
            raise ValueError("need at least one process")
        self._n = n_processes
        self._ops: List[List[Operation]] = [[] for _ in range(n_processes)]
        self._next_seq: List[int] = [1] * n_processes
        self._writes: Dict[WriteId, Write] = {}

    def write(
        self,
        process: int,
        variable: Hashable,
        value: Any = None,
    ) -> WriteId:
        """Append a write by ``process``; returns its :class:`WriteId`.

        When ``value`` is omitted a fresh, human-readable unique value
        is generated.
        """
        self._check_process(process)
        wid = WriteId(process, self._next_seq[process])
        self._next_seq[process] += 1
        if value is None:
            value = fresh_value(wid)
        op = Write(
            process=process,
            index=len(self._ops[process]),
            variable=variable,
            value=value,
            wid=wid,
        )
        self._ops[process].append(op)
        self._writes[wid] = op
        return wid

    def read(
        self,
        process: int,
        variable: Hashable,
        from_: Optional[WriteId],
    ) -> Read:
        """Append a read by ``process`` returning ``from_``'s value.

        ``from_=None`` models a read of the initial value ``BOTTOM``.
        The read's variable must match the writer's variable.
        """
        self._check_process(process)
        if from_ is None:
            value: Any = BOTTOM
        else:
            writer = self._writes.get(from_)
            if writer is None:
                raise ValueError(f"read names unknown write {from_}")
            if writer.variable != variable:
                raise ValueError(
                    f"read of {variable!r} cannot read-from write of "
                    f"{writer.variable!r}"
                )
            value = writer.value
        op = Read(
            process=process,
            index=len(self._ops[process]),
            variable=variable,
            value=value,
            read_from=from_,
        )
        self._ops[process].append(op)
        return op

    def build(self, *, validate: bool = True) -> History:
        locals_ = [
            LocalHistory(process=i, operations=tuple(ops))
            for i, ops in enumerate(self._ops)
        ]
        return History(locals_, validate=validate)

    def _check_process(self, process: int) -> None:
        if not 0 <= process < self._n:
            raise ValueError(
                f"process {process} out of range [0, {self._n})"
            )


def example_h1() -> History:
    """The paper's Example 1 history :math:`\\hat H_1` (three processes).

    ::

        h1: w1(x1)a ; w1(x1)c
        h2: r2(x1)a ; w2(x2)b
        h3: r3(x2)b ; w3(x2)d

    (Paper uses 1-based process names p1..p3; this library is 0-based,
    so paper ``p1`` is process 0, etc.)
    """
    b = HistoryBuilder(3)
    wa = b.write(0, "x1", "a")
    b.write(0, "x1", "c")
    b.read(1, "x1", wa)
    wb = b.write(1, "x2", "b")
    b.read(2, "x2", wb)
    b.write(2, "x2", "d")
    return b.build()
