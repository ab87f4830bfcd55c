"""The write causality graph (paper, Section 4.3; Figure 7).

The relation ``w ->co w'`` between *writes* can always be decomposed
into a chain of *immediate* steps ``w ->co^0 w1 ->co^0 ... ->co^0 w'``
where ``w ->co^0 w'`` means no third write sits causally in between.
The **write causality graph** is the DAG whose vertices are the writes
of a history and whose edges are exactly those immediate steps; it is
the transitive *reduction* of ``->co`` restricted to writes.

Properties used by the paper:

- each write has at most ``n`` immediate predecessors (one per
  process) -- checked by :meth:`WriteCausalityGraph.validate`;
- the optimality proof (Lemma 3 / Theorem 4) inducts over chains in
  this graph.

Figure 7 of the paper is this graph for the Example 1 history, and is
regenerated by :mod:`repro.paperfigs.fig7`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.model.history import History, bit_positions
from repro.model.operations import Write, WriteId


def immediate_predecessors(history: History, w: Write) -> List[Write]:
    """The writes ``w'`` with ``w' ->co^0 w`` (no write in between).

    Computed directly from Definition: ``w'`` is an immediate
    predecessor of ``w`` iff ``w' ->co w`` and no write ``w''`` exists
    with ``w' ->co w'' ->co w``.
    """
    co = history.causal_order
    past = co.write_causal_past(w)
    out = []
    for cand in past:
        interposed = any(
            co.precedes(cand, mid) and co.precedes(mid, w)
            for mid in past
            if mid.wid != cand.wid
        )
        if not interposed:
            out.append(cand)
    return out


@dataclass(frozen=True)
class WriteCausalityGraph:
    """The write causality graph of a history, as adjacency dicts.

    ``preds`` / ``succs`` map every :class:`WriteId` to its immediate
    ``->co^0`` predecessors / successors, sorted.  Use
    :meth:`from_history` to build one.
    """

    history: History
    preds: Dict[WriteId, List[WriteId]]
    succs: Dict[WriteId, List[WriteId]]

    @classmethod
    def from_history(cls, history: History) -> "WriteCausalityGraph":
        """Build the graph (transitive reduction of ``->co`` on writes).

        A write's immediate predecessors are its past writes minus the
        union of their own past writes.
        """
        co = history.causal_order
        if co.has_cycle:
            raise ValueError(
                "cannot build a write causality graph for a history "
                "whose ->co relation is cyclic"
            )
        writes = co.mask(history.writes())
        preds: Dict[WriteId, List[WriteId]] = {}
        succs: Dict[WriteId, List[WriteId]] = {}
        for w in history.writes():
            past = co.anc[co.bit(w)] & writes
            covered = 0
            for i in bit_positions(past):
                covered |= co.anc[i]
            preds[w.wid] = sorted(
                co.ops[i].wid for i in bit_positions(past & ~covered))
            succs[w.wid] = []
        for wid in sorted(preds):
            for p in preds[wid]:
                succs[p].append(wid)
        return cls(history=history, preds=preds, succs=succs)

    # -- queries -----------------------------------------------------------

    def predecessors(self, wid: WriteId) -> List[WriteId]:
        """Immediate ``->co^0`` predecessors of the write ``wid``."""
        return list(self.preds[wid])

    def successors(self, wid: WriteId) -> List[WriteId]:
        return list(self.succs[wid])

    def roots(self) -> List[WriteId]:
        """Writes with empty causal past (in-degree zero)."""
        return sorted(wid for wid, p in self.preds.items() if not p)

    def chains_between(self, w1: WriteId, w2: WriteId) -> Iterator[List[WriteId]]:
        """All immediate-step chains ``w1 ->co^0 ... ->co^0 w2``.

        The paper writes ``w1 ->co^k w2`` for a chain of ``k+1`` edges;
        this enumerates every such decomposition.
        """
        co = self.history.causal_order
        target = self.history.write_by_id(w2)
        path = [w1]

        def extend(wid: WriteId) -> Iterator[List[WriteId]]:
            for nxt in self.succs[wid]:
                path.append(nxt)
                if nxt == w2:
                    yield list(path)
                elif co.precedes(self.history.write_by_id(nxt), target):
                    yield from extend(nxt)
                path.pop()

        yield from extend(w1)

    def longest_chain_length(self) -> int:
        """Length (edge count) of the longest chain in the graph."""
        co = self.history.causal_order
        depth: Dict[WriteId, int] = {}
        # a write has strictly more ancestors than any of its ancestors
        for w in sorted(self.history.writes(),
                        key=lambda w: co.anc[co.bit(w)].bit_count()):
            depth[w.wid] = max((depth[p] + 1 for p in self.preds[w.wid]),
                               default=0)
        return max(depth.values(), default=0)

    def validate(self) -> None:
        """Check the structural properties stated in Section 4.3.

        - every edge is a ``->co`` step (so the graph is a DAG: the
          constructor rejects cyclic ``->co``);
        - every write has at most ``n`` immediate predecessors, and at
          most one per process ("each write operation can have at most
          n immediate predecessors, one for each process").
        """
        co = self.history.causal_order
        n = self.history.n_processes
        for node, preds in self.preds.items():
            for p in preds:
                if not co.precedes(self.history.write_by_id(p),
                                   self.history.write_by_id(node)):
                    raise AssertionError(f"edge {p} -> {node} is not in ->co")
            if len(preds) > n:
                raise AssertionError(
                    f"{node} has {len(preds)} immediate predecessors > n={n}"
                )
            per_process: Dict[int, WriteId] = {}
            for p in preds:
                if p.process in per_process:
                    raise AssertionError(
                        f"{node} has two immediate predecessors from "
                        f"process {p.process}: {per_process[p.process]} and {p}"
                    )
                per_process[p.process] = p

    def edge_list(self) -> List[Tuple[WriteId, WriteId]]:
        return sorted((p, wid) for wid, preds in self.preds.items()
                      for p in preds)

    def to_ascii(self) -> str:
        """Render the DAG as indented ASCII, roots first (Figure 7 style)."""
        lines: List[str] = []
        seen: set = set()

        def render(wid: WriteId, depth: int) -> None:
            w = self.history.write_by_id(wid)
            marker = "*" if wid in seen else ""
            lines.append("  " * depth + f"{w}{marker}")
            if wid in seen:
                return
            seen.add(wid)
            for succ in self.successors(wid):
                render(succ, depth + 1)

        for root in self.roots():
            render(root, 0)
        return "\n".join(lines)
