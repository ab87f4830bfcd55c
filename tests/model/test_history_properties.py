"""Property tests over *arbitrary* (including inconsistent) histories.

Protocol runs only ever produce well-behaved histories; these tests
drive the theory layer -- causal order, legality, causality graph,
serialization -- with adversarial inputs generated directly by
hypothesis: random interleavings of writes and reads where each read
picks an arbitrary same-variable write (or BOTTOM) to read from.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.model.causality_graph import WriteCausalityGraph
from repro.model.legality import check_causal_consistency
from repro.model.serialization import is_causal_ahamad

from tests.strategies import histories

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestCausalOrderInvariants:
    @SETTINGS
    @given(histories())
    def test_acyclic(self, h):
        # reads only reference already-created writes -> no cycles
        assert not h.causal_order.has_cycle

    @SETTINGS
    @given(histories())
    def test_transitivity(self, h):
        co = h.causal_order
        ops = list(h.operations())
        for a in ops:
            for b in ops:
                if a.key == b.key or not co.precedes(a, b):
                    continue
                for c in ops:
                    if c.key != b.key and co.precedes(b, c):
                        assert co.precedes(a, c)

    @SETTINGS
    @given(histories())
    def test_antisymmetry_and_concurrency_partition(self, h):
        co = h.causal_order
        ops = list(h.operations())
        for a in ops:
            for b in ops:
                if a.key == b.key:
                    continue
                rel = (co.precedes(a, b), co.precedes(b, a), co.concurrent(a, b))
                assert sum(rel) == 1, (a, b, rel)

    @SETTINGS
    @given(histories())
    def test_process_order_embedded(self, h):
        co = h.causal_order
        for lh in h.locals:
            for i, a in enumerate(lh.operations):
                for b in lh.operations[i + 1:]:
                    assert co.precedes(a, b)

    @SETTINGS
    @given(histories(max_ops=30))
    def test_closure_is_reachability_over_base_edges(self, h):
        """``desc[i]`` is what a search over po + ro edges reaches from
        ``ops[i]``, and ``anc`` is its transpose."""
        co = h.causal_order
        succ = {op.key: [] for op in co.ops}
        for a, b in h.base_edges():
            succ[a.key].append(b.key)
        for i, op in enumerate(co.ops):
            reached, frontier = set(), list(succ[op.key])
            while frontier:
                key = frontier.pop()
                if key not in reached:
                    reached.add(key)
                    frontier.extend(succ[key])
            assert co.desc[i] == sum(1 << co.index[k] for k in reached)
            assert co.anc[i] == sum(1 << j for j in range(len(co.ops))
                                    if co.desc[j] >> i & 1)

    @SETTINGS
    @given(histories())
    def test_causal_past_future_duality(self, h):
        co = h.causal_order
        ops = list(h.operations())
        for a in ops:
            past = {o.key for o in co.causal_past(a)}
            for b in ops:
                if b.key == a.key:
                    continue
                assert (b.key in past) == co.precedes(b, a)


class TestCausalityGraphInvariants:
    @SETTINGS
    @given(histories())
    def test_structural_validation(self, h):
        g = WriteCausalityGraph.from_history(h)
        g.validate()

    @SETTINGS
    @given(histories())
    def test_reduction_reaches_exactly_co(self, h):
        """Reachability in the reduced graph == ->co on writes."""
        g = WriteCausalityGraph.from_history(h)
        co = h.causal_order
        writes = list(h.writes())
        for w1 in writes:
            reachable, frontier = set(), [w1.wid]
            while frontier:
                for succ in g.successors(frontier.pop()):
                    if succ not in reachable:
                        reachable.add(succ)
                        frontier.append(succ)
            for w2 in writes:
                if w1.wid == w2.wid:
                    continue
                assert (w2.wid in reachable) == co.precedes(w1, w2)


class TestDefinitionRelations:
    @SETTINGS
    @given(histories(max_processes=3, max_ops=8))
    def test_serializable_implies_legal(self, h):
        """Ahamad-causal (serializations exist) implies Definition 1-2
        legality -- the strict-implication direction of the documented
        definition gap."""
        if is_causal_ahamad(h, max_steps=50_000):
            assert check_causal_consistency(h).consistent

    @SETTINGS
    @given(histories(max_processes=3, max_ops=8))
    def test_illegal_implies_not_serializable(self, h):
        rep = check_causal_consistency(h)
        if not rep.consistent:
            assert not is_causal_ahamad(h, max_steps=50_000)
