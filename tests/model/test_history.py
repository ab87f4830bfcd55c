"""Unit tests for histories and the ->co causal order."""

import pytest

from repro.model.history import (
    CausalOrder,
    History,
    HistoryBuilder,
    LocalHistory,
    example_h1,
)
from repro.model.operations import BOTTOM, Read, Write, WriteId


@pytest.fixture
def h1():
    return example_h1()


def writes_of(history):
    """Writes keyed by value, for readable assertions."""
    return {w.value: w for w in history.writes()}


class TestHistoryBuilder:
    def test_write_returns_consecutive_wids(self):
        b = HistoryBuilder(2)
        w1 = b.write(0, "x", "u")
        w2 = b.write(0, "y", "v")
        w3 = b.write(1, "x", "w")
        assert (w1.seq, w2.seq, w3.seq) == (1, 2, 1)

    def test_generated_values_are_unique(self):
        b = HistoryBuilder(1)
        a = b.write(0, "x")
        c = b.write(0, "x")
        h = b.build()
        vals = [w.value for w in h.writes()]
        assert len(set(vals)) == 2

    def test_read_from_none_reads_bottom(self):
        b = HistoryBuilder(1)
        r = b.read(0, "x", None)
        assert r.value is BOTTOM

    def test_read_variable_must_match_writer(self):
        b = HistoryBuilder(1)
        w = b.write(0, "x", "u")
        with pytest.raises(ValueError):
            b.read(0, "y", w)

    def test_read_from_unknown_write_rejected(self):
        b = HistoryBuilder(1)
        with pytest.raises(ValueError):
            b.read(0, "x", WriteId(0, 7))

    def test_process_out_of_range(self):
        b = HistoryBuilder(2)
        with pytest.raises(ValueError):
            b.write(2, "x", 1)
        with pytest.raises(ValueError):
            b.read(-1, "x", None)

    def test_zero_processes_rejected(self):
        with pytest.raises(ValueError):
            HistoryBuilder(0)


class TestLocalHistoryValidation:
    def test_wrong_process_rejected(self):
        w = Write(process=1, index=0, variable="x", value=1, wid=WriteId(1, 1))
        lh = LocalHistory(process=0, operations=(w,))
        with pytest.raises(ValueError):
            lh.validate()

    def test_wrong_index_rejected(self):
        w = Write(process=0, index=5, variable="x", value=1, wid=WriteId(0, 1))
        lh = LocalHistory(process=0, operations=(w,))
        with pytest.raises(ValueError):
            lh.validate()

    def test_nonconsecutive_seq_rejected(self):
        w = Write(process=0, index=0, variable="x", value=1, wid=WriteId(0, 2))
        lh = LocalHistory(process=0, operations=(w,))
        with pytest.raises(ValueError):
            lh.validate()

    def test_writes_and_reads_views(self, h1):
        lh = h1.local(1)
        assert len(lh.writes) == 1
        assert len(lh.reads) == 1
        assert len(lh) == 2


class TestHistoryBasics:
    def test_h1_shape(self, h1):
        assert h1.n_processes == 3
        assert len(h1) == 6
        assert len(list(h1.writes())) == 4
        assert len(list(h1.reads())) == 2
        assert h1.variables() == {"x1", "x2"}

    def test_write_by_id(self, h1):
        w = h1.write_by_id(WriteId(0, 2))
        assert w.value == "c"
        assert h1.has_write(WriteId(2, 1))
        assert not h1.has_write(WriteId(2, 9))
        with pytest.raises(KeyError):
            h1.write_by_id(WriteId(2, 9))

    def test_duplicate_write_id_rejected(self):
        w1 = Write(process=0, index=0, variable="x", value=1, wid=WriteId(0, 1))
        w2 = Write(process=1, index=0, variable="x", value=2, wid=WriteId(1, 1))
        lh0 = LocalHistory(0, (w1,))
        lh1 = LocalHistory(1, (w2,))
        History([lh0, lh1])  # fine
        dup = Write(process=1, index=0, variable="x", value=3, wid=WriteId(1, 1))
        with pytest.raises(ValueError):
            History([LocalHistory(0, (w1,)), LocalHistory(1, (dup, )),
                     LocalHistory(2, (Write(process=2, index=0, variable="y",
                                            value=4, wid=WriteId(1, 1)),))],
                    validate=False)

    def test_missing_process_rejected(self):
        w = Write(process=1, index=0, variable="x", value=1, wid=WriteId(1, 1))
        with pytest.raises(ValueError):
            History([LocalHistory(1, (w,))])

    def test_str_rendering(self, h1):
        s = str(h1)
        assert "h0: w0(x1)'a'; w0(x1)'c'" in s
        assert "h2: r2(x2)'b'; w2(x2)'d'" in s


class TestCausalOrderOnH1:
    """The ->co facts the paper states for Example 1."""

    def test_paper_relations(self, h1):
        co = h1.causal_order
        ws = writes_of(h1)
        a, b, c, d = ws["a"], ws["b"], ws["c"], ws["d"]
        # w1(x1)a ->co w2(x2)b, w1(x1)a ->co w1(x1)c, w2(x2)b ->co w3(x2)d
        assert co.precedes(a, b)
        assert co.precedes(a, c)
        assert co.precedes(b, d)
        # transitivity: a ->co d
        assert co.precedes(a, d)
        # w1(x1)c ||co w2(x2)b and w1(x1)c ||co w3(x2)d
        assert co.concurrent(c, b)
        assert co.concurrent(c, d)

    def test_not_symmetric(self, h1):
        co = h1.causal_order
        ws = writes_of(h1)
        assert not co.precedes(ws["b"], ws["a"])
        assert not co.precedes(ws["d"], ws["a"])

    def test_concurrent_is_irreflexive(self, h1):
        co = h1.causal_order
        for op in h1.operations():
            assert not co.concurrent(op, op)

    def test_causal_past_of_d(self, h1):
        co = h1.causal_order
        ws = writes_of(h1)
        past = co.write_causal_past(ws["d"])
        assert {w.value for w in past} == {"a", "b"}

    def test_causal_past_includes_reads(self, h1):
        co = h1.causal_order
        ws = writes_of(h1)
        past = co.causal_past(ws["d"])
        # a, b, and the two reads r2(x1)a, r3(x2)b
        assert len(past) == 4

    def test_causal_future(self, h1):
        co = h1.causal_order
        ws = writes_of(h1)
        fut = co.causal_future(ws["a"])
        vals = {op.value for op in fut if isinstance(op, Write)}
        assert vals == {"b", "c", "d"}

    def test_no_cycle(self, h1):
        assert not h1.causal_order.has_cycle

    def test_read_from_edge_generated(self, h1):
        edges = list(h1.base_edges())
        ro = [(a, b) for a, b in edges if a.process != b.process]
        assert len(ro) == 2  # the two read-from edges


class TestCausalOrderCycles:
    def test_cyclic_history_detected(self):
        # p0: r0(x)v ; w0(y)u      p1: r1(y)u ; w1(x)v
        # Each reads the value the *other* writes later: ->co is cyclic.
        wx = Write(process=1, index=1, variable="x", value="v", wid=WriteId(1, 1))
        wy = Write(process=0, index=1, variable="y", value="u", wid=WriteId(0, 1))
        rx = Read(process=0, index=0, variable="x", value="v", read_from=WriteId(1, 1))
        ry = Read(process=1, index=0, variable="y", value="u", read_from=WriteId(0, 1))
        h = History([LocalHistory(0, (rx, wy)), LocalHistory(1, (ry, wx))])
        co = h.causal_order
        assert co.has_cycle

    def test_cycle_members_precede_each_other(self):
        wx = Write(process=1, index=1, variable="x", value="v", wid=WriteId(1, 1))
        wy = Write(process=0, index=1, variable="y", value="u", wid=WriteId(0, 1))
        rx = Read(process=0, index=0, variable="x", value="v", read_from=WriteId(1, 1))
        ry = Read(process=1, index=0, variable="y", value="u", read_from=WriteId(0, 1))
        h = History([LocalHistory(0, (rx, wy)), LocalHistory(1, (ry, wx))])
        co = h.causal_order
        assert co.precedes(wx, wy) and co.precedes(wy, wx)

    def test_cycle_members_precede_themselves_and_nothing_else_does(self):
        """A nontrivial SCC reaches itself; an op after the cycle is
        preceded by every member but does not precede itself."""
        wx = Write(process=1, index=1, variable="x", value="v", wid=WriteId(1, 1))
        wy = Write(process=0, index=1, variable="y", value="u", wid=WriteId(0, 1))
        wz = Write(process=0, index=2, variable="z", value="t", wid=WriteId(0, 2))
        rx = Read(process=0, index=0, variable="x", value="v", read_from=WriteId(1, 1))
        ry = Read(process=1, index=0, variable="y", value="u", read_from=WriteId(0, 1))
        h = History([LocalHistory(0, (rx, wy, wz)), LocalHistory(1, (ry, wx))])
        co = h.causal_order
        assert co.has_cycle
        for op in (rx, wy, ry, wx):
            assert co.precedes(op, op)
            assert co.precedes(op, wz)
        assert not co.precedes(wz, wz)
        assert not any(co.precedes(wz, op) for op in (rx, wy, ry, wx))
        assert {o.key for o in co.causal_past(wz)} == {
            op.key for op in (rx, wy, ry, wx)}
        assert wy.key not in {o.key for o in co.causal_past(wy)}


class TestCausalOrderEdgeCases:
    def test_single_process_total_order(self):
        b = HistoryBuilder(1)
        w1 = b.write(0, "x", 1)
        w2 = b.write(0, "x", 2)
        w3 = b.write(0, "y", 3)
        h = b.build()
        co = h.causal_order
        ops = list(h.operations())
        for i in range(3):
            for j in range(i + 1, 3):
                assert co.precedes(ops[i], ops[j])

    def test_fully_concurrent_writers(self):
        b = HistoryBuilder(3)
        for p in range(3):
            b.write(p, f"x{p}", p)
        h = b.build()
        co = h.causal_order
        ws = list(h.writes())
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert co.concurrent(ws[i], ws[j])

    def test_empty_history(self):
        h = HistoryBuilder(2).build()
        assert len(h) == 0
        assert not h.causal_order.has_cycle

    def test_bottom_read_has_no_ro_edge(self):
        b = HistoryBuilder(2)
        b.read(0, "x", None)
        b.write(1, "x", "v")
        h = b.build()
        assert len(list(h.base_edges())) == 0

    def test_causal_order_cached(self):
        h = example_h1()
        assert h.causal_order is h.causal_order


class TestCausalOrderChains:
    def test_long_chain_via_reads(self):
        """p0 writes, p1 reads then writes, p2 reads then writes, ..."""
        n = 6
        b = HistoryBuilder(n)
        prev = b.write(0, "x0", 0)
        for p in range(1, n):
            b.read(p, f"x{p-1}", prev)
            prev = b.write(p, f"x{p}", p)
        h = b.build()
        co = h.causal_order
        ws = list(h.writes())
        for i in range(n):
            for j in range(i + 1, n):
                assert co.precedes(ws[i], ws[j]), (i, j)
