"""Unit tests for the ANBKH baseline, including the false-causality
behaviour of Section 3.6 / Figure 3."""

import pytest

from repro.core.optp import OptPProtocol
from repro.model.operations import BOTTOM, WriteId
from repro.protocols.anbkh import ANBKHProtocol, vt_of
from repro.core.base import BROADCAST, Disposition


def the_message(outcome):
    assert len(outcome.outgoing) == 1
    assert outcome.outgoing[0].dest == BROADCAST
    return outcome.outgoing[0].message


def make_three(cls=ANBKHProtocol):
    return [cls(i, 3) for i in range(3)]


class TestBasics:
    def test_write_stamps_fidge_mattern(self):
        p0 = ANBKHProtocol(0, 3)
        m1 = the_message(p0.write("x", 1))
        assert vt_of(m1) == (1, 0, 0)
        m2 = the_message(p0.write("y", 2))
        assert vt_of(m2) == (2, 0, 0)

    def test_local_apply(self):
        p0 = ANBKHProtocol(0, 3)
        p0.write("x", 1)
        assert p0.store_get("x") == (1, WriteId(0, 1))
        assert p0.vc == [1, 0, 0]

    def test_read_is_local_and_does_not_touch_vc(self):
        p0, p1, _ = make_three()
        m = the_message(p0.write("x", 1))
        p1.apply_update(m)
        vc_before = list(p1.vc)
        out = p1.read("x")
        assert out.value == 1 and out.read_from == WriteId(0, 1)
        assert p1.vc == vc_before

    def test_read_unwritten(self):
        p = ANBKHProtocol(0, 2)
        out = p.read("z")
        assert out.value is BOTTOM and out.read_from is None

    def test_same_sender_fifo_enforced(self):
        p0, p1, _ = make_three()
        m1 = the_message(p0.write("x", 1))
        m2 = the_message(p0.write("x", 2))
        assert p1.classify(m2) is Disposition.BUFFER
        assert p1.classify(m1) is Disposition.APPLY
        p1.apply_update(m1)
        assert p1.classify(m2) is Disposition.APPLY

    def test_debug_state(self):
        p = ANBKHProtocol(1, 2)
        p.write("x", 1)
        assert p.debug_state() == {"vc": (0, 1)}


class TestCausalDelivery:
    def test_waits_for_causal_predecessor(self):
        p0, p1, p2 = make_three()
        m_a = the_message(p0.write("x1", "a"))
        p1.apply_update(m_a)
        m_b = the_message(p1.write("x2", "b"))
        assert p2.classify(m_b) is Disposition.BUFFER
        p2.apply_update(m_a)
        assert p2.classify(m_b) is Disposition.APPLY


class TestFalseCausality:
    """The Figure 3 scenario: ANBKH delays what OptP would not."""

    def _figure3_messages(self, cls):
        """p0 writes a then c; p1 applies BOTH (but only reads a), then
        writes b.  Returns (m_a, m_c, m_b) stamped by protocol ``cls``."""
        p0, p1, _ = make_three(cls)
        m_a = the_message(p0.write("x1", "a"))
        m_c = the_message(p0.write("x1", "c"))
        p1.apply_update(m_a)
        p1.read("x1")          # reads a (read-from edge)
        p1.apply_update(m_c)   # c applied but never read
        m_b = the_message(p1.write("x2", "b"))
        return m_a, m_c, m_b

    def test_anbkh_delays_b_until_c(self):
        m_a, m_c, m_b = self._figure3_messages(ANBKHProtocol)
        # VT(b) = [2,1,0]: it counts c although b ||co c.
        assert vt_of(m_b) == (2, 1, 0)
        p2 = ANBKHProtocol(2, 3)
        p2.apply_update(m_a)
        # b arrives before c: ANBKH buffers (false causality!)
        assert p2.classify(m_b) is Disposition.BUFFER
        p2.apply_update(m_c)
        assert p2.classify(m_b) is Disposition.APPLY

    def test_optp_does_not_delay_b(self):
        """Identical run under OptP: no delay, because Write_co tracks
        ->co (b's vector ignores the unread c)."""
        from repro.core.optp import write_co_of

        m_a, m_c, m_b = self._figure3_messages(OptPProtocol)
        assert write_co_of(m_b) == (1, 1, 0)  # no trace of c
        p2 = OptPProtocol(2, 3)
        p2.apply_update(m_a)
        assert p2.classify(m_b) is Disposition.APPLY

    def test_enabling_superset(self):
        """X_ANBKH(apply(b)) strictly contains X_co-safe(apply(b)):
        operationally, ANBKH requires {a, c} applied, OptP only {a}."""
        m_a, m_c, m_b = self._figure3_messages(ANBKHProtocol)
        p2 = ANBKHProtocol(2, 3)
        # with neither a nor c: buffer (both protocols agree)
        assert p2.classify(m_b) is Disposition.BUFFER
        p2.apply_update(m_a)
        assert p2.classify(m_b) is Disposition.BUFFER  # ANBKH still waits
        p2.apply_update(m_c)
        assert p2.classify(m_b) is Disposition.APPLY


class TestNeverDiscards:
    def test_discard_not_supported(self):
        p = ANBKHProtocol(0, 2)
        m = the_message(p.write("x", 1))
        with pytest.raises(NotImplementedError):
            p.discard_update(m)

    def test_no_control_messages(self):
        from repro.core.base import ControlMessage

        p = ANBKHProtocol(0, 2)
        with pytest.raises(NotImplementedError):
            p.on_control(ControlMessage(sender=1, kind="x"))

    def test_bootstrap_empty(self):
        assert ANBKHProtocol(0, 2).bootstrap() == ()
