"""Unit tests for the receiver-side writing-semantics protocol."""

import pytest

from repro.model.operations import WriteId
from repro.core.base import BROADCAST, Disposition
from repro.protocols.ws_receiver import WSReceiverProtocol


def the_message(outcome):
    assert len(outcome.outgoing) == 1
    return outcome.outgoing[0].message


def make(n=3):
    return [WSReceiverProtocol(i, n) for i in range(n)]


class TestDegeneratesToOptP:
    """With no overwrite opportunities the behaviour equals OptP's."""

    def test_in_order_apply(self):
        p0, p1, _ = make()
        m1 = the_message(p0.write("x", 1))
        m2 = the_message(p0.write("y", 2))
        assert p1.classify(m1) is Disposition.APPLY
        p1.apply_update(m1)
        assert p1.classify(m2) is Disposition.APPLY
        p1.apply_update(m2)
        assert p1.store_get("x") == (1, WriteId(0, 1))
        assert p1.store_get("y") == (2, WriteId(0, 2))
        assert p1.skipped == 0 and p1.discarded == 0

    def test_different_variable_gap_buffers(self):
        """Missing predecessor on a *different* variable: no overwrite,
        must buffer exactly like OptP."""
        p0, p1, _ = make()
        m1 = the_message(p0.write("x", 1))
        m2 = the_message(p0.write("y", 2))
        assert p1.classify(m2) is Disposition.BUFFER
        p1.apply_update(m1)
        assert p1.classify(m2) is Disposition.APPLY

    def test_concurrent_writes_apply_freely(self):
        p0, p1, p2 = make()
        m_a = the_message(p0.write("x", "a"))
        m_b = the_message(p1.write("y", "b"))
        assert p2.classify(m_b) is Disposition.APPLY
        p2.apply_update(m_b)
        assert p2.classify(m_a) is Disposition.APPLY


class TestOverwriting:
    def test_same_variable_chain_skips(self):
        """w(x)1 ->po w(x)2: receiving only the second applies it and
        skips the first (the canonical overwrite)."""
        p0, p1, _ = make()
        m1 = the_message(p0.write("x", 1))
        m2 = the_message(p0.write("x", 2))
        assert p1.classify(m2) is Disposition.APPLY  # overwrite applies
        p1.apply_update(m2)
        assert p1.skipped == 1
        assert p1.store_get("x") == (2, WriteId(0, 2))
        # late arrival of m1 is discarded
        assert p1.classify(m1) is Disposition.DISCARD
        p1.discard_update(m1)
        assert p1.discarded == 1
        assert p1.stats() == {"skipped": 1, "discarded": 1}
        assert p1.missing_applies() == 1

    def test_long_same_variable_chain(self):
        p0, p1, _ = make()
        msgs = [the_message(p0.write("x", k)) for k in range(5)]
        assert p1.classify(msgs[-1]) is Disposition.APPLY
        p1.apply_update(msgs[-1])
        assert p1.skipped == 4
        assert p1.store_get("x")[0] == 4
        for m in msgs[:-1]:
            assert p1.classify(m) is Disposition.DISCARD

    def test_interposed_different_variable_blocks_overwrite(self):
        """w(x)1 ->po w(y)9 ->po w(x)2: receiving only w(x)2 must BUFFER
        (the Raynal-Ahamad precondition: no interposed write on another
        variable)."""
        p0, p1, _ = make()
        m1 = the_message(p0.write("x", 1))
        my = the_message(p0.write("y", 9))
        m2 = the_message(p0.write("x", 2))
        assert p1.classify(m2) is Disposition.BUFFER
        # after y arrives it still buffers (x1 missing, and x1 IS
        # overwritable... but y itself is not applicable before x1):
        assert p1.classify(my) is Disposition.BUFFER
        # x1 arrives: everything drains in order
        assert p1.classify(m1) is Disposition.APPLY
        p1.apply_update(m1)
        assert p1.classify(my) is Disposition.APPLY
        p1.apply_update(my)
        assert p1.classify(m2) is Disposition.APPLY
        p1.apply_update(m2)
        assert p1.skipped == 0

    def test_cross_process_same_variable_overwrite(self):
        """p0 writes x; p1 reads it and writes x again.  A receiver
        getting only p1's write may skip p0's."""
        p0, p1, p2 = make()
        m1 = the_message(p0.write("x", "old"))
        p1.apply_update(m1)
        p1.read("x")
        m2 = the_message(p1.write("x", "new"))
        assert p2.classify(m2) is Disposition.APPLY
        p2.apply_update(m2)
        assert p2.skipped == 1
        assert p2.store_get("x") == ("new", WriteId(1, 1))
        assert p2.classify(m1) is Disposition.DISCARD

    def test_cross_process_different_variable_no_overwrite(self):
        p0, p1, p2 = make()
        m1 = the_message(p0.write("x", "vx"))
        p1.apply_update(m1)
        p1.read("x")
        m2 = the_message(p1.write("y", "vy"))
        assert p2.classify(m2) is Disposition.BUFFER
        p2.apply_update(m1)
        assert p2.classify(m2) is Disposition.APPLY


class TestVarPastBookkeeping:
    def test_var_past_consistent_with_write_co(self):
        """Invariant: per-variable past counts partition Write_co."""
        p0, p1, _ = make()
        m1 = the_message(p0.write("x", 1))
        m2 = the_message(p0.write("y", 2))
        p1.apply_update(m1)
        p1.apply_update(m2)
        p1.read("x")
        p1.read("y")
        p1.write("x", 3)
        total = [0] * 3
        for vec in p1.var_past.values():
            for t, v in enumerate(vec):
                total[t] += v
        assert total == p1.write_co

    def test_read_merges_var_past(self):
        p0, p1, p2 = make()
        m1 = the_message(p0.write("x", 1))
        m2 = the_message(p0.write("x", 2))
        p1.apply_update(m1)
        p1.apply_update(m2)
        p1.read("x")
        assert p1.var_past["x"] == [2, 0, 0]
        # p1's next write on a different variable carries VP with x-info
        m3 = the_message(p1.write("y", 3))
        vp = dict(m3.payload["var_past"])
        assert vp["x"] == (2, 0, 0)
        assert vp["y"] == (0, 1, 0)

    def test_skip_then_later_chain_stays_consistent(self):
        """After a skip, subsequent messages from the same sender apply
        in order without double-count."""
        p0, p1, _ = make()
        m1 = the_message(p0.write("x", 1))
        m2 = the_message(p0.write("x", 2))
        m3 = the_message(p0.write("y", 3))
        p1.apply_update(m2)  # skips m1
        assert p1.apply_vec[0] == 2
        assert p1.classify(m3) is Disposition.APPLY
        p1.apply_update(m3)
        assert p1.apply_vec[0] == 3
        assert p1.classify(m1) is Disposition.DISCARD
