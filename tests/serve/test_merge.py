"""Causally gated k-way merge tests.

The merge turns per-replica traces (what :func:`replay_wal` rebuilds
from each WAL) back into one global trace the checkers accept; the
interesting cases are clock skew (receipt stamped before its send) and
genuinely inconsistent traces.
"""

import pytest

from repro.model.operations import WriteId
from repro.serve.merge import MergeError, merge_node_logs
from repro.sim.trace import EventKind, Trace


def node_trace(n, events):
    """Build a per-node trace from (time, process, kind, wid, var, val,
    read_from[, registers_apply])."""
    trace = Trace(n)
    for time, process, kind, wid, var, val, read_from, *ra in events:
        trace.record(time, process, kind, wid=wid, variable=var,
                     value=val, read_from=read_from,
                     registers_apply=ra[0] if ra else None)
    return trace


W = EventKind.WRITE
S = EventKind.SEND
R = EventKind.RECEIPT
A = EventKind.APPLY
RET = EventKind.RETURN


class TestMerge:
    def test_real_time_ordered_logs_merge_in_time_order(self):
        w1 = WriteId(0, 1)
        t0 = node_trace(2, [
            (1.0, 0, W, w1, "x", "a", None),
            (1.0, 0, S, w1, "x", "a", None),
        ])
        t1 = node_trace(2, [
            (2.0, 1, R, w1, "x", "a", None),
            (2.0, 1, A, w1, "x", "a", None),
            (3.0, 1, RET, None, "x", "a", w1),
        ])
        merged = merge_node_logs([t0, t1])
        assert [ev.kind for ev in merged.events] == [W, S, R, A, RET]
        assert merged.apply_event(1, w1) is not None
        # the WRITE doubled as its issuer's local apply
        assert merged.apply_event(0, w1) is merged.events[0]

    def test_clock_skew_receipt_gated_behind_write(self):
        """p1 stamps the receipt *before* p0's write (skewed clock);
        the merge must still emit the WRITE first."""
        w1 = WriteId(0, 1)
        t0 = node_trace(2, [
            (5.0, 0, W, w1, "x", "a", None),
            (5.0, 0, S, w1, "x", "a", None),
        ])
        t1 = node_trace(2, [
            (1.0, 1, R, w1, "x", "a", None),
            (1.1, 1, A, w1, "x", "a", None),
        ])
        merged = merge_node_logs([t0, t1])
        kinds = [(ev.process, ev.kind) for ev in merged.events]
        assert kinds.index((0, W)) < kinds.index((1, R))
        assert kinds.index((1, R)) < kinds.index((1, A))

    def test_own_writes_never_gated(self):
        w1 = WriteId(1, 1)
        t1 = node_trace(2, [
            (1.0, 1, W, w1, "x", "a", None),
            (1.0, 1, S, w1, "x", "a", None),
        ])
        t0 = node_trace(2, [
            (0.5, 0, R, w1, "x", "a", None),
            (0.6, 0, A, w1, "x", "a", None),
        ])
        merged = merge_node_logs([t0, t1])
        assert len(merged.events) == 4

    def test_missing_write_raises(self):
        """A receipt whose write appears in no log = corrupt capture."""
        ghost = WriteId(0, 9)
        t0 = node_trace(2, [])
        t1 = node_trace(2, [(1.0, 1, R, ghost, "x", "a", None)])
        with pytest.raises(MergeError, match="stuck heads"):
            merge_node_logs([t0, t1])

    def test_deferred_local_apply_is_kept(self):
        """A WRITE that was not its issuer's apply (a protocol that
        applies its own write later) stays out of the apply index."""
        w1 = WriteId(0, 1)
        t0 = node_trace(1, [
            (1.0, 0, W, w1, "x", "a", None, False),
            (2.0, 0, A, w1, "x", "a", None),
        ])
        merged = merge_node_logs([t0])
        assert merged.apply_event(0, w1) is merged.events[1]

    def test_traces_disagreeing_on_n_rejected(self):
        with pytest.raises(MergeError, match="n_processes"):
            merge_node_logs([Trace(2), Trace(3)])
