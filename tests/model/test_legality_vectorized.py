"""Differential proof: the bitset legality checker is ``==``-identical
to the per-read reference :func:`is_legal_read` -- verdicts, violation
order, reasons, and interposed witnesses -- on legal and illegal
histories."""

import inspect

import pytest
from hypothesis import HealthCheck, given, settings

from repro.model.history import History, HistoryBuilder, LocalHistory, example_h1
from repro.model.legality import check_causal_consistency, is_legal_read
from repro.model.operations import Read, Write, WriteId
from repro.sim import SeededLatency, run_schedule
from repro.workloads import WorkloadConfig, random_schedule

from tests.strategies import histories


def reference(history):
    """Definition 2 by :func:`is_legal_read`, one read at a time."""
    return [v for v in map(lambda r: is_legal_read(history, r),
                           history.reads()) if v is not None]


def assert_identical(history):
    rep = check_causal_consistency(history)
    ref = reference(history)
    assert rep.violations == ref
    assert rep.consistent == (not ref)
    assert not rep.cyclic
    return rep


# -- generated histories -----------------------------------------------------

@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(histories(max_processes=5, max_ops=40, max_vars=4))
def test_generated_histories_identical(history):
    assert_identical(history)


# -- legal histories ---------------------------------------------------------

def test_h1_identical():
    assert assert_identical(example_h1()).consistent


@pytest.mark.parametrize("protocol", ["optp", "anbkh"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_protocol_runs_identical(protocol, seed):
    cfg = WorkloadConfig(n_processes=4, ops_per_process=30, n_variables=4,
                         write_fraction=0.5, seed=seed)
    r = run_schedule(protocol, 4, random_schedule(cfg),
                     latency=SeededLatency(seed))
    rep = assert_identical(r.history)
    assert rep.consistent


def test_history_with_no_reads():
    b = HistoryBuilder(2)
    b.write(0, "x", "a")
    b.write(1, "y", "b")
    assert assert_identical(b.build()).consistent


def test_read_of_unwritten_variable():
    b = HistoryBuilder(2)
    b.write(0, "x", "a")
    b.read(1, "z", None)   # no write to z anywhere: trivially legal
    assert assert_identical(b.build()).consistent


# -- handcrafted violations --------------------------------------------------

def test_bottom_after_causally_seen_write():
    b = HistoryBuilder(2)
    w = b.write(0, "x", "v")
    b.read(1, "x", w)
    b.read(1, "x", None)   # BOTTOM after causally seeing w: illegal
    rep = assert_identical(b.build())
    assert not rep.consistent
    assert "BOTTOM" in rep.violations[0].reason
    assert rep.violations[0].interposed.wid == w


def test_interposed_write():
    b = HistoryBuilder(2)
    w_old = b.write(0, "x", "old")
    w_new = b.write(0, "x", "new")
    b.read(1, "x", w_new)
    b.read(1, "x", w_old)  # w_old ->co w_new ->co this read: illegal
    rep = assert_identical(b.build())
    assert not rep.consistent
    assert len(rep.violations) == 1
    assert rep.violations[0].interposed.wid == w_new


def test_witness_is_the_first_write_in_history_order():
    """Two interposed writes from different processes: the witness is
    the one of the lower process, as the per-read scan finds it."""
    b = HistoryBuilder(3)
    w0 = b.write(0, "x", "base")
    b.read(1, "x", w0)
    w1 = b.write(1, "x", "p1")
    b.read(2, "x", w0)
    w2 = b.write(2, "x", "p2")
    b.read(0, "x", w2)
    b.read(0, "x", w1)
    b.read(0, "x", w0)   # both w1 and w2 sit between w0 and this read
    rep = assert_identical(b.build())
    assert [v.interposed.wid for v in rep.violations] == [w1]


def test_multiple_violations_same_order():
    """Two independent illegal reads: both are reported in history-read
    order with the reference's witnesses."""
    b = HistoryBuilder(3)
    w_old = b.write(0, "x", "old")
    w_new = b.write(0, "x", "new")
    b.read(1, "x", w_new)
    b.read(1, "x", w_old)      # violation 1 (interposed)
    wy = b.write(2, "y", "v")
    b.read(2, "y", wy)
    b.read(2, "y", None)       # violation 2 (BOTTOM)
    rep = assert_identical(b.build())
    assert len(rep.violations) == 2
    assert rep.violations[0].read.variable == "x"
    assert rep.violations[1].read.variable == "y"


def test_cyclic_history_short_circuits():
    """Cyclic ->co is rejected before any read is checked."""
    w = Write(process=0, index=1, variable="x", value="v", wid=WriteId(0, 1))
    r = Read(process=0, index=0, variable="x", value="v",
             read_from=WriteId(0, 1))
    h = History([LocalHistory(0, (r, w))])
    rep = check_causal_consistency(h)
    assert not rep.consistent
    assert rep.cyclic
    assert rep.violations == []


def test_unknown_mode_raises():
    """One engine: there is no ``mode=`` to choose between paths."""
    assert list(inspect.signature(check_causal_consistency).parameters) \
        == ["history"]
    with pytest.raises(TypeError):
        check_causal_consistency(example_h1(), mode="scalar")
