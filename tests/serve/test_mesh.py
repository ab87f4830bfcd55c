"""Two holes in the served store, proved on a fake three-replica mesh.

Both are strict ``xfail``s: each asserts what a causally consistent,
convergent KV store would answer, and the fix of its ROADMAP item must
remove the mark.  The tests beside them show that the mesh itself
delivers everything once no link is stalled.
"""

import pytest

from repro.core.base import BOTTOM
from repro.serve.codec import OP_READ, OP_WRITE
from repro.serve.server import SERVABLE_PROTOCOLS

from .fakes import Mesh

FRESH = (0, 0, 0)


def read(mesh, replica, *keys, session=FRESH):
    reply = mesh.request(replica, session,
                         [(OP_READ, key, None) for key in keys])
    assert reply is not None, f"read at p{replica} parked"
    return [value for _, value in reply[1]]


def hop(mesh):
    """A session writes ``x`` at p0, carries its vector to p1 and writes
    ``y``; a fresh session at p2 then reads ``y`` and ``x``."""
    session, _ = mesh.request(0, FRESH, [(OP_WRITE, "x", "x1")])
    mesh.request(1, session, [(OP_WRITE, "y", "y1")])
    return read(mesh, 2, "y", "x")


class TestClientHop:
    def test_without_a_stall_the_reader_sees_both_writes(self):
        assert hop(Mesh()) == ["y1", "x1"]

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 2(a): a write through a second replica does not "
        "carry what its session saw at the first, so with the p0-p2 "
        "link stalled p2 shows y1 and BOTTOM for x"))
    def test_a_reader_that_sees_the_hopped_write_sees_its_cause(self):
        mesh = Mesh()
        mesh.stalled.add((0, 2))
        assert hop(mesh) == ["y1", "x1"]

    def test_the_stalled_write_arrives_once_the_link_is_pumped(self):
        mesh = Mesh()
        mesh.stalled.add((0, 2))
        mesh.request(0, FRESH, [(OP_WRITE, "x", "x1")])
        assert read(mesh, 2, "x") == [BOTTOM]
        mesh.stalled.clear()
        mesh.settle()
        assert read(mesh, 2, "x") == ["x1"]


@pytest.mark.parametrize("protocol", sorted(SERVABLE_PROTOCOLS))
class TestConcurrentWritesToOneKey:
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 14(a): replicas install every applied write, so "
        "two concurrent writes to x leave them reading b, a, b"))
    def test_replicas_agree_at_quiescence(self, protocol):
        mesh = Mesh(protocol)
        mesh.stalled.update(mesh.links)
        mesh.request(0, FRESH, [(OP_WRITE, "x", "a")])
        mesh.request(1, FRESH, [(OP_WRITE, "x", "b")])
        mesh.stalled.clear()
        mesh.settle()
        finals = [read(mesh, p, "x")[0] for p in range(3)]
        assert finals.count(finals[0]) == 3, finals
