"""API-surface tests: defaults, dunders and small helpers that the
integration paths exercise only implicitly."""

import pytest

from repro.core.base import (
    BROADCAST,
    ControlMessage,
    Outgoing,
    Protocol,
    UpdateMessage,
)
from repro.core.optp import OptPProtocol
from repro.model.operations import OpKind, WriteId
from repro.sim.latency import ConstantLatency, ScriptedLatency
from repro.workloads.ops import Program, WaitReadStep, WriteStep


class TestBaseProtocolDefaults:
    def test_on_timer_requires_interval(self):
        with pytest.raises(NotImplementedError, match="timer_interval"):
            OptPProtocol(0, 2).on_timer()

    def test_debug_state_default_empty(self):
        class Minimal(OptPProtocol):
            def debug_state(self):
                return Protocol.debug_state(self)

        assert Minimal(0, 2).debug_state() == {}

    def test_record_apply_without_recorder_is_noop(self):
        p = OptPProtocol(0, 2)
        p.record_apply(WriteId(0, 1), "x", 1)  # must not raise


class TestReadinessSurface:
    """One readiness declaration, one delivery path (DESIGN.md,
    "Buffering strategy")."""

    GONE = ("apply_event", "flat_deps", "flat_dep_key", "flat_progress",
            "enable_flat_state", "supports_flat_state")

    def test_protocol_exposes_requirement_and_nothing_else(self):
        for name in ("classify", "requirement", "missing_deps"):
            assert callable(getattr(Protocol, name))
        for name in self.GONE:
            assert not hasattr(Protocol, name), name
        assert "flat_deps" not in UpdateMessage.__dataclass_fields__

    def test_missing_deps_is_derived_by_no_protocol(self):
        from repro.protocols import PROTOCOLS, PartialReplicationProtocol

        for cls in [*PROTOCOLS.values(), PartialReplicationProtocol]:
            assert cls.missing_deps is Protocol.missing_deps, cls

    def test_two_schedulers_and_no_selector(self):
        import inspect

        import repro.sim.scheduler as scheduler
        from repro.sim import Node, SimCluster
        from repro.durability import rebuild_node

        classes = {
            name for name, obj in vars(scheduler).items()
            if inspect.isclass(obj) and obj.__module__ == scheduler.__name__
            and issubclass(obj, scheduler.DeliveryScheduler)
            and obj is not scheduler.DeliveryScheduler
        }
        assert classes == {"CountingScheduler", "RescanScheduler"}
        for fn in (Node.__init__, SimCluster.__init__, rebuild_node):
            params = inspect.signature(fn).parameters
            assert not {"scheduler", "state_backend"} & set(params), fn
        assert not hasattr(Node, "_receive_update_flat")
        assert not hasattr(Node, "_apply_flat")


class TestServingSurface:
    """One framing path per connection, on both ends (docs/serving.md,
    "Wire format"): no stream hand-over, no per-connection task, a
    session wait is a parked request, not an ``await``, and both ends of
    a peer link are one :class:`_Inbound`, with no stream dialer."""

    GONE = ("_hand_over", "_serve_stream", "_conn_tasks", "_await_session",
            "_serve_client", "_serve_admin", "_waiters", "_wake_waiters",
            "_peer_supervisor")

    def test_no_stream_hand_over_and_no_session_await(self):
        import asyncio
        import inspect
        from pathlib import Path

        from repro.serve import client, server
        from repro.serve.shard import ClusterSpec

        replica = server.ReplicaServer(
            ClusterSpec.local_uds(Path("unused"), "optp", 1, 3), 0, 0)
        for name in self.GONE:
            assert not hasattr(replica, name), name
            assert not hasattr(server._Inbound, name), name
        conn = client._GroupConn(0, 0)
        for name in ("_read_loop", "reader_task", "reader", "writer"):
            assert not hasattr(conn, name), name
        assert issubclass(server._Inbound, asyncio.BufferedProtocol)
        assert issubclass(client._GroupConn, asyncio.BufferedProtocol)
        for name in ("_drain", "draining", "writer"):
            assert not hasattr(server._PeerLink, name), name
        assert not hasattr(server, "_DRAIN_HIGH_WATER")
        source = inspect.getsource(server)
        assert "StreamReaderProtocol" not in source
        assert source.count("read_frame(") == 0
        # bench/tracing.py wraps ``server.read_frame`` by name
        assert hasattr(server, "read_frame")


class TestImportCost:
    """Every replica process imports the serving path; the checker,
    numpy and networkx load only where they are used."""

    HEAVY = ("numpy", "networkx", "repro.analysis", "repro.mck")

    def test_the_serving_path_imports_nothing_heavy(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        code = ("import sys, repro.serve.worker, repro.serve.harness; "
                f"print([m for m in {self.HEAVY!r} if m in sys.modules])")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_package_names_still_resolve(self):
        from repro import check_run, run_schedule
        from repro.model import History, WriteId
        from repro.serve import ReplicaServer, ServedCluster

        assert callable(run_schedule) and callable(check_run)
        assert History.__module__ == "repro.model.history"
        assert WriteId.__module__ == "repro.model.operations"
        assert ReplicaServer.__module__ == "repro.serve.server"
        assert ServedCluster.__module__ == "repro.serve.harness"


class TestMessageTypes:
    def test_update_str(self):
        m = UpdateMessage(sender=0, wid=WriteId(0, 1), variable="x", value=7)
        assert "x=7" in str(m)

    def test_control_str(self):
        c = ControlMessage(sender=2, kind="token")
        assert str(c) == "ctrl(token from p2)"

    def test_outgoing_default_broadcast(self):
        m = UpdateMessage(sender=0, wid=WriteId(0, 1), variable="x", value=1)
        assert Outgoing(m).dest == BROADCAST


class TestOpsHelpers:
    def test_program_of(self):
        p = Program.of(WriteStep("x", 1), WriteStep("y", 2))
        assert len(p) == 2
        assert [s.variable for s in p] == ["x", "y"]

    def test_wait_read_matches_exact(self):
        s = WaitReadStep("x", expect="v")
        assert s.matches("v") and not s.matches("w")

    def test_wait_read_matches_accept_set(self):
        s = WaitReadStep("x", expect="a", accept=("a", "c"))
        assert s.matches("a") and s.matches("c") and not s.matches("b")

    def test_opkind_str(self):
        assert str(OpKind.READ) == "read"
        assert str(OpKind.WRITE) == "write"


class TestLatencyForkDefaults:
    def test_stateless_models_fork_to_self(self):
        m = ConstantLatency(1.0)
        assert m.fork() is m
        s = ScriptedLatency({}, default=1.0)
        assert s.fork() is s


class TestRenderHelpers:
    def test_sequence_with_sends(self):
        from repro.paperfigs.render import sequence_at
        from repro.sim import run_schedule
        from repro.workloads import Schedule, ScheduledOp, WriteOp

        sched = Schedule.of([ScheduledOp(0.0, 0, WriteOp("x", 1))])
        r = run_schedule("optp", 2, sched)
        with_sends = sequence_at(r.trace, r.history, 0, skip_sends=False)
        without = sequence_at(r.trace, r.history, 0)
        assert "send_1" in with_sends
        assert "send_1" not in without

    def test_discard_label(self):
        from repro.paperfigs.render import paper_event_label
        from repro.model.history import example_h1
        from repro.sim.trace import EventKind, Trace

        t = Trace(3)
        ev = t.record(0.0, 1, EventKind.DISCARD, wid=WriteId(0, 1),
                      variable="x1")
        label = paper_event_label(example_h1(), ev)
        assert "DISCARDED" in label


class TestDunderAllConsistency:
    """Every ``__all__`` in the package names things that exist, and the
    reprolint public API is actually exported."""

    MODULES = None  # populated lazily; a list of (name, module) pairs

    @classmethod
    def _modules(cls):
        if cls.MODULES is None:
            import importlib
            import pkgutil

            import repro

            pairs = []
            prefix = repro.__name__ + "."
            for info in pkgutil.walk_packages(repro.__path__, prefix):
                mod = importlib.import_module(info.name)
                pairs.append((info.name, mod))
            cls.MODULES = pairs
        return cls.MODULES

    def test_every_dunder_all_name_exists(self):
        missing = []
        for name, mod in self._modules():
            for export in getattr(mod, "__all__", ()):
                if not hasattr(mod, export):
                    missing.append(f"{name}.{export}")
        assert missing == []

    def test_dunder_all_entries_unique_and_sorted_sets(self):
        for name, mod in self._modules():
            exports = list(getattr(mod, "__all__", ()))
            assert len(exports) == len(set(exports)), (
                f"{name}.__all__ has duplicates"
            )

    def test_lint_public_api_exported(self):
        import repro.lint as lint

        for export in ("Finding", "LintReport", "Rule", "all_rules",
                       "lint_paths", "lint_file", "register",
                       "rule_catalog"):
            assert export in lint.__all__
            assert hasattr(lint, export)

    def test_lint_rules_all_registered(self):
        from repro.lint import rule_catalog
        import repro.lint.rules as rules

        catalog_classes = {type(r).__name__ for r in rule_catalog()}
        assert catalog_classes == set(rules.__all__)


class TestRunResultHelpers:
    def test_delays_per_process_and_summary(self):
        from repro.sim import run_schedule
        from repro.workloads import fig1_run2

        scen = fig1_run2()
        r = run_schedule("optp", 3, scen.schedule, latency=scen.latency)
        per = r.delays_per_process()
        assert per == [0, 0, 1]
        assert sum(per) == r.write_delays
        assert "delays=1" in r.summary()

    def test_history_cached(self):
        from repro.sim import run_schedule
        from repro.workloads import h1_schedule

        r = run_schedule("optp", 3, h1_schedule())
        assert r.history is r.history
