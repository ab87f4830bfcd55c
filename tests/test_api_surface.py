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
        from repro.durability import recover_node

        classes = {
            name for name, obj in vars(scheduler).items()
            if inspect.isclass(obj) and obj.__module__ == scheduler.__name__
            and issubclass(obj, scheduler.DeliveryScheduler)
            and obj is not scheduler.DeliveryScheduler
        }
        assert classes == {"CountingScheduler", "RescanScheduler"}
        for fn in (Node.__init__, SimCluster.__init__, recover_node):
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

    def test_applied_is_the_protocols_progress(self):
        """No second progress vector: ``applied`` is the protocol's own
        list, so no node subclass reports applies to the server."""
        import inspect
        from pathlib import Path

        from repro.serve import server
        from repro.serve.shard import ClusterSpec
        from repro.sim.node import Node

        for protocol in server.SERVABLE_PROTOCOLS:
            replica = server.ReplicaServer(
                ClusterSpec.local_uds(Path("unused"), protocol, 1, 3), 0, 1)
            assert type(replica.node) is Node
            assert replica.applied is replica.node.protocol.progress
            assert not hasattr(replica, "_count_remote_apply")
        assert not hasattr(server, "_ServedNode")
        assert "on_apply_msg" not in inspect.getsource(server)
        assert "on_apply_msg" not in inspect.signature(Node).parameters

    def test_stats_is_the_one_served_counter(self):
        """No metrics registry beside ``stats``: the server takes no
        ``obs`` handle and keeps no instrument of its own."""
        import inspect

        from repro.serve import server

        params = inspect.signature(server.ReplicaServer).parameters
        assert "obs" not in params
        source = inspect.getsource(server)
        for name in ("_obs", "_m_writes", "_h_recovery", "obs_on"):
            assert name not in source, name


class TestOneLedger:
    """The quiescence ledger lives on ``Node`` and is read by
    ``settled``; no host keeps a copy or feeds it by callback, and the
    interactive store is the asyncio host, not a second one."""

    def test_node_takes_no_ledger_callbacks(self):
        import inspect

        from repro.sim.node import Node

        params = inspect.signature(Node).parameters
        assert "on_write" not in params
        assert "on_remote_apply" not in params

    def test_no_host_counts_for_the_nodes(self):
        from repro.mck import ControlledCluster, workload_by_name
        from repro.runtime import AsyncCluster, CausalKV
        from repro.serve.server import ReplicaServer
        from repro.sim import SimCluster

        for host in (SimCluster, AsyncCluster, CausalKV, ControlledCluster,
                     ReplicaServer):
            for name in ("_count_write", "_count_apply",
                         "_count_remote_apply"):
                assert not hasattr(host, name), (host.__name__, name)
        cluster = ControlledCluster("optp", workload_by_name("pair"))
        for name in ("_remote_applies_by", "_crashed", "_writes_issued",
                     "_deferred_local_applies", "_remote_applies"):
            assert not hasattr(cluster, name), name

    def test_causalkv_is_the_asyncio_host(self):
        from repro.runtime import AsyncCluster, CausalKV

        assert issubclass(CausalKV, AsyncCluster)
        for name in ("_dispatch", "_ship", "_timer_loop", "_now",
                     "_quiescent"):
            assert name not in vars(CausalKV), name

    def test_one_recovery_routine(self):
        """The server and the checker recover through the same two
        functions; the checker's twin of the durable log is gone."""
        import inspect

        from repro import durability
        from repro.durability import recovery
        from repro.mck import cluster
        from repro.serve import server

        for name in ("DurableLog", "_zero_clock", "_sink_dispatch"):
            assert not hasattr(recovery, name), name
            assert not hasattr(durability, name), name
        for module in (server, cluster):
            source = inspect.getsource(module)
            assert "recover_node(" in source, module.__name__
            assert "snapshot_document(" in source, module.__name__
            assert "rebuild_node" not in source, module.__name__

    def test_the_asyncio_host_is_the_simulator_on_the_wall_clock(self):
        """``AsyncCluster`` is a ``SimCluster`` with a wall-clock engine:
        no dispatch, shipping, program or timer code of its own, and no
        constructor parameter on ``SimCluster`` to choose the engine."""
        import inspect

        from repro.runtime import AsyncCluster, CausalKV
        from repro.sim import SimCluster

        assert issubclass(AsyncCluster, SimCluster)
        for host in (AsyncCluster, CausalKV):
            for name in ("_spawn", "_ship", "_run_program", "_timer_loop",
                         "_in_flight_updates", "_tasks"):
                assert not hasattr(host, name), (host.__name__, name)
            for name in ("_dispatch", "_deliver", "_advance", "_run_step",
                         "_poll", "_schedule_timer", "_quiescent"):
                assert name not in vars(host), (host.__name__, name)
        assert "engine" not in inspect.signature(SimCluster).parameters


class TestOneSearch:
    """``_Search.dfs`` is the model checker's only exhaustive search:
    the sharded check cuts it at a horizon and witness minimisation
    bounds its depth, so neither keeps a copy of it."""

    def test_no_second_or_third_dfs(self):
        import inspect

        from repro.mck import explorer, shard

        assert not hasattr(explorer, "_bounded_dfs")
        assert not hasattr(shard._Expansion, "expand")
        assert "dfs" not in vars(shard._Expansion)
        for module in (explorer, shard):
            assert "def expand(" not in inspect.getsource(module)


class TestOneRecording:
    """A recorded run is its WAL: a served replica keeps no event log of
    its own, and ``serve.merge`` replays journals instead of reading a
    second on-disk format."""

    def test_merge_reads_no_node_log_format(self):
        from repro.serve import merge

        for name in ("NodeLog", "dump_node_log", "load_node_log",
                     "LOG_VERSION"):
            assert not hasattr(merge, name), name
        assert merge.__all__ == ["MergeError", "merge_node_logs",
                                 "replay_wal"]

    def test_a_recorded_replica_is_durable_on_a_null_trace(self, tmp_path):
        from repro.serve.server import ReplicaServer
        from repro.serve.shard import ClusterSpec
        from repro.sim.trace import NullTrace

        spec = ClusterSpec.local_uds(tmp_path, "optp", 1, 3)
        replica = ReplicaServer(spec, 0, 0, record=True, rundir=tmp_path)
        try:
            assert type(replica.node.trace) is NullTrace
            assert not hasattr(replica, "trace")
            assert replica.wal_dir == tmp_path / "wal"
        finally:
            replica._wal.close()
        with pytest.raises(ValueError, match="wal_dir or rundir"):
            ReplicaServer(spec, 0, 0, record=True)


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
