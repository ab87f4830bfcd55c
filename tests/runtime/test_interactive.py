"""Tests for the interactive CausalKV API."""

import asyncio

import pytest

from repro.model.operations import BOTTOM, WriteId
from repro.runtime import ClusterQuiesceError
from repro.runtime.interactive import CausalKV
from repro.sim.latency import ConstantLatency, UniformLatency
from tests.runtime.test_async_cluster import ApplyFails, BlackHole

FAST = dict(time_scale=0.002, quiesce_timeout=20.0)


def run(coro):
    return asyncio.run(coro)


class TestBasicUsage:
    def test_put_get_roundtrip(self):
        async def scenario():
            async with CausalKV.open(3, **FAST) as kv:
                wid = await kv.put(0, "greeting", "hello")
                assert wid == WriteId(0, 1)
                assert await kv.get(0, "greeting") == "hello"
                got = await kv.wait_visible(1, "greeting")
                assert got == "hello"
            return kv

        kv = run(scenario())
        report = kv.report()
        assert report.ok, report.summary()

    def test_unseen_key_is_bottom(self):
        async def scenario():
            async with CausalKV.open(2, **FAST) as kv:
                assert (await kv.get(1, "nothing")) is BOTTOM

        run(scenario())

    def test_causal_chain_across_replicas(self):
        async def scenario():
            async with CausalKV.open(3, latency=UniformLatency(0.2, 1.5, seed=3),
                                     **FAST) as kv:
                await kv.put(0, "post", "P")
                await kv.wait_visible(1, "post")
                await kv.put(1, "reply", "R")
                # whoever sees the reply must be able to see the post
                await kv.wait_visible(2, "reply")
                assert await kv.get(2, "post") == "P"
            return kv

        kv = run(scenario())
        assert kv.report().ok

    def test_wait_visible_times_out(self):
        async def scenario():
            async with CausalKV.open(2, **FAST) as kv:
                with pytest.raises(TimeoutError):
                    await kv.wait_visible(1, "never", timeout=0.05)

        run(scenario())


class TestSessionResult:
    def test_result_and_trace_available_after_close(self):
        async def scenario():
            async with CausalKV.open(2, **FAST) as kv:
                await kv.put(0, "k", 1)
                await kv.wait_visible(1, "k")
            return kv

        kv = run(scenario())
        assert kv.result.writes_issued == 1
        assert kv.result.remote_applies == 1
        # polling reads are part of the observed history
        assert len(list(kv.result.history.reads())) >= 1

    def test_report_before_close_rejected(self):
        async def scenario():
            async with CausalKV.open(2, **FAST) as kv:
                with pytest.raises(RuntimeError, match="close"):
                    kv.report()

        run(scenario())

    def test_trace_serializes(self):
        from repro.sim.serialize import trace_from_jsonl, trace_to_jsonl

        async def scenario():
            async with CausalKV.open(2, **FAST) as kv:
                await kv.put(0, "k", "v")
                await kv.wait_visible(1, "k")
            return kv

        kv = run(scenario())
        loaded = trace_from_jsonl(trace_to_jsonl(kv.trace))
        assert len(loaded) == len(kv.trace)


class TestGuards:
    def test_replica_range(self):
        async def scenario():
            async with CausalKV.open(2, **FAST) as kv:
                with pytest.raises(ValueError):
                    await kv.put(5, "k", 1)

        run(scenario())

    def test_ops_after_close_rejected(self):
        async def scenario():
            kv = CausalKV.open(2, **FAST)
            await kv.start()
            await kv.close()
            with pytest.raises(RuntimeError, match="not running"):
                await kv.put(0, "k", 1)

        run(scenario())

    def test_double_start_rejected(self):
        async def scenario():
            kv = CausalKV.open(2, **FAST)
            await kv.start()
            with pytest.raises(RuntimeError, match="already started"):
                await kv.start()
            await kv.close()

        run(scenario())

    def test_n_replicas_validated(self):
        with pytest.raises(ValueError):
            CausalKV.open(0)


class TestOtherProtocols:
    @pytest.mark.parametrize("proto", ["anbkh", "gossip-optp", "sequencer"])
    def test_protocol_choice(self, proto):
        async def scenario():
            async with CausalKV.open(3, protocol=proto, **FAST) as kv:
                await kv.put(0, "k", "v")
                assert await kv.wait_visible(2, "k") == "v"
            return kv

        kv = run(scenario())
        assert kv.report().ok, kv.report().summary()


class TestShutdown:
    """``CausalKV`` is the asyncio host driven by hand, so it shuts down
    like one: cancellations awaited, quiesce failures explained."""

    def test_no_pending_tasks_after_close(self):
        async def go():
            before = {t for t in asyncio.all_tasks() if not t.done()}
            async with CausalKV.open(3, protocol="gossip-optp", **FAST) as kv:
                await kv.put(0, "k", "v")
                await kv.wait_visible(2, "k")
            leaked = [
                t for t in asyncio.all_tasks()
                if not t.done() and t not in before
            ]
            assert leaked == []

        run(go())

    def test_wedged_close_raises_and_tears_down(self):
        async def go():
            before = {t for t in asyncio.all_tasks() if not t.done()}
            kv = CausalKV.open(2, latency=BlackHole(1.0),
                               time_scale=0.002, quiesce_timeout=0.2)
            await kv.start()
            await kv.put(0, "x", 1)
            with pytest.raises(ClusterQuiesceError) as exc_info:
                await kv.close()
            err = exc_info.value
            assert isinstance(err, TimeoutError)
            assert err.in_flight_updates == 1
            assert err.expected_applies == 1 and err.observed_applies == 0
            assert [e["node"] for e in err.per_node] == [0, 1]
            leaked = [
                t for t in asyncio.all_tasks()
                if not t.done() and t not in before
            ]
            assert leaked == []
            with pytest.raises(RuntimeError, match="not running"):
                await kv.put(0, "x", 2)

        run(go())

    def test_body_error_tears_down_without_waiting(self):
        async def go():
            kv = CausalKV.open(2, latency=BlackHole(1.0),
                               time_scale=0.002, quiesce_timeout=30.0)
            loop = asyncio.get_running_loop()
            started = loop.time()
            with pytest.raises(KeyError):
                async with kv:
                    await kv.put(0, "x", 1)
                    raise KeyError("boom")
            assert loop.time() - started < 5.0
            with pytest.raises(RuntimeError, match="not running"):
                await kv.put(0, "x", 2)

        run(go())

    def test_close_raises_the_protocols_own_error(self):
        """A delivery that raises ends the session: ``close`` raises
        the protocol's exception at once, not a quiesce timeout."""
        async def go():
            before = {t for t in asyncio.all_tasks() if not t.done()}
            loop = asyncio.get_running_loop()
            started = loop.time()
            kv = CausalKV(ApplyFails, 2, time_scale=0.002,
                          quiesce_timeout=30.0)
            await kv.start()
            await kv.put(0, "x", 1)
            with pytest.raises(ZeroDivisionError, match="p1 cannot apply"):
                await kv.close()
            assert loop.time() - started < 5.0
            leaked = [t for t in asyncio.all_tasks()
                      if not t.done() and t not in before]
            assert leaked == []
            with pytest.raises(RuntimeError, match="not running"):
                await kv.put(0, "x", 2)

        run(go())

    def test_time_scale_validated(self):
        with pytest.raises(ValueError, match="time_scale"):
            CausalKV.open(2, time_scale=0)
