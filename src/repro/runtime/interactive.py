"""An embeddable, interactively driven causal KV store.

The simulator replays *pre-declared* workloads, and so does
:meth:`AsyncCluster.run_programs`; :class:`CausalKV` is the same
asyncio host driven by hand instead: create a cluster of in-process
replicas, ``put``/``get`` against any replica from application code,
and close it down with a verified trace.  This is the "adopt it in an
afternoon" API::

    async with CausalKV.open(3, protocol="optp") as kv:
        await kv.put(0, "greeting", "hello")
        await kv.wait_visible(1, "greeting")   # replica 1 holds a value
        assert await kv.get(1, "greeting") == "hello"
    report = kv.report()          # full checker verdict over the session

Every operation is recorded in a normal :class:`~repro.sim.trace.Trace`,
so a session can be audited (or archived via
:mod:`repro.sim.serialize`) exactly like a benchmark run.
"""

from __future__ import annotations

import asyncio
from typing import Any, Hashable, Optional

from repro.analysis.checker import CheckReport, check_run
from repro.model.operations import BOTTOM, WriteId
from repro.runtime.cluster import AsyncCluster, ProtocolFactory
from repro.sim.latency import LatencyModel
from repro.sim.result import RunResult


class CausalKV(AsyncCluster):
    """A live cluster of causally consistent in-process replicas."""

    def __init__(
        self,
        protocol: ProtocolFactory,
        n_replicas: int,
        *,
        latency: Optional[LatencyModel] = None,
        time_scale: float = 0.002,
        quiesce_timeout: float = 30.0,
    ):
        super().__init__(protocol, n_replicas, latency=latency,
                         time_scale=time_scale,
                         quiesce_timeout=quiesce_timeout)

    @property
    def n_replicas(self) -> int:
        return self.n_processes

    @classmethod
    def open(cls, n_replicas: int, *, protocol: ProtocolFactory = "optp",
             **kwargs) -> "CausalKV":
        """Construct a cluster ready for ``async with``."""
        return cls(protocol, n_replicas, **kwargs)

    async def __aenter__(self) -> "CausalKV":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            await self.close()
        else:
            self._stop()

    # -- client API -----------------------------------------------------------

    async def put(self, replica: int, key: Hashable, value: Any) -> WriteId:
        """Write ``key`` at ``replica`` (wait-free; propagation is
        asynchronous)."""
        self._check_live(replica)
        wid = self.nodes[replica].do_write(key, value)
        await asyncio.sleep(0)  # let deliveries interleave
        return wid

    async def get(self, replica: int, key: Hashable) -> Any:
        """Read ``key`` at ``replica`` (wait-free; returns BOTTOM if the
        replica has not seen any write yet)."""
        self._check_live(replica)
        value = self.nodes[replica].do_read(key)
        await asyncio.sleep(0)
        return value

    async def wait_visible(
        self, replica: int, key: Hashable, *, timeout: float = 10.0
    ) -> Any:
        """Block until ``key`` holds a non-BOTTOM value at ``replica``;
        returns it.  Each poll is a real read of the session history.

        That is *some* write's value, not necessarily the last one: the
        replicas agree on causally ordered writes, but after concurrent
        writes to one key they may hold different values for good."""
        self._check_live(replica)
        loop = self.engine.loop
        deadline = loop.time() + timeout
        while True:
            value = self.nodes[replica].do_read(key)
            if not isinstance(value, type(BOTTOM)):
                return value
            if loop.time() > deadline:
                raise TimeoutError(
                    f"{key!r} never became visible at replica {replica}"
                )
            await asyncio.sleep(self.time_scale)

    def report(self) -> CheckReport:
        """Full checker verdict over the closed session."""
        return check_run(self.result)

    @property
    def result(self) -> RunResult:
        if self._result is None:
            raise RuntimeError("close() the cluster first")
        return self._result

    def _check_live(self, replica: int) -> None:
        if not self._running:
            raise RuntimeError("cluster is not running")
        if not 0 <= replica < self.n_replicas:
            raise ValueError(f"replica {replica} out of range")
