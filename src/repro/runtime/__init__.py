"""Real-concurrency runtime: processes as asyncio tasks.

The discrete-event simulator (:mod:`repro.sim`) gives deterministic,
replayable runs; this package runs the *same* protocol and node objects
under genuine asynchrony -- per-message delivery tasks with real
``asyncio.sleep`` latencies -- as an end-to-end sanity check that
nothing in the protocols depends on the simulator's determinism.

There is one asyncio host, :class:`AsyncCluster`: it runs programs
(:func:`run_programs_async`) or is driven by hand through its
interactive face, :class:`CausalKV`.
"""

from repro.runtime.cluster import (
    AsyncCluster,
    ClusterQuiesceError,
    run_programs_async,
)
from repro.runtime.interactive import CausalKV

__all__ = ["AsyncCluster", "CausalKV", "ClusterQuiesceError",
           "run_programs_async"]
