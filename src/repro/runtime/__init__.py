"""Real-concurrency runtime: the simulator on the wall clock.

The discrete-event simulator (:mod:`repro.sim`) gives deterministic,
replayable runs; this package runs the *same* cluster with the running
asyncio loop as its engine, so latencies are real (scaled) waits and
interleavings come from a live loop: an end-to-end check that nothing
in the protocols depends on the simulator's determinism.

:class:`AsyncCluster` is that :class:`~repro.sim.cluster.SimCluster`: it
runs programs (:func:`run_programs_async`) or is driven by hand through
its interactive face, :class:`CausalKV`.
"""

from repro.runtime.cluster import (
    AsyncCluster,
    ClusterQuiesceError,
    run_programs_async,
)
from repro.runtime.interactive import CausalKV

__all__ = ["AsyncCluster", "CausalKV", "ClusterQuiesceError",
           "run_programs_async"]
