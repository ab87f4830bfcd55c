"""The serving layer's single sanctioned wall-clock site.

Everything under ``repro.serve`` is a *determinism zone* for reprolint
(RL001): replayable components must never read ambient time, because
the recorded trace -- not the clock -- is the source of truth for the
conformance replay (``docs/serving.md``).  Live servers and load
generators, however, legitimately need a monotonic clock for
timestamps and latency measurement.  Those reads are funnelled through
this module so the suppression is auditable in exactly one place:
every other ``repro.serve`` module takes a ``clock`` callable and can
be driven by a fake clock in tests.
"""

from __future__ import annotations

import time

__all__ = ["monotonic"]


def monotonic() -> float:
    """Seconds on the process-shared monotonic clock.

    On Linux this reads ``CLOCK_MONOTONIC``, whose epoch is
    machine-wide: timestamps taken by different replica processes on
    one host are mutually comparable, which is what lets
    :mod:`repro.serve.merge` order per-replica traces by time.  (The
    gated merge does not *trust* that comparability -- causal order
    wins over timestamps -- but it makes the common case exact.)
    """
    return time.monotonic()  # reprolint: disable=RL001
