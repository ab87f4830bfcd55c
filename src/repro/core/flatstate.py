"""Evaluation of wide requirement rows.

A protocol declares a message's wait predicate as a *requirement*
(:meth:`repro.core.base.Protocol.requirement`): one row of required
progress per component plus the exact-match pivot, evaluated against
the protocol's live ``progress`` list by
:meth:`repro.core.base.Protocol.missing_deps`.  Up to
:data:`DENSE_THRESHOLD` components that evaluation is a plain Python
loop over the row the message already carries -- no numpy, no
per-message copy.  Wider rows are summarized **at most once per
message** (:func:`wide_row`, cached on the message object so every
simulated receiver of a broadcast shares the result):

- a sparse view of the components that ask for anything at all -- a
  wide vector is mostly zeros, and a handful of pairs is still a Python
  loop;
- only when that view is itself wide, the row as a read-only ``int64``
  array, compared against a :class:`ProgressMirror` that is never
  refreshed wholesale: progress components only grow, so a stale
  mirror can only *over*-report unsatisfied components, and each
  candidate is rechecked against the live list (and healed) before it
  is reported.

See docs/performance.md ("Flat-array protocol state").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

if TYPE_CHECKING:
    import numpy as np

__all__ = ["DENSE_THRESHOLD", "ProgressMirror", "wide_row"]

#: Up to this many components (of a row, then of its sparse view) are
#: evaluated with a plain Python loop; beyond it the dense numpy
#: comparison takes over.  At protocol vector sizes (n < ~64) list
#: indexing beats numpy's per-call dispatch -- same measurement that
#: keeps ``core/vectorclock.py`` on plain lists for single comparisons.
DENSE_THRESHOLD = 16


def wide_row(msg, row: Sequence[int]):
    """``(row, items, dense)`` for a row wider than the threshold,
    cached on ``msg``.

    ``items`` are the ``(component, required)`` pairs with
    ``required > 0`` -- progress never goes below zero off the pivot,
    so the rest ask for nothing; ``dense`` is the row as a read-only
    int64 array, or None while ``items`` is short enough to loop over.

    The cache is keyed by the identity of ``row``: a protocol whose
    requirement row *is* the tuple its payload carries (OptP, ANBKH)
    gets one summary per message, shared by every receiver the
    simulator hands that message object to; a receiver-specific row
    (partial replication) is a fresh object each time and simply
    misses.
    """
    cached = msg.row_cache
    if cached is not None and cached[0] is row:
        return cached
    items = [(c, required) for c, required in enumerate(row)
             if required > 0]
    dense = None
    if len(items) > DENSE_THRESHOLD:
        import numpy as np

        dense = np.asarray(row, dtype=np.int64)
        dense.setflags(write=False)
    cached = (row, items, dense)
    # a frozen dataclass: the cache is derived data, not message content
    object.__setattr__(msg, "row_cache", cached)
    return cached


class ProgressMirror:
    """Lower-bound int64 mirror of a protocol's live progress list."""

    __slots__ = ("_progress", "_vec")

    def __init__(self, progress: List[int]):
        import numpy as np

        self._progress = progress
        self._vec = np.array(progress, dtype=np.int64)

    def unsatisfied(self, row: Sequence[int], dense: np.ndarray,
                    pivot: int) -> List[Tuple[int, int]]:
        """The non-pivot ``(component, required)`` pairs of ``row`` the
        live progress has not reached, in component order."""
        progress = self._progress
        vec = self._vec
        missing: List[Tuple[int, int]] = []
        for c in (dense > vec).nonzero()[0].tolist():
            have = progress[c]
            required = row[c]
            if have >= required:
                vec[c] = have          # the mirror was stale: heal it
            elif c != pivot:
                missing.append((c, required))
        return missing
