"""Vector-clock values and relations (paper, Section 4.3).

The paper defines, for two vectors ``V`` and ``V'`` of equal length:

- ``V <= V'``  iff every component of ``V`` is ``<=`` the corresponding
  component of ``V'``;
- ``V <  V'``  iff ``V <= V'`` and some component is strictly smaller;
- ``V || V'``  iff neither ``V < V'`` nor ``V' < V``.

Theorem 1 shows the system ``(Write_co, <)`` *characterizes* the causal
order ``->co`` on writes: ``w ->co w'  <=>  w.Write_co < w'.Write_co``,
and Theorem 2 the same for concurrency.

Two representations are provided:

- **plain-list helpers** (:func:`vc_le`, :func:`vc_lt`, :func:`vc_join`,
  :func:`vc_concurrent`) used on the protocol hot path.  Protocol
  vectors have length ``n`` (process count, typically < 64);
- an immutable :class:`VectorClock` wrapper with operator sugar for
  tests, examples and documentation.

The trace analyzers compare thousands of write vectors at once as
bitsets (:func:`repro.analysis.checker.check_characterization`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

# ---------------------------------------------------------------------------
# Plain-list hot-path helpers
# ---------------------------------------------------------------------------


def vc_le(a: Sequence[int], b: Sequence[int]) -> bool:
    """``a <= b``: componentwise less-or-equal.

    Vectors must have equal length (checked, since a silent zip-
    truncation would corrupt protocol decisions).
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b))


def vc_lt(a: Sequence[int], b: Sequence[int]) -> bool:
    """``a < b``: ``a <= b`` and ``a != b`` (strict domination)."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    strict = False
    for x, y in zip(a, b):
        if x > y:
            return False
        if x < y:
            strict = True
    return strict


def vc_concurrent(a: Sequence[int], b: Sequence[int]) -> bool:
    """``a || b``: neither strictly dominates the other."""
    return not vc_lt(a, b) and not vc_lt(b, a)


def vc_join(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Componentwise maximum (the lattice join used at read time,
    line 1 of the read procedure in Figure 5)."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return [x if x >= y else y for x, y in zip(a, b)]


def vc_join_inplace(a: List[int], b: Sequence[int]) -> None:
    """In-place componentwise maximum of ``a`` with ``b``."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    for i, y in enumerate(b):
        if y > a[i]:
            a[i] = y


# ---------------------------------------------------------------------------
# Immutable wrapper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VectorClock:
    """An immutable vector-clock value with the paper's relations.

    ``<`` / ``<=`` implement the (partial!) domination order of Section
    4.3 -- note that ``not (a < b)`` does **not** imply ``b <= a``; use
    :meth:`concurrent` to test incomparability.
    """

    components: Tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.components):
            raise ValueError(f"negative component in {self.components}")

    @classmethod
    def zero(cls, n: int) -> "VectorClock":
        """The all-zeros clock of dimension ``n``."""
        if n < 1:
            raise ValueError("dimension must be >= 1")
        return cls(components=(0,) * n)

    @classmethod
    def of(cls, *components: int) -> "VectorClock":
        return cls(components=tuple(components))

    @property
    def n(self) -> int:
        return len(self.components)

    def __getitem__(self, i: int) -> int:
        return self.components[i]

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    # -- relations --------------------------------------------------------

    def __le__(self, other: "VectorClock") -> bool:
        return vc_le(self.components, other.components)

    def __lt__(self, other: "VectorClock") -> bool:
        return vc_lt(self.components, other.components)

    def __ge__(self, other: "VectorClock") -> bool:
        return vc_le(other.components, self.components)

    def __gt__(self, other: "VectorClock") -> bool:
        return vc_lt(other.components, self.components)

    def concurrent(self, other: "VectorClock") -> bool:
        """``self || other`` (incomparable under ``<``)."""
        return vc_concurrent(self.components, other.components)

    # -- operations ---------------------------------------------------------

    def join(self, other: "VectorClock") -> "VectorClock":
        return VectorClock(tuple(vc_join(self.components, other.components)))

    def increment(self, i: int) -> "VectorClock":
        """Return a copy with component ``i`` incremented by one."""
        if not 0 <= i < len(self.components):
            raise IndexError(i)
        comps = list(self.components)
        comps[i] += 1
        return VectorClock(tuple(comps))

    def __str__(self) -> str:
        return "[" + ",".join(str(c) for c in self.components) + "]"
