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
  vectors have length ``n`` (process count, typically < 64) where plain
  Python lists beat numpy's per-call dispatch overhead -- measured in
  ``benchmarks/test_bench_micro.py``;
- an immutable :class:`VectorClock` wrapper with operator sugar for
  tests, examples and documentation;
- **numpy batch comparators** (:func:`batch_precedes_matrix`,
  :func:`batch_concurrent_matrix`) used by the trace analyzers, which
  compare *thousands* of write vectors pairwise at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    import numpy as np

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


# ---------------------------------------------------------------------------
# numpy batch comparators (trace-analysis scale)
# ---------------------------------------------------------------------------


def _as_matrix(vectors: Iterable[Sequence[int]]) -> np.ndarray:
    import numpy as np

    mat = np.asarray(list(vectors), dtype=np.int64)
    if mat.ndim == 1:
        # zero vectors -> shape (0,); normalize to (0, 0)
        mat = mat.reshape(0, 0)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-D batch of vectors, got shape {mat.shape}")
    return mat


#: Row-block size picked automatically by :func:`batch_precedes_matrix`
#: for batches large enough that the full (k, k, n) broadcast would
#: allocate gigabytes (k > _AUTO_CHUNK_THRESHOLD).
_AUTO_CHUNK_THRESHOLD = 8192
_DEFAULT_CHUNK = 1024


def batch_precedes_matrix(
    vectors: Iterable[Sequence[int]],
    *,
    chunk: Optional[int] = None,
) -> np.ndarray:
    """Pairwise strict-domination matrix for a batch of k vectors.

    Returns a boolean ``(k, k)`` array ``P`` with ``P[i, j]`` true iff
    ``vectors[i] < vectors[j]``.  By Theorem 1 this *is* the ``->co``
    adjacency (closed under transitivity) of the corresponding writes.

    Vectorized: the broadcast comparison materializes ``(rows, k, n)``
    intermediates.  With ``chunk=None`` and ``k <= 8192`` all rows go
    in one shot (O(k^2 * n) scratch memory); larger batches -- traces
    with tens of thousands of writes -- are processed in row blocks of
    ``chunk`` (default 1024) so scratch memory stays O(chunk * k * n)
    while the result is bit-identical
    (``tests/core/test_vectorclock.py`` pins the equality).  Pass an
    explicit ``chunk`` to force a block size either way.
    """
    import numpy as np

    mat = _as_matrix(vectors)
    k = mat.shape[0]
    if k == 0:
        return np.zeros((0, 0), dtype=bool)
    if chunk is None and k > _AUTO_CHUNK_THRESHOLD:
        chunk = _DEFAULT_CHUNK
    if chunk is not None and chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    if chunk is None or chunk >= k:
        le = np.all(mat[:, None, :] <= mat[None, :, :], axis=2)
        eq = np.all(mat[:, None, :] == mat[None, :, :], axis=2)
        return le & ~eq
    out = np.empty((k, k), dtype=bool)
    for start in range(0, k, chunk):
        rows = mat[start:start + chunk]
        le = np.all(rows[:, None, :] <= mat[None, :, :], axis=2)
        eq = np.all(rows[:, None, :] == mat[None, :, :], axis=2)
        out[start:start + chunk] = le & ~eq
    return out


def batch_concurrent_matrix(vectors: Iterable[Sequence[int]]) -> np.ndarray:
    """Pairwise concurrency matrix: ``C[i, j]`` iff ``v_i || v_j``.

    The diagonal is False by convention (an operation is not concurrent
    with itself), matching :meth:`CausalOrder.concurrent`.
    """
    import numpy as np

    p = batch_precedes_matrix(vectors)
    k = p.shape[0]
    c = ~p & ~p.T
    if k:
        np.fill_diagonal(c, False)
    return c
