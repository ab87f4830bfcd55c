"""Operations of the shared-memory model (paper, Section 2).

The paper considers a finite set of sequential processes
``p_1 .. p_n`` interacting through a shared memory of ``m`` locations
``x_1 .. x_m`` accessed via *read* and *write* operations:

- a write ``w_i(x_h)v`` executed by process ``p_i`` stores value ``v``
  into location ``x_h``;
- a read ``r_i(x_h)v`` executed by ``p_i`` returns the value ``v``
  currently visible at ``p_i`` for ``x_h``.

Every location initially holds the distinguished value ``BOTTOM``
(written :math:`\\bot` in the paper).

Write identity
--------------

The theory (and the trace checkers built on it) must recover the
*read-from* relation ``->ro`` exactly.  Raw values are ambiguous -- two
different writes may store the same value -- so every write in this
library carries a :class:`WriteId` ``(process, seq)`` where ``seq`` is
the 1-based index of the write in its issuer's local sequence of writes
("the k-th write issued by ``p_i``", the quantity tracked by the
paper's ``Write_co`` vectors, Observation 2).  A read records the
:class:`WriteId` of the write it returned (or ``None`` when it returned
``BOTTOM``), which pins ``->ro`` down unambiguously.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Hashable, Optional


class Bottom:
    """The initial value :math:`\\bot` of every memory location.

    A singleton: use the module-level :data:`BOTTOM` instance.  It
    compares equal only to itself and hashes consistently, so it can be
    stored in replicated-variable maps like any other value.
    """

    _instance: Optional["Bottom"] = None

    def __new__(cls) -> "Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "BOTTOM"

    def __reduce__(self):
        # Preserve singleton-ness across pickling (used when shipping
        # scenario descriptions to worker processes).
        return (Bottom, ())


#: The initial value of every memory location (:math:`\bot` in the paper).
BOTTOM = Bottom()


class OpKind(enum.Enum):
    """Kind discriminator for :class:`Operation` values."""

    READ = "read"
    WRITE = "write"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_setattr = object.__setattr__   # past ``frozen``, as dataclasses do


@dataclass(frozen=True, slots=True, order=True, init=False)
class WriteId:
    """Globally unique identity of a write operation.

    Attributes
    ----------
    process:
        0-based identifier of the issuing process ``p_i``.
    seq:
        1-based sequence number: this is the ``seq``-th write issued by
        ``process``.  The paper's Observation 2 states
        ``w.Write_co[i] = k`` iff ``w`` is the k-th write issued by
        ``p_i`` -- i.e. ``seq`` is exactly the issuer's own component of
        the write's ``Write_co`` vector.
    """

    process: int
    seq: int

    # Validated and written inline: the generated ``__init__`` plus a
    # ``__post_init__`` is two Python calls per id, and every write and
    # every decoded update builds one.
    def __init__(self, process: int, seq: int) -> None:
        if process < 0:
            raise ValueError(f"process must be >= 0, got {process}")
        if seq < 1:
            raise ValueError(f"seq is 1-based and must be >= 1, got {seq}")
        _setattr(self, "process", process)
        _setattr(self, "seq", seq)

    def __str__(self) -> str:
        return f"w[p{self.process}#{self.seq}]"

    # Immutable value object: copying is pure overhead, and write ids
    # are the most-copied objects in clone-based exploration
    # (repro.mck snapshots whole clusters at every branch point).
    def __copy__(self) -> "WriteId":
        return self

    def __deepcopy__(self, memo) -> "WriteId":
        return self


@dataclass(frozen=True, slots=True)
class Operation:
    """Base class for the two operation kinds of the model.

    An operation is identified *within a history* by the pair
    ``(process, index)`` where ``index`` is its 0-based position in the
    issuing process's local history (its rank in ``->po``).

    Subclasses: :class:`Write` and :class:`Read`.
    """

    process: int
    index: int

    @property
    def kind(self) -> OpKind:
        raise NotImplementedError

    @property
    def key(self) -> tuple[int, int]:
        """The ``(process, index)`` identity of this operation."""
        return (self.process, self.index)


@dataclass(frozen=True, slots=True)
class Write(Operation):
    """A write operation ``w_i(x_h)v`` (paper notation).

    Attributes
    ----------
    variable:
        The memory location name ``x_h`` (any hashable; the canonical
        examples use strings like ``"x1"``).
    value:
        The value ``v`` stored.
    wid:
        The write's :class:`WriteId`; ``wid.process`` must equal
        :attr:`Operation.process`.
    """

    variable: Hashable = field(default=None)
    value: Any = field(default=None)
    wid: WriteId = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.wid is None:
            raise ValueError("Write requires a WriteId")
        if self.wid.process != self.process:
            raise ValueError(
                f"WriteId process {self.wid.process} does not match "
                f"operation process {self.process}"
            )

    @property
    def kind(self) -> OpKind:
        return OpKind.WRITE

    def __str__(self) -> str:
        return f"w{self.process}({self.variable}){self.value!r}"


@dataclass(frozen=True, slots=True)
class Read(Operation):
    """A read operation ``r_i(x_h)v`` (paper notation).

    Attributes
    ----------
    variable:
        The memory location read.
    value:
        The value returned.
    read_from:
        The :class:`WriteId` of the write whose value was returned, or
        ``None`` when the read returned the initial value ``BOTTOM``
        (third clause of the ``->ro`` definition in Section 2).
    """

    variable: Hashable = field(default=None)
    value: Any = field(default=None)
    read_from: Optional[WriteId] = None

    def __post_init__(self) -> None:
        if self.read_from is None and not isinstance(self.value, Bottom):
            # A read with no writer must return BOTTOM (Section 2,
            # definition of ->ro, third bullet).  We enforce it eagerly:
            # traces that violate it would silently corrupt ->ro.
            raise ValueError(
                "Read with read_from=None must return BOTTOM; got "
                f"value={self.value!r}"
            )

    @property
    def kind(self) -> OpKind:
        return OpKind.READ

    def __str__(self) -> str:
        return f"r{self.process}({self.variable}){self.value!r}"


def fresh_value(wid: WriteId) -> str:
    """Return a human-readable value unique to ``wid``.

    Convenience for generated workloads: using ``fresh_value`` for every
    write makes histories readable while keeping values distinct, e.g.
    ``"v[p2#5]"`` for the fifth write of process 2.
    """
    return f"v[p{wid.process}#{wid.seq}]"
