"""The paper's primary contribution: ``Write_co`` vector clocks and OptP.

- :mod:`repro.core.vectorclock` -- the vector-clock value domain with the
  ``<`` / ``<=`` / ``||`` relations of Section 4.3;
- :mod:`repro.core.optp` -- the OptP protocol of Section 4 (Figures 4-5),
  a line-for-line port of the paper's pseudocode onto the
  :class:`repro.core.base.Protocol` interface.
"""

from repro.core.vectorclock import (
    VectorClock,
    vc_concurrent,
    vc_join,
    vc_le,
    vc_lt,
)
from repro.core.optp import OptPProtocol

__all__ = [
    "OptPProtocol",
    "VectorClock",
    "vc_concurrent",
    "vc_join",
    "vc_le",
    "vc_lt",
]
