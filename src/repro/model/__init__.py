"""Shared-memory theory substrate (Section 2 of the paper).

This subpackage implements the *abstract* shared-memory model the paper
reasons about, independently of any protocol or network:

- :mod:`repro.model.operations` -- read/write operations and write
  identities (``WriteId``), plus the distinguished initial value ``BOTTOM``;
- :mod:`repro.model.history` -- local and global histories, the process
  order ``->po``, the read-from order ``->ro`` and the causal order
  ``->co`` (its transitive closure), concurrency and causal pasts;
- :mod:`repro.model.legality` -- legal reads (Definition 1) and causally
  consistent histories (Definition 2);
- :mod:`repro.model.causality_graph` -- the write causality graph of
  Section 4.3 (immediate ``->co``-predecessors), used in the optimality
  proof and reproduced as Figure 7.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.model.operations": ("BOTTOM", "Bottom", "Operation", "OpKind",
                               "Read", "Write", "WriteId"),
    "repro.model.history": ("CausalOrder", "History", "HistoryBuilder",
                            "LocalHistory", "example_h1"),
    "repro.model.legality": ("LegalityReport", "LegalityViolation",
                             "check_causal_consistency",
                             "is_causally_consistent", "is_legal_read"),
    "repro.model.causality_graph": ("WriteCausalityGraph",
                                    "immediate_predecessors"),
    "repro.model.serialization": ("find_causal_serialization",
                                  "is_causal_ahamad",
                                  "verify_serialization"),
})

__all__ = [
    "BOTTOM",
    "Bottom",
    "CausalOrder",
    "History",
    "HistoryBuilder",
    "LegalityReport",
    "LegalityViolation",
    "LocalHistory",
    "OpKind",
    "Operation",
    "Read",
    "Write",
    "WriteCausalityGraph",
    "WriteId",
    "check_causal_consistency",
    "example_h1",
    "find_causal_serialization",
    "immediate_predecessors",
    "is_causal_ahamad",
    "is_causally_consistent",
    "is_legal_read",
    "verify_serialization",
]
