"""reprolint: AST-based determinism & protocol-contract analysis.

A self-contained static analyzer (stdlib ``ast`` only, no third-party
dependencies) for the invariants this reproduction's tests can only
check dynamically:

- **replay determinism** in ``sim`` / ``core`` / ``protocols``
  (RL001 nondeterministic calls, RL002 set-iteration order);
- **vector-clock aliasing** across the node boundary (RL003);
- the **class-𝒫 protocol contract** -- mandatory hooks, the one
  ``requirement`` declaration, declared-capability handlers
  (RL004, RL005);
- **obs gating** on hot-path modules (RL006);
- **cross-node isolation** -- all inter-process information flows
  through messages (RL007).

Inline suppressions use ``# reprolint: disable=RL003`` (RL900 flags
stale ones).  CLI entry point: ``repro-dsm lint``.  Rule catalog:
``docs/static-analysis.md``.
"""

from repro.lint.context import (
    DETERMINISM_ZONES,
    HOT_PATH_MODULES,
    ModuleContext,
    zone_of,
)
from repro.lint.findings import Finding, LintReport
from repro.lint.registry import Rule, all_rules, register, rule_catalog
from repro.lint.runner import PARSE_ERROR, collect_files, lint_file, lint_paths
from repro.lint.suppress import UNUSED_SUPPRESSION, parse_suppressions

__all__ = [
    "DETERMINISM_ZONES",
    "Finding",
    "HOT_PATH_MODULES",
    "LintReport",
    "ModuleContext",
    "PARSE_ERROR",
    "Rule",
    "UNUSED_SUPPRESSION",
    "all_rules",
    "collect_files",
    "lint_file",
    "lint_paths",
    "parse_suppressions",
    "register",
    "rule_catalog",
    "zone_of",
]
