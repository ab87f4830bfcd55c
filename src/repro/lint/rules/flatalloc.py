"""RL009: no per-message vector allocation on the delivery hot path.

One receipt costs one predicate evaluation, one apply and one O(1)
wake lookup (``docs/performance.md``): a message's requirement row is
the tuple its payload already carries, progress advances in place, and
the dense form of a wide row is built once per message
(:func:`repro.core.flatstate.wide_row`).  A ``list(...)`` /
``tuple(...)`` conversion inside the per-delivery path quietly
reintroduces the per-message vector rebuild that design eliminates --
the run stays correct, the speed silently evaporates, and only the
benchmark sweep would notice.

Hot zones (zones ``sim`` / ``core`` / ``protocols``), by method name:

- the protocol's readiness surface: ``requirement`` / ``missing_deps``;
- the scheduler interface: ``offer`` / ``notify_applied`` / ``pump``,
  and the dense evaluation ``unsatisfied``;
- the node's receive path: ``_receive_update`` / ``_apply``.

Flagged: any call to ``list`` / ``tuple`` (conversion or empty -- both
allocate per message).  Tuple *literals* like ``(component, required)``
keys are fine: small fixed-arity keys, not vector rebuilds.
Constructors and audit views (``buffered``) run off the per-delivery
path and are deliberately out of scope.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext, dotted_name
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

__all__ = ["FlatHotAllocRule", "iter_hot_zones"]

#: The per-delivery methods, wherever they are defined.
_HOT_METHODS = {
    "requirement", "missing_deps",
    "offer", "notify_applied", "pump", "unsatisfied",
    "_receive_update", "_apply",
}

_ALLOC_CALLS = {"list", "tuple"}


def iter_hot_zones(ctx: ModuleContext):
    """Yield (function node, human-readable zone name) for every
    delivery hot zone in the module -- shared with interprocedural
    RL104."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.FunctionDef) \
                or node.name not in _HOT_METHODS:
            continue
        parent = ctx.parent(node)
        if isinstance(parent, ast.ClassDef):
            yield node, f"{parent.name}.{node.name}()"
        else:
            yield node, f"{node.name}()"


@register
class FlatHotAllocRule(Rule):
    code = "RL009"
    name = "flat-hot-alloc"
    summary = (
        "no per-message list/tuple vector allocation inside "
        "delivery hot zones"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.zone not in ("sim", "core", "protocols"):
            return
        for func, where in self._hot_zones(ctx):
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name not in _ALLOC_CALLS:
                    continue
                yield self.finding(
                    ctx, node,
                    f"{name}(...) allocates a fresh vector per message "
                    f"inside delivery hot zone {where}; hand over the "
                    "row the payload carries / advance the progress "
                    "vector in place",
                )

    def _hot_zones(self, ctx: ModuleContext):
        """Yield (function node, human-readable zone name) pairs."""
        yield from iter_hot_zones(ctx)
