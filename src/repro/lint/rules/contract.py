"""RL004/RL005: the class-𝒫 protocol contract, checked structurally.

``repro.core.base.Protocol`` is the paper's protocol class 𝒫 rendered
as an ABC.  Much of its contract is invisible to the type system:

RL004 (``protocol-pair``)
    - A direct ``Protocol`` subclass must define the four mandatory
      hooks ``write`` / ``read`` / ``classify`` / ``apply_update``
      (the ABC enforces this at *instantiation* time; the linter
      reports it at the definition).
    - Readiness has one declaration besides ``classify``:
      ``requirement``.  An override must keep the ``(self, msg)``
      signature the substrate calls it with, and the class must not
      also override ``missing_deps`` -- that is the base class's single
      evaluation of the requirement, and a second hand-written copy of
      the predicate is exactly what the hook replaced.

RL005 (``protocol-hooks``)
    Declared capabilities must come with their handler:

    - ``timer_interval = <value>`` without ``on_timer`` raises
      ``NotImplementedError`` on the first tick;
    - ``classify`` returning ``Disposition.DISCARD`` without
      ``discard_update`` does the same on the first overwritten write;
    - ``in_class_p = False`` without ``missing_applies`` makes the
      substrate's quiescence accounting (and the liveness checker)
      silently wrong -- a WS variant must report what it skipped.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.lint.context import ModuleContext, dotted_name
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

__all__ = ["ProtocolHooksRule", "ProtocolPairRule"]

_MANDATORY = ("write", "read", "classify", "apply_update")


def _base_names(cls: ast.ClassDef) -> Set[str]:
    out = set()
    for base in cls.bases:
        name = dotted_name(base)
        if name:
            out.add(name.rsplit(".", 1)[-1])
    return out


def _is_direct_protocol_subclass(cls: ast.ClassDef) -> bool:
    """Heuristic: a base literally named ``Protocol`` (dotted or not)."""
    return "Protocol" in _base_names(cls)


def _is_protocol_like(cls: ast.ClassDef) -> bool:
    """Any base whose name mentions Protocol (covers grandchildren)."""
    return any("Protocol" in b for b in _base_names(cls))


def _methods(cls: ast.ClassDef):
    return {
        n.name: n for n in cls.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _class_var(cls: ast.ClassDef, name: str) -> Optional[ast.AST]:
    """The value expression of a class-body ``name = ...`` binding."""
    for node in cls.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return node.value
        elif isinstance(node, ast.AnnAssign):
            if (isinstance(node.target, ast.Name)
                    and node.target.id == name
                    and node.value is not None):
                return node.value
    return None


@register
class ProtocolPairRule(Rule):
    code = "RL004"
    name = "protocol-pair"
    summary = (
        "Protocol subclasses: mandatory hooks present, requirement "
        "has the conforming signature and missing_deps stays derived"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.zone not in ("core", "protocols"):
            return
        for cls in ctx.classes():
            if not _is_protocol_like(cls):
                continue
            methods = _methods(cls)
            if _is_direct_protocol_subclass(cls):
                missing = [m for m in _MANDATORY if m not in methods]
                if missing:
                    yield self.finding(
                        ctx, cls,
                        f"Protocol subclass {cls.name} is missing mandatory "
                        f"hook(s): {', '.join(missing)}",
                    )
            requirement = methods.get("requirement")
            if requirement is not None \
                    and not self._signature_ok(requirement):
                yield self.finding(
                    ctx, requirement,
                    f"{cls.name}.requirement must keep the (self, msg) "
                    "signature the delivery scheduler calls it with",
                )
            if "missing_deps" in methods:
                yield self.finding(
                    ctx, methods["missing_deps"],
                    f"{cls.name}.missing_deps re-states the wait "
                    "predicate by hand; it is derived from requirement "
                    "in Protocol -- declare requirement and drop the "
                    "override",
                )

    @staticmethod
    def _signature_ok(fn: ast.FunctionDef) -> bool:
        a = fn.args
        return (
            len(a.args) == 2
            and not a.posonlyargs
            and not a.kwonlyargs
            and a.vararg is None
            and a.kwarg is None
            and not a.defaults
        )


@register
class ProtocolHooksRule(Rule):
    code = "RL005"
    name = "protocol-hooks"
    summary = (
        "declared protocol capabilities (timer, discard, non-class-P) "
        "must come with their handler"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.zone not in ("core", "protocols"):
            return
        for cls in ctx.classes():
            if not _is_protocol_like(cls):
                continue
            methods = _methods(cls)

            interval = _class_var(cls, "timer_interval")
            declares_timer = interval is not None and not (
                isinstance(interval, ast.Constant) and interval.value is None
            )
            if declares_timer and "on_timer" not in methods:
                yield self.finding(
                    ctx, interval,
                    f"{cls.name} declares timer_interval but defines no "
                    "on_timer; the first tick raises NotImplementedError",
                )

            if self._uses_discard(cls) and "discard_update" not in methods:
                yield self.finding(
                    ctx, cls,
                    f"{cls.name} classifies updates as DISCARD but defines "
                    "no discard_update handler",
                )

            icp = _class_var(cls, "in_class_p")
            leaves_class_p = (
                isinstance(icp, ast.Constant) and icp.value is False
            )
            if leaves_class_p and "missing_applies" not in methods:
                yield self.finding(
                    ctx, icp,
                    f"{cls.name} sets in_class_p = False but does not "
                    "override missing_applies; quiescence accounting would "
                    "count its skipped applies as losses",
                )

    @staticmethod
    def _uses_discard(cls: ast.ClassDef) -> bool:
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute)
                    and node.attr == "DISCARD"
                    and dotted_name(node) == "Disposition.DISCARD"):
                return True
        return False
