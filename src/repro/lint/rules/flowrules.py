"""Flow-aware rules RL101-RL104 (require ``repro-dsm lint --flow``).

These rules consume the shared :class:`repro.lint.flow.FlowAnalysis`
the runner attaches as ``ctx.flow``; without it (plain syntactic runs)
they stay silent.  Each closes a hole its syntactic sibling cannot:

RL101 (``payload-escape``)
    RL003 sees a bare ``self.write_co`` inside a payload dict, but not
    a local alias of it, not a post-construction
    ``msg.payload[k] = self._scratch`` store (the LeakyOptP mutant),
    and not a fresh vector mutated *after* the send.  The escape
    domain tracks all three through branches and loops, and the
    whole-program payload key summary proves the repo's
    tuple-on-the-wire keys immutable instead of re-flagging every
    receive-side store.

RL102 (``vc-monotonic``)
    Vector clocks only ever grow (Fidge-Mattern; the paper's
    Theorem 3 safety argument leans on ``Apply``/``Write_co``
    monotonicity).  Flags component decrements/resets, whole-vector
    rebinds, unsanctioned component stores (join/increment/guarded-max
    idioms are sanctioned), and delivery-condition loops that skip
    leading vector components (the BrokenANBKH mutant).

RL103 (``transitive-nondet``)
    RL001/RL002 only see a source written directly inside a
    determinism zone.  A helper in ``runtime``/``obs``/anywhere else
    that reads a wall clock re-enters through any call; the call graph
    reports the chain.

RL104 (``flat-hot-alloc-transitive``)
    RL009 through callees: a hot method that calls a helper which
    allocates ``list``/``tuple`` per message costs the delivery path
    just as surely as allocating inline.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.lint.context import ModuleContext, dotted_name
from repro.lint.findings import Finding
from repro.lint.flow.escape import (
    ESCAPED,
    FROZEN,
    LIVE,
    MUTABLE,
    PAYLOAD,
    _payload_key_of,
    iter_local_mutations,
    iter_payload_placements,
)
from repro.lint.registry import Rule, register
from repro.lint.rules.aliasing import (
    _ClassModel,
    _is_copy_call,
    _is_payload_access,
)
from repro.lint.rules.flatalloc import iter_hot_zones

__all__ = [
    "InterproceduralAllocRule",
    "PayloadEscapeRule",
    "TransitiveNondetRule",
    "VectorClockMonotonicityRule",
]


def _class_models(info):
    return {name: _ClassModel(node) for name, node in info.classes.items()}


def _is_negative(expr: ast.AST) -> bool:
    return (
        isinstance(expr, ast.UnaryOp)
        and isinstance(expr.op, ast.USub)
        and isinstance(expr.operand, ast.Constant)
    ) or (
        isinstance(expr, ast.Constant)
        and isinstance(expr.value, (int, float))
        and expr.value < 0
    )


@register
class PayloadEscapeRule(Rule):
    code = "RL101"
    name = "payload-escape"
    summary = (
        "objects reachable from a sent payload must not be mutated "
        "after send nor aliased into mutable state after receive"
    )
    requires_flow = True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        flow = ctx.flow
        if flow is None or ctx.zone not in ("core", "protocols"):
            return
        info = flow.module_for(ctx)
        if info is None:
            return
        models = _class_models(info)
        for fn in info.functions.values():
            model = models.get(fn.cls_name) if fn.cls_name else None
            before, cfg = flow.escape_states(fn, model)
            for block in cfg.blocks:
                for stmt in block.stmts:
                    state = before.get(id(stmt), {})
                    yield from self._check_stmt(
                        ctx, flow, fn, model, stmt, state)

    def _check_stmt(self, ctx, flow, fn, model, stmt, state):
        # sender side: live mutable state placed bare into a payload
        for _key, value, anchor in iter_payload_placements(stmt):
            if model is not None and isinstance(value, ast.Attribute) \
                    and model.is_mutable_vec(value):
                yield self.finding(
                    ctx, anchor,
                    f"live mutable state {dotted_name(value)} escapes "
                    "into a message payload; every receiver would share "
                    "the sender's object -- ship tuple(...)",
                )
            elif isinstance(value, ast.Name):
                flags = state.get(value.id, frozenset())
                if LIVE in flags and MUTABLE in flags \
                        and FROZEN not in flags:
                    yield self.finding(
                        ctx, anchor,
                        f"local {value.id!r} aliases live mutable state "
                        "and escapes into a message payload without a "
                        "copy -- ship tuple(...)",
                    )
        # sender side: mutation of a value already shipped in a payload
        for name, anchor in iter_local_mutations(stmt, fn, flow.graph):
            flags = state.get(name, frozenset())
            if FROZEN in flags:
                continue
            if ESCAPED in flags and MUTABLE in flags:
                yield self.finding(
                    ctx, anchor,
                    f"local {name!r} was shipped in a message payload "
                    "and is mutated afterwards; in-flight messages "
                    "would change under the receiver's feet",
                )
            elif PAYLOAD in flags and MUTABLE in flags:
                yield self.finding(
                    ctx, anchor,
                    f"local {name!r} aliases an incoming payload value "
                    "and is mutated in place; copy before mutating",
                )
        # receiver side: payload value stored into state while the key
        # is known (whole-program) to carry a mutable object
        if isinstance(stmt, ast.Assign) \
                and _is_payload_access(stmt.value) \
                and not _is_copy_call(stmt.value):
            stores_to_self = any(
                (n := dotted_name(t)) is not None and n.startswith("self.")
                for t in stmt.targets
            ) or any(
                isinstance(t, ast.Subscript)
                and (n := dotted_name(t.value)) is not None
                and n.startswith("self.")
                for t in stmt.targets
            )
            if stores_to_self:
                token = _payload_key_of(stmt.value)
                if flow.payload_keys.lookup(token) == MUTABLE:
                    yield self.finding(
                        ctx, stmt,
                        f"payload key {token} carries a mutable object "
                        "(see its senders); storing it into protocol "
                        "state aliases the in-flight message -- copy "
                        "first",
                    )


def _vector_attrs(cls: ast.ClassDef) -> Set[str]:
    """Attrs bound in ``__init__`` to ``[c] * n`` -- the vector-clock
    initialization shape every protocol in the repo uses."""
    init = next(
        (n for n in cls.body
         if isinstance(n, ast.FunctionDef) and n.name == "__init__"),
        None,
    )
    out: Set[str] = set()
    if init is None:
        return out
    for node in ast.walk(init):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        if value is None or not (
            isinstance(value, ast.BinOp)
            and isinstance(value.op, ast.Mult)
            and (isinstance(value.left, ast.List)
                 or isinstance(value.right, ast.List))
        ):
            continue
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            name = dotted_name(target)
            if name and name.startswith("self."):
                out.add(name.split(".", 1)[1])
    return out


@register
class VectorClockMonotonicityRule(Rule):
    code = "RL102"
    name = "vc-monotonic"
    summary = (
        "vector-clock components only grow: no decrements, resets, "
        "rebinds, or delivery loops that skip components"
    )
    requires_flow = True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        flow = ctx.flow
        if flow is None or ctx.zone not in ("core", "protocols"):
            return
        for cls in ctx.classes():
            vectors = _vector_attrs(cls)
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                payload_vecs = self._payload_vector_locals(method)
                for node in ast.walk(method):
                    if method.name != "__init__":
                        yield from self._check_store(
                            ctx, cls, node, vectors)
                    yield from self._check_skipped_loop(
                        ctx, node, vectors, payload_vecs,
                        any_read=method.name == "requirement")

    # -- stores -------------------------------------------------------------

    def _check_store(self, ctx, cls, node, vectors) -> Iterator[Finding]:
        if isinstance(node, ast.AugAssign):
            attr = self._vc_component_target(node.target, vectors)
            if attr is None:
                return
            if isinstance(node.op, ast.Sub):
                yield self.finding(
                    ctx, node,
                    f"decrement of vector-clock component self.{attr}"
                    "[...]; causal clocks are monotone -- only "
                    "join/increment may update them",
                )
            elif isinstance(node.op, ast.Add) and _is_negative(node.value):
                yield self.finding(
                    ctx, node,
                    f"negative increment of vector-clock component "
                    f"self.{attr}[...]; causal clocks are monotone",
                )
            return
        if not isinstance(node, ast.Assign):
            return
        for target in node.targets:
            attr = self._vc_component_target(target, vectors)
            if attr is not None:
                if not self._sanctioned_store(ctx, node, attr):
                    yield self.finding(
                        ctx, node,
                        f"store to vector-clock component self.{attr}"
                        "[...] bypasses the join/increment discipline "
                        "(allowed: self.X[i] + c, max(self.X[i], ...), "
                        "or a greater-than guard)",
                    )
                continue
            name = dotted_name(target)
            if name is not None and name.startswith("self.") \
                    and name.split(".", 1)[1] in vectors:
                value_name = dotted_name(node.value) or ""
                if isinstance(node.value, ast.Call) \
                        and "join" in (dotted_name(node.value.func) or ""):
                    continue
                yield self.finding(
                    ctx, node,
                    f"whole-vector rebind of {name} outside __init__; "
                    "rebinding a shared clock breaks every alias "
                    f"({value_name or 'value'} may come from an "
                    "untrusted source) -- update components via "
                    "join/increment instead",
                )

    @staticmethod
    def _vc_component_target(target: ast.AST,
                             vectors: Set[str]) -> Optional[str]:
        if isinstance(target, ast.Subscript):
            name = dotted_name(target.value)
            if name is not None and name.startswith("self."):
                attr = name.split(".", 1)[1]
                if attr in vectors:
                    return attr
        return None

    def _sanctioned_store(self, ctx, node: ast.Assign, attr: str) -> bool:
        # RHS that reads the same component (increment / max idioms)
        if self._references_attr(node.value, attr):
            return True
        # guarded-max: `if v > self.X[t]: self.X[t] = v`
        for anc in ctx.ancestors(node):
            if isinstance(anc, (ast.If, ast.While)) \
                    and self._references_attr(anc.test, attr):
                return True
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
        return False

    @staticmethod
    def _references_attr(expr: ast.AST, attr: str) -> bool:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Subscript) \
                    and dotted_name(sub.value) == f"self.{attr}":
                return True
        return False

    # -- skipped-component delivery loops -----------------------------------

    @staticmethod
    def _payload_vector_locals(method: ast.FunctionDef) -> Set[str]:
        out: Set[str] = set()
        for node in ast.walk(method):
            if isinstance(node, ast.Assign) \
                    and _is_payload_access(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        out.add(target.id)
        return out

    def _check_skipped_loop(self, ctx, node, vectors, payload_vecs,
                            any_read=False) -> Iterator[Finding]:
        """A ``range(k, ...)`` loop (``k > 0``) that compares a vector
        component -- or, inside ``requirement`` (``any_read``), merely
        copies one into the row -- skips components ``0..k-1``."""
        if not isinstance(node, (ast.For, ast.AsyncFor)):
            return
        it = node.iter
        if not (isinstance(it, ast.Call)
                and isinstance(it.func, ast.Name)
                and it.func.id == "range"
                and len(it.args) >= 2
                and isinstance(it.args[0], ast.Constant)
                and isinstance(it.args[0].value, int)
                and it.args[0].value != 0):
            return
        if not isinstance(node.target, ast.Name):
            return
        loop_var = node.target.id
        start = it.args[0].value
        wanted = ast.Subscript if any_read else ast.Compare
        for body_stmt in node.body:
            for sub in ast.walk(body_stmt):
                if not isinstance(sub, wanted):
                    continue
                if self._compares_vector(sub, loop_var, vectors,
                                         payload_vecs):
                    yield self.finding(
                        ctx, node,
                        f"range({start}, ...) loop in a causal "
                        "delivery condition skips vector component(s) "
                        f"0..{start - 1}; dependencies on those "
                        "writers are silently ignored",
                    )
                    return

    @staticmethod
    def _compares_vector(expr: ast.AST, loop_var: str,
                         vectors: Set[str], payload_vecs: Set[str]) -> bool:
        for sub in ast.walk(expr):
            if not isinstance(sub, ast.Subscript):
                continue
            if not (isinstance(sub.slice, ast.Name)
                    and sub.slice.id == loop_var):
                continue
            base = dotted_name(sub.value)
            if base is None:
                continue
            if base in payload_vecs:
                return True
            if base.startswith("self.") \
                    and base.split(".", 1)[1] in vectors:
                return True
        return False


@register
class TransitiveNondetRule(Rule):
    code = "RL103"
    name = "transitive-nondet"
    summary = (
        "calls from sim/core/protocols must not reach wall-clock, "
        "entropy, or set-iteration sources through helpers"
    )
    requires_flow = True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        flow = ctx.flow
        if flow is None or ctx.zone not in ("sim", "core", "protocols"):
            return
        info = flow.module_for(ctx)
        if info is None:
            return
        for fn in info.functions.values():
            for call, kind, name in fn.calls:
                callee = flow.graph.resolve(fn, kind, name)
                if callee is None or callee is fn:
                    continue
                hit = flow.graph.nondet_path(callee)
                if hit is None:
                    continue
                desc, chain = hit
                yield self.finding(
                    ctx, call,
                    f"call reaches a nondeterministic source: "
                    f"{' -> '.join(chain)} -> {desc}; replay in this "
                    "zone must be byte-identical",
                )


@register
class InterproceduralAllocRule(Rule):
    code = "RL104"
    name = "flat-hot-alloc-transitive"
    summary = (
        "delivery hot zones must not allocate vectors through "
        "callees either"
    )
    requires_flow = True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        flow = ctx.flow
        if flow is None or ctx.zone not in ("sim", "core", "protocols"):
            return
        info = flow.module_for(ctx)
        if info is None:
            return
        for func, where in iter_hot_zones(ctx):
            fn = info.by_node.get(id(func))
            if fn is None:
                continue
            for call, kind, name in fn.calls:
                callee = flow.graph.resolve(fn, kind, name)
                if callee is None or callee is fn:
                    continue
                hit = flow.graph.alloc_path(callee)
                if hit is None:
                    continue
                desc, chain = hit
                yield self.finding(
                    ctx, call,
                    f"call from delivery hot zone {where} transitively "
                    f"allocates a vector per message: "
                    f"{' -> '.join(chain)} -> {desc}; hoist the "
                    "allocation out of the per-delivery path",
                )
