"""Module-granular call graph with zone-aware transitive queries.

Each analyzed module contributes a :class:`ModuleInfo`: its functions
(top-level and methods, keyed by qualified name), its import table,
and per-function summaries --

- ``sources``: direct RL001-style nondeterminism (wall clock, entropy,
  unseeded randomness) and RL002-style set iteration, minus any site
  the module's own ``# reprolint: disable=`` comments sanction;
- ``allocs``: ``list(...)`` / ``tuple(...)`` vector allocations;
- ``calls``: outgoing call references (plain names, dotted
  module-function names, and ``self.method(...)``);
- ``mutates_params``: parameter positions the body mutates in place
  (``vc_join_inplace`` style);
- ``returns_frozen``: every return value is provably immutable.

Resolution is deliberately conservative: only plain function names,
``module.function`` chains through the import table, and
``self.method`` against same-module class bodies resolve.  Duck-typed
attribute calls (``self.protocol.missing_deps(...)``) stay unresolved and
are skipped by the consuming rules, which keeps the analysis free of
speculative edges -- a finding always names a concrete chain.

Zone reachability: :meth:`CallGraph.nondet_path` only reports sources
that live *outside* the determinism zones -- a source inside
``sim``/``core``/``protocols``/``sweep`` is already flagged at its own
site by syntactic RL001/RL002, and double-reporting it transitively
would only add noise.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.context import DETERMINISM_ZONES, ModuleContext, dotted_name
from repro.lint.rules.determinism import (
    NondeterministicCallRule,
    _collect_set_bindings,
    _is_set_expr,
)
from repro.lint.suppress import parse_suppressions

__all__ = ["CallGraph", "FuncInfo", "ModuleInfo"]

#: Directive codes that sanction a nondeterminism source at its site.
_SOURCE_WAIVERS = {"RL001", "RL002", "RL103", "all"}

_MUTATING_METHODS = {
    "append", "extend", "insert", "update", "setdefault", "pop",
    "popitem", "clear", "remove", "sort", "reverse", "add", "discard",
}

_ALLOC_NAMES = {"list", "tuple"}

_detector = NondeterministicCallRule()


def _shallow_walk(root: ast.AST):
    """``ast.walk`` that does not descend into nested defs/classes."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _is_frozen_expr(node: Optional[ast.AST]) -> bool:
    if node is None:
        return True  # bare `return` -> None
    if isinstance(node, (ast.Constant, ast.Tuple)):
        return True
    if isinstance(node, ast.Call):
        return dotted_name(node.func) in ("tuple", "frozenset")
    return False


class FuncInfo:
    """Summary of one function/method body."""

    def __init__(self, module: "ModuleInfo", qualname: str,
                 node: ast.AST, cls_name: Optional[str]):
        self.module = module
        self.qualname = qualname
        self.node = node
        self.cls_name = cls_name
        self.lineno = node.lineno
        #: (line, human description) of direct nondeterminism sources.
        self.sources: List[Tuple[int, str]] = []
        #: (line, "list"/"tuple") of vector allocations.
        self.allocs: List[Tuple[int, str]] = []
        #: (call node, kind, name); kind is "plain" or "self".
        self.calls: List[Tuple[ast.Call, str, str]] = []
        self.mutates_params: Set[int] = set()
        self.returns_frozen = False
        self._summarize()

    @property
    def label(self) -> str:
        return f"{self.module.display}:{self.qualname}"

    def _summarize(self) -> None:
        node = self.node
        params = [a.arg for a in node.args.posonlyargs
                  + node.args.args + node.args.kwonlyargs]
        param_index = {p: i for i, p in enumerate(params)}
        set_names = self.module.set_names
        waived = self.module.source_waived_lines
        returns: List[ast.Return] = []
        for sub in _shallow_walk(node):
            if isinstance(sub, ast.Call):
                self._summarize_call(sub, waived)
            elif isinstance(sub, (ast.For, ast.AsyncFor)):
                if self._unordered(sub.iter, set_names) \
                        and sub.iter.lineno not in waived:
                    self.sources.append(
                        (sub.iter.lineno, "set iteration"))
            elif isinstance(sub, (ast.ListComp, ast.SetComp,
                                  ast.DictComp, ast.GeneratorExp)):
                for gen in sub.generators:
                    if self._unordered(gen.iter, set_names) \
                            and gen.iter.lineno not in waived:
                        self.sources.append(
                            (gen.iter.lineno, "set iteration"))
            elif isinstance(sub, ast.Return):
                returns.append(sub)
            self._summarize_mutation(sub, param_index)
        self.returns_frozen = bool(returns) and all(
            _is_frozen_expr(r.value) for r in returns
        )

    def _summarize_call(self, call: ast.Call, waived: Set[int]) -> None:
        desc = _detector._violation(call)
        if desc is not None:
            if call.lineno not in waived:
                self.sources.append((call.lineno, desc))
            return
        name = dotted_name(call.func)
        if name is None:
            return
        if name in _ALLOC_NAMES:
            self.allocs.append((call.lineno, name))
            return
        if "." not in name:
            self.calls.append((call, "plain", name))
        elif name.startswith("self.") and name.count(".") == 1:
            self.calls.append((call, "self", name.split(".", 1)[1]))
        else:
            root = name.split(".", 1)[0]
            if root != "self":
                self.calls.append((call, "plain", name))

    def _summarize_mutation(
        self, sub: ast.AST, param_index: Dict[str, int]
    ) -> None:
        targets: Sequence[ast.AST] = ()
        if isinstance(sub, ast.Assign):
            targets = sub.targets
        elif isinstance(sub, ast.AugAssign):
            targets = (sub.target,)
        for target in targets:
            if isinstance(target, (ast.Subscript, ast.Attribute)) \
                    and isinstance(target.value, ast.Name) \
                    and target.value.id in param_index:
                self.mutates_params.add(param_index[target.value.id])
        if (isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _MUTATING_METHODS
                and isinstance(sub.func.value, ast.Name)
                and sub.func.value.id in param_index):
            self.mutates_params.add(param_index[sub.func.value.id])

    @staticmethod
    def _unordered(it: ast.AST, set_names: Set[str]) -> bool:
        if _is_set_expr(it):
            return True
        name = dotted_name(it)
        return name is not None and name in set_names


class ModuleInfo:
    """Per-module facts: functions, imports, suppression waivers."""

    def __init__(self, ctx: ModuleContext):
        self.ctx = ctx
        self.path = ctx.path
        self.zone = ctx.zone
        self.dotted = _dotted_module(ctx.path)
        self.display = ctx.path.name
        self.set_names = _collect_set_bindings(ctx.tree)
        self.source_waived_lines = self._waived_lines(ctx)
        #: local name -> (module string, remote name) from `from X import y`.
        self.import_from: Dict[str, Tuple[str, str]] = {}
        #: alias -> module string from `import X [as y]`.
        self.import_mod: Dict[str, str] = {}
        self.classes: Dict[str, ast.ClassDef] = {}
        self.functions: Dict[str, FuncInfo] = {}
        self._collect()
        #: AST identity -> summary, for rules that walk the tree.
        self.by_node: Dict[int, FuncInfo] = {
            id(fn.node): fn for fn in self.functions.values()
        }

    @staticmethod
    def _waived_lines(ctx: ModuleContext) -> Set[int]:
        table = parse_suppressions(str(ctx.path), ctx.source)
        return {
            line for line, entry in table.entries()
            if entry & _SOURCE_WAIVERS
        }

    def _collect(self) -> None:
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.import_from[alias.asname or alias.name] = (
                        node.module, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    self.import_mod[alias.asname or alias.name] = alias.name
        for node in self.ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = FuncInfo(
                    self, node.name, node, None)
            elif isinstance(node, ast.ClassDef):
                self.classes[node.name] = node
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        qual = f"{node.name}.{item.name}"
                        self.functions[qual] = FuncInfo(
                            self, qual, item, node.name)

    def base_names(self, cls_name: str) -> List[str]:
        cls = self.classes.get(cls_name)
        if cls is None:
            return []
        out = []
        for base in cls.bases:
            name = dotted_name(base)
            if name:
                out.append(name.rsplit(".", 1)[-1])
        return out


def _dotted_module(path: Path) -> str:
    parts = list(path.parts)
    parts[-1] = path.stem
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    elif len(parts) > 4:
        parts = parts[-4:]
    return ".".join(parts)


class CallGraph:
    """Cross-module resolution plus memoized transitive queries."""

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.modules = list(modules)
        #: dotted suffix -> module; ambiguous suffixes resolve to None.
        self.by_suffix: Dict[str, Optional[ModuleInfo]] = {}
        for mod in self.modules:
            segs = mod.dotted.split(".")
            for i in range(len(segs)):
                suffix = ".".join(segs[i:])
                if suffix in self.by_suffix \
                        and self.by_suffix[suffix] is not mod:
                    self.by_suffix[suffix] = None
                else:
                    self.by_suffix[suffix] = mod
        self._nondet_memo: Dict[int, Optional[Tuple[str, List[str]]]] = {}
        self._alloc_memo: Dict[int, Optional[Tuple[str, List[str]]]] = {}

    # -- resolution ---------------------------------------------------------

    def module_by_ref(self, ref: str) -> Optional[ModuleInfo]:
        mod = self.by_suffix.get(ref)
        if mod is not None:
            return mod
        # relative-import spelling: match by trailing segments
        segs = ref.lstrip(".").split(".")
        for i in range(len(segs)):
            mod = self.by_suffix.get(".".join(segs[i:]))
            if mod is not None:
                return mod
        return None

    def resolve(self, caller: FuncInfo, kind: str,
                name: str) -> Optional[FuncInfo]:
        mod = caller.module
        if kind == "self":
            return self._resolve_method(mod, caller.cls_name, name)
        if "." not in name:
            target = mod.functions.get(name)
            if target is not None and target.cls_name is None:
                return target
            imported = mod.import_from.get(name)
            if imported is not None:
                target_mod = self.module_by_ref(imported[0])
                if target_mod is not None:
                    fn = target_mod.functions.get(imported[1])
                    if fn is not None and fn.cls_name is None:
                        return fn
            return None
        # dotted: `pkg.mod.fn(...)` through the plain-import table
        prefix, fname = name.rsplit(".", 1)
        module_ref = mod.import_mod.get(prefix, prefix)
        target_mod = self.module_by_ref(module_ref)
        if target_mod is not None:
            fn = target_mod.functions.get(fname)
            if fn is not None and fn.cls_name is None:
                return fn
        return None

    def _resolve_method(self, mod: ModuleInfo, cls_name: Optional[str],
                        meth: str, _depth: int = 0) -> Optional[FuncInfo]:
        if cls_name is None or _depth > 8:
            return None
        fn = mod.functions.get(f"{cls_name}.{meth}")
        if fn is not None:
            return fn
        for base in mod.base_names(cls_name):
            fn = self._resolve_method(mod, base, meth, _depth + 1)
            if fn is not None:
                return fn
        return None

    # -- transitive queries -------------------------------------------------

    def nondet_path(
        self, fn: FuncInfo
    ) -> Optional[Tuple[str, List[str]]]:
        """(source description, call chain) if ``fn`` transitively
        reaches a nondeterminism source outside the determinism zones."""
        return self._search(fn, self._nondet_memo, self._nondet_local, set())

    def alloc_path(
        self, fn: FuncInfo
    ) -> Optional[Tuple[str, List[str]]]:
        """(allocation description, call chain) if ``fn`` transitively
        performs a list/tuple vector allocation."""
        return self._search(fn, self._alloc_memo, self._alloc_local, set())

    @staticmethod
    def _nondet_local(fn: FuncInfo) -> Optional[str]:
        if fn.module.zone in DETERMINISM_ZONES:
            return None  # syntactic RL001/RL002 already owns this site
        if fn.sources:
            line, desc = fn.sources[0]
            return f"{desc} at {fn.module.display}:{line}"
        return None

    @staticmethod
    def _alloc_local(fn: FuncInfo) -> Optional[str]:
        if fn.allocs:
            line, name = fn.allocs[0]
            return f"{name}(...) at {fn.module.display}:{line}"
        return None

    def _search(self, fn, memo, local, visiting):
        key = id(fn)
        if key in memo:
            return memo[key]
        if key in visiting:
            return None  # cycle; resolved by the outermost frame
        visiting.add(key)
        result = None
        desc = local(fn)
        if desc is not None:
            result = (desc, [fn.label])
        else:
            for _call, kind, name in fn.calls:
                callee = self.resolve(fn, kind, name)
                if callee is None:
                    continue
                sub = self._search(callee, memo, local, visiting)
                if sub is not None:
                    result = (sub[0], [fn.label] + sub[1])
                    break
        visiting.discard(key)
        memo[key] = result
        return result
