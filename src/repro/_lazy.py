"""PEP 562 re-exports for package ``__init__`` modules.

A package that re-exports names from its submodules names them here and
imports each submodule on first use, so importing one light module of
the package (every replica process imports ``repro.serve.worker``) does
not also import its heavy siblings -- the checker, numpy, networkx --
through the package ``__init__``.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(namespace: Dict[str, Any],
                 exports: Dict[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the package whose globals are
    ``namespace``; ``exports`` maps each submodule to the names it
    provides.  The first read of a name imports its submodule and stores
    the value in ``namespace``, so later reads are plain lookups."""
    package = namespace["__name__"]
    owner = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *owner})

    return __getattr__, __dir__
