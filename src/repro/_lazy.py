"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package names what it re-exports as ``{submodule: names}``.  Each name
is imported from its submodule on first attribute access and cached in
the package's namespace, so importing the package loads none of its
submodules.  A name equal to its submodule's own name re-exports the
submodule itself.  The same table drives ``__all__`` and ``dir()``.

Stdlib only: ``repro/__init__`` imports this before anything can load
numpy.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``'s ``__init__``.

    ``exports`` maps a relative submodule (``".core"``) to the names the
    package re-exports from it.
    """
    where = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            sub = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = importlib.import_module(sub, package)
        value = module if sub == f".{name}" else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__, list(where)
