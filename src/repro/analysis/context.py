"""Per-file analysis context: parsed AST, import table, suppressions.

The engine builds one :class:`FileContext` per scanned file and hands it
to every per-file rule and to the module summarizer, so name
resolution, suppression comments and scope tracking are computed once
per file rather than once per rule or per stage.

The import table is the lint's one answer to "what does this name refer
to?".  It maps each local name an import statement binds, anywhere in
the file, to an absolute dotted target:

- ``import a`` and ``import a.b`` bind ``a`` to ``a``;
- ``import a.b as c`` binds ``c`` to ``a.b``;
- ``from a.b import c [as d]`` binds ``d`` (or ``c``) to ``a.b.c``;
- ``from .x import y`` / ``from .. import y`` climb from the module's
  own package (``src/repro/core/m.py`` is in ``repro.core``, so
  ``from ..obs import Span`` binds ``Span`` to ``repro.obs.Span``); a
  climb past the top package binds nothing.

:meth:`FileContext.resolve` reads an ``a.b.c`` chain through the table,
so ``np.random.seed`` (``import numpy as np``), ``npr.seed`` (``from
numpy import random as npr``) and ``numpy.random.seed`` (``import
numpy.random``) all come back as ``("numpy", "random", "seed")``.  The
per-file rules match those absolute names, and the module summary
handed to the call graph carries the same table as its ``imports``.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

#: Matches ``# repro-lint: disable=RPR001,RPR002`` (or ``disable=all``).
#: Only the leading comma-separated ids count, so a reason may follow
#: them: ``# repro-lint: disable=RPR004 invariant checked by caller``.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=((?:RPR\d+|all)\b(?:\s*,\s*(?:RPR\d+|all)\b)*)",
    re.IGNORECASE,
)


def parse_suppressions(lines: list[str]) -> dict[int, frozenset[str]]:
    """Map 1-based line numbers to the set of rule ids disabled there.

    The special token ``all`` disables every rule on that line.  The
    comment applies to findings reported *on its own physical line*, which
    for multi-line statements is the line the statement starts on.
    """
    out: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        ids = frozenset(tok.strip().upper() for tok in match.group(1).split(",") if tok.strip())
        out[lineno] = ids
    return out


def module_name_for(relpath: str) -> str:
    """Dotted module name for a repo-relative path.

    Anything under a ``src/`` component is package-rooted there
    (``src/repro/core/geodist.py`` -> ``repro.core.geodist``), other
    trees use their path as-is (``benchmarks/bench_x.py`` ->
    ``benchmarks.bench_x``).  ``__init__.py`` names the package itself.
    The name is therefore independent of where the checkout lives on
    disk.
    """
    parts = [p for p in relpath.split("/") if p]
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def dotted_parts(node: ast.expr) -> tuple[str, ...] | None:
    """``a.b.c`` attribute chain as ``("a", "b", "c")``, else None."""
    parts: list[str] = []
    cur: ast.expr = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    return tuple(reversed(parts))


@dataclass
class FileContext:
    """Everything the rules and the summarizer need about one source file."""

    relpath: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    #: 1-based line -> rule ids suppressed on that line (may contain "ALL").
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)
    #: Enclosing class/function names; maintained by the engine's visitor.
    scope: list[str] = field(default_factory=list)
    #: Kind of each enclosing *function* (True = ``async def``); also
    #: maintained by the visitor.  Lambdas push False — their bodies run
    #: when called, not where they are written.
    func_kinds: list[bool] = field(default_factory=list)
    #: Dotted module name derived from ``relpath`` (``repro.core.cost``).
    module: str = field(init=False)
    #: The package relative imports climb from.
    package: str = field(init=False)
    #: Local name -> absolute dotted import target (see the module doc).
    imports: dict[str, str] = field(init=False)

    def __post_init__(self) -> None:
        self.module = module_name_for(self.relpath)
        if self.relpath.endswith("__init__.py"):
            self.package = self.module
        else:
            self.package = self.module.rpartition(".")[0]
        self.imports = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.imports[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        self.imports[head] = head
            elif isinstance(node, ast.ImportFrom):
                for alias, target in zip(node.names, self.from_import_targets(node)):
                    self.imports[alias.asname or alias.name] = ".".join(target)

    # ------------------------------------------------------------- location

    @property
    def in_src(self) -> bool:
        """True for files under a ``src/`` tree (library code)."""
        return "src" in Path(self.relpath).parts

    @property
    def in_benchmarks(self) -> bool:
        """True for files under a ``benchmarks/`` tree."""
        return "benchmarks" in Path(self.relpath).parts

    @property
    def in_async(self) -> bool:
        """True when the nearest enclosing function is an ``async def``."""
        return bool(self.func_kinds) and self.func_kinds[-1]

    @property
    def symbol(self) -> str:
        """Dotted name of the current scope ('' at module level)."""
        return ".".join(self.scope)

    # ------------------------------------------------------------ resolution

    def from_import_targets(self, node: ast.ImportFrom) -> Iterator[tuple[str, ...]]:
        """Absolute target of each name ``node`` imports, in order.

        Yields nothing when a relative import climbs past the top package.
        """
        if node.level == 0:
            base = node.module.split(".") if node.module else []
        else:
            parts = self.package.split(".") if self.package else []
            climb = node.level - 1
            if climb >= len(parts):
                return
            base = parts[: len(parts) - climb]
            if node.module:
                base.extend(node.module.split("."))
        for alias in node.names:
            yield (*base, *alias.name.split("."))

    def absolute(self, parts: tuple[str, ...]) -> tuple[str, ...] | None:
        """A dotted chain with its head read through the import table."""
        target = self.imports.get(parts[0])
        if target is None:
            return None
        return tuple(target.split(".")) + parts[1:]

    def resolve(self, expr: ast.expr) -> tuple[str, ...] | None:
        """Absolute dotted name of an ``a.b.c`` chain whose head is imported.

        None for anything else: an unimported head, a call or subscript
        in the chain, a non-name expression.
        """
        parts = dotted_parts(expr)
        return None if parts is None else self.absolute(parts)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """True when a suppression comment on ``line`` covers ``rule_id``."""
        ids = self.suppressions.get(line)
        if ids is None:
            return False
        return "ALL" in ids or rule_id.upper() in ids

    def line_text(self, lineno: int) -> str:
        """The stripped source text of a 1-based line ('' out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""
