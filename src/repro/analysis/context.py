"""Per-file analysis context: parsed AST, import aliases, suppressions.

The engine builds one :class:`FileContext` per scanned file and hands it
to every rule, so alias resolution (``import numpy as np``), suppression
comments, and scope tracking are computed once per file rather than once
per rule.
"""

from __future__ import annotations

import ast
import re
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


@dataclass
class FileContext:
    """Everything the rules need to know about one source file."""

    relpath: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    #: 1-based line -> rule ids suppressed on that line (may contain "ALL").
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)
    #: Local names bound to the ``numpy`` module (e.g. {"np", "numpy"}).
    numpy_aliases: set[str] = field(default_factory=set)
    #: Local names bound to the ``numpy.random`` module itself.
    numpy_random_aliases: set[str] = field(default_factory=set)
    #: Local names bound to the ``time`` module.
    time_aliases: set[str] = field(default_factory=set)
    #: Local names bound to the ``datetime`` module.
    datetime_aliases: set[str] = field(default_factory=set)
    #: Local name -> original name, for ``from numpy.random import X [as Y]``.
    from_numpy_random: dict[str, str] = field(default_factory=dict)
    #: Local name -> original name, for ``from time import X [as Y]``.
    from_time: dict[str, str] = field(default_factory=dict)
    #: Local names bound to the ``repro.obs`` module (absolute or relative).
    obs_aliases: set[str] = field(default_factory=set)
    #: Local name -> original name, for imports from ``repro.obs`` (or its
    #: submodules), absolute *or* relative (``from ..obs import Span``).
    from_obs: dict[str, str] = field(default_factory=dict)
    #: Enclosing class/function names; maintained by the engine's visitor.
    scope: list[str] = field(default_factory=list)
    #: Kind of each enclosing *function* (True = ``async def``); also
    #: maintained by the visitor.  Lambdas push False — their bodies run
    #: when called, not where they are written.
    func_kinds: list[bool] = field(default_factory=list)

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

    def collect_imports(self) -> None:
        """Record module aliases from every import statement in the file."""
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.name == "numpy":
                        self.numpy_aliases.add(local)
                    elif alias.name == "numpy.random":
                        if alias.asname:
                            self.numpy_random_aliases.add(local)
                        else:  # ``import numpy.random`` binds ``numpy``
                            self.numpy_aliases.add(local)
                    elif alias.name == "time":
                        self.time_aliases.add(local)
                    elif alias.name == "datetime":
                        self.datetime_aliases.add(local)
                    elif alias.name == "repro.obs" and alias.asname:
                        self.obs_aliases.add(local)
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0:
                    if node.module == "numpy":
                        for alias in node.names:
                            if alias.name == "random":
                                self.numpy_random_aliases.add(alias.asname or "random")
                    elif node.module == "numpy.random":
                        for alias in node.names:
                            self.from_numpy_random[alias.asname or alias.name] = alias.name
                    elif node.module == "time":
                        for alias in node.names:
                            self.from_time[alias.asname or alias.name] = alias.name
                self._collect_obs_import(node)

    def _collect_obs_import(self, node: ast.ImportFrom) -> None:
        """Track names bound from ``repro.obs``, absolute or relative.

        Handles ``from repro.obs import Span``, ``from ..obs import Span
        as S``, ``from repro.obs.spans import Span``, and module binds
        like ``from repro import obs`` / ``from .. import obs``.
        """
        module = node.module or ""
        parts = tuple(module.split(".")) if module else ()
        relative = node.level > 0
        if parts and not (relative or parts[0] == "repro"):
            return
        if parts and (parts[-1] == "obs" or (len(parts) >= 2 and "obs" in parts[:-1])):
            # ``from ...obs[...] import X [as Y]``
            for alias in node.names:
                self.from_obs[alias.asname or alias.name] = alias.name
        elif (not parts and relative) or parts == ("repro",):
            # ``from repro import obs`` / ``from .. import obs [as o]``
            for alias in node.names:
                if alias.name == "obs":
                    self.obs_aliases.add(alias.asname or "obs")

    def dotted_parts(self, node: ast.expr) -> tuple[str, ...] | None:
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

    def is_numpy_random_attr(self, node: ast.expr) -> str | None:
        """If ``node`` is ``<numpy.random module>.X``, return ``X``."""
        parts = self.dotted_parts(node)
        if parts is None:
            return None
        if len(parts) == 3 and parts[0] in self.numpy_aliases and parts[1] == "random":
            return parts[2]
        if len(parts) == 2 and parts[0] in self.numpy_random_aliases:
            return parts[1]
        return None

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
