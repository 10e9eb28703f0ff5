"""Conservative project call graph + reachability over module summaries.

The graph's nodes are fully-qualified function names
(``repro.core.geodist.GeoDistributedMapper._solve_flat``,
``repro.core.cost.total_cost``); edges come from syntactic call-site
resolution against the project's import tables and class hierarchy:

- bare names resolve to same-module functions, imported symbols, or
  same-module classes (constructor -> ``__init__``);
- dotted calls resolve through the import table into other project
  modules (``cost.total_cost`` with ``from . import cost``);
- ``self.m(...)``/``cls.m(...)`` resolve up the MRO **and down to every
  subclass override** — the conservative model of dynamic dispatch that
  lets ``Mapper.map -> self._solve`` reach every registered mapper;
- ``Ctor(...).m(...)`` resolves the constructor chain to a project
  class, then the method like a self-call; so does ``x.m(...)`` when
  the function binds the local ``x`` only by ``x = Ctor(...)``.

Anything else — ``getattr`` dispatch, callables passed as parameters,
attribute calls on arbitrary expressions (``problem.dense_CG()``) — is
*not* guessed at: it lands in the explicit per-caller
:attr:`CallGraph.unknown` bucket, which rules and reports can query.
Calls that resolve into packages outside the indexed project (numpy,
stdlib) are counted as external and ignored.  These blind spots are
documented in the README's reachability-model section; rules that need
to see through them (RPR010's dense-call scan) match *call sites inside
reachable functions* instead of graph edges, so an unresolvable callee
never hides a violation inside a function we know runs.
"""

from __future__ import annotations

import builtins
from dataclasses import dataclass, field
from typing import Iterable

from .project import CallSite, ClassSummary, FunctionSummary, ModuleSummary

__all__ = ["ProjectIndex", "CallGraph", "build_call_graph"]


@dataclass(frozen=True)
class _ClassInfo:
    """One project class, globally qualified."""

    class_id: str  # "repro.core.mapping.Mapper"
    module: str
    summary: ClassSummary


class ProjectIndex:
    """Symbol tables over a set of module summaries.

    Resolves dotted names to project symbols, walks the class hierarchy
    (bases resolved through each module's import table), and expands
    entry-point patterns like ``pkg.mod.Class.*``.
    """

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        #: module dotted name -> summary
        self.modules: dict[str, ModuleSummary] = {s.module: s for s in summaries}
        self.top_packages: frozenset[str] = frozenset(
            m.split(".")[0] for m in self.modules if m
        )
        self._classes: dict[str, _ClassInfo] = {}
        for mod in self.modules.values():
            for cname, csum in mod.classes.items():
                cid = f"{mod.module}.{cname}"
                self._classes[cid] = _ClassInfo(cid, mod.module, csum)
        self._bases: dict[str, tuple[str, ...]] = {}
        self._subclasses: dict[str, set[str]] = {}
        for cid, info in self._classes.items():
            resolved: list[str] = []
            for base in info.summary.bases:
                base_id = self._resolve_class_name(base, info.module)
                if base_id is not None:
                    resolved.append(base_id)
            self._bases[cid] = tuple(resolved)
            for base_id in resolved:
                self._subclasses.setdefault(base_id, set()).add(cid)

    # -------------------------------------------------------------- classes

    def _resolve_class_name(self, dotted: str, module: str) -> str | None:
        """A base-class expression (as written) -> class id, if in-project."""
        parts = tuple(dotted.split("."))
        mod = self.modules[module]
        if len(parts) == 1:
            if parts[0] in mod.classes:
                return f"{module}.{parts[0]}"
            target = mod.imports.get(parts[0])
            if target is not None:
                return self._class_id_for(tuple(target.split(".")))
            return None
        absolute = self._absolute_in(mod, parts)
        if absolute is None:
            return None
        return self._class_id_for(absolute)

    def _class_id_for(self, absolute: tuple[str, ...]) -> str | None:
        """Absolute dotted parts -> class id when they name a project class."""
        for split in range(len(absolute) - 1, 0, -1):
            mod_name = ".".join(absolute[:split])
            if mod_name in self.modules:
                rest = absolute[split:]
                if len(rest) == 1 and rest[0] in self.modules[mod_name].classes:
                    return f"{mod_name}.{rest[0]}"
                # Re-exported name: ``from .mapping import Mapper`` in a
                # package __init__ forwards one more hop.
                fwd = self.modules[mod_name].imports.get(rest[0])
                if fwd is not None and len(rest) == 1:
                    return self._class_id_for(tuple(fwd.split(".")))
                return None
        return None

    def mro(self, class_id: str) -> list[str]:
        """The class and its project-resolvable ancestors, nearest first."""
        out: list[str] = []
        queue = [class_id]
        seen: set[str] = set()
        while queue:
            cid = queue.pop(0)
            if cid in seen or cid not in self._classes:
                continue
            seen.add(cid)
            out.append(cid)
            queue.extend(self._bases.get(cid, ()))
        return out

    def descendants(self, class_id: str) -> set[str]:
        """All transitive subclasses of ``class_id`` in the project."""
        out: set[str] = set()
        queue = list(self._subclasses.get(class_id, ()))
        while queue:
            cid = queue.pop()
            if cid in out:
                continue
            out.add(cid)
            queue.extend(self._subclasses.get(cid, ()))
        return out

    # ------------------------------------------------------------ functions

    def function(self, node: str) -> FunctionSummary | None:
        """Summary for a fully-qualified function node, if it exists."""
        for split in range(len(node.split(".")) - 1, 0, -1):
            parts = node.split(".")
            mod_name = ".".join(parts[:split])
            if mod_name in self.modules:
                key = ".".join(parts[split:])
                return self.modules[mod_name].functions.get(key)
        return None

    def module_of(self, node: str) -> ModuleSummary | None:
        """The module summary a function node lives in."""
        parts = node.split(".")
        for split in range(len(parts) - 1, 0, -1):
            mod_name = ".".join(parts[:split])
            if mod_name in self.modules:
                if ".".join(parts[split:]) in self.modules[mod_name].functions:
                    return self.modules[mod_name]
                return None
        return None

    def method_node(self, class_id: str, method: str) -> str | None:
        """Nearest definition of ``method`` from ``class_id`` up the MRO."""
        for cid in self.mro(class_id):
            info = self._classes[cid]
            if method in info.summary.methods:
                return f"{info.module}.{info.summary.name}.{method}"
        return None

    def method_targets(self, class_id: str, method: str) -> list[str]:
        """Conservative dynamic-dispatch targets of ``obj.method``.

        The nearest MRO definition plus every subclass override: a
        ``self._solve()`` in the abstract ``Mapper`` reaches each
        registered mapper's ``_solve``.
        """
        out: list[str] = []
        nearest = self.method_node(class_id, method)
        if nearest is not None:
            out.append(nearest)
        for sub in sorted(self.descendants(class_id)):
            info = self._classes.get(sub)
            if info is not None and method in info.summary.methods:
                out.append(f"{info.module}.{info.summary.name}.{method}")
        return list(dict.fromkeys(out))

    # ------------------------------------------------------------ resolution

    @staticmethod
    def _absolute_in(
        mod: ModuleSummary, parts: tuple[str, ...]
    ) -> tuple[str, ...] | None:
        target = mod.imports.get(parts[0])
        if target is None:
            return None
        return tuple(target.split(".")) + parts[1:]

    def resolve_symbol(self, absolute: tuple[str, ...]) -> list[str]:
        """Absolute dotted parts -> graph nodes (empty when unresolvable).

        A function resolves to itself; a class resolves to its
        ``__init__``/``__post_init__`` when defined; ``Class.method``
        resolves through the MRO.  Re-exports through package
        ``__init__`` import tables are followed one hop at a time.
        """
        for split in range(len(absolute), 0, -1):
            mod_name = ".".join(absolute[:split])
            if mod_name not in self.modules:
                continue
            mod = self.modules[mod_name]
            rest = absolute[split:]
            if not rest:
                return []
            if len(rest) == 1:
                name = rest[0]
                if name in mod.functions:
                    return [f"{mod_name}.{name}"]
                if name in mod.classes:
                    return self._ctor_nodes(f"{mod_name}.{name}")
                fwd = mod.imports.get(name)
                if fwd is not None:
                    return self.resolve_symbol(tuple(fwd.split(".")))
                return []
            if len(rest) == 2:
                cname, meth = rest
                if cname in mod.classes:
                    return self.method_targets(f"{mod_name}.{cname}", meth)
                fwd = mod.imports.get(cname)
                if fwd is not None:
                    return self.resolve_symbol(tuple(fwd.split(".")) + (meth,))
            return []
        return []

    def _ctor_nodes(self, class_id: str) -> list[str]:
        out: list[str] = []
        for meth in ("__init__", "__post_init__"):
            node = self.method_node(class_id, meth)
            if node is not None:
                out.append(node)
        return out

    # ---------------------------------------------------------- entry points

    def expand_entry(self, pattern: str) -> list[str]:
        """Entry-point pattern -> concrete graph nodes.

        ``pkg.mod.fn`` names a function; ``pkg.mod.Class.method`` names
        a method (plus every subclass override, so ``Mapper.map``
        covers a subclass that overrides ``map``); ``pkg.mod.Class.*``
        names every method the class defines.
        """
        if pattern.endswith(".*"):
            absolute = tuple(pattern[:-2].split("."))
            for split in range(len(absolute), 0, -1):
                mod_name = ".".join(absolute[:split])
                if mod_name in self.modules:
                    rest = absolute[split:]
                    if len(rest) == 1 and rest[0] in self.modules[mod_name].classes:
                        cid = f"{mod_name}.{rest[0]}"
                        nodes: list[str] = []
                        for meth in self._classes[cid].summary.methods:
                            nodes.extend(self.method_targets(cid, meth))
                        return list(dict.fromkeys(nodes))
                    return []
            return []
        return self.resolve_symbol(tuple(pattern.split(".")))


@dataclass
class CallGraph:
    """Resolved edges plus the explicit unknown-callee bucket."""

    #: caller node -> callee nodes (project-internal, resolved).
    edges: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: caller node -> rendered call targets that could not be resolved.
    unknown: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: calls that resolved into non-project packages (numpy, stdlib...).
    external_calls: int = 0

    @property
    def num_nodes(self) -> int:
        return len(self.edges)

    @property
    def num_edges(self) -> int:
        return sum(len(v) for v in self.edges.values())

    @property
    def num_unknown(self) -> int:
        return sum(len(v) for v in self.unknown.values())

    def reachable(self, entries: Iterable[str]) -> frozenset[str]:
        """Every node reachable from ``entries`` (inclusive), via BFS."""
        seen: set[str] = set()
        queue = [e for e in entries if e in self.edges]
        while queue:
            node = queue.pop()
            if node in seen:
                continue
            seen.add(node)
            queue.extend(c for c in self.edges.get(node, ()) if c not in seen)
        return frozenset(seen)


def build_call_graph(index: ProjectIndex) -> CallGraph:
    """Resolve every recorded call site into edges or the unknown bucket."""
    graph = CallGraph()
    for mod in index.modules.values():
        for qual, fs in mod.functions.items():
            caller = f"{mod.module}.{qual}"
            callees: list[str] = []
            unknown: list[str] = []
            for call in fs.calls:
                resolved, is_external = _resolve_call(index, mod, fs, call)
                if resolved:
                    callees.extend(resolved)
                elif is_external:
                    graph.external_calls += 1
                else:
                    unknown.append(f"{call.kind}:{'.'.join(call.target)}")
            graph.edges[caller] = tuple(dict.fromkeys(callees))
            if unknown:
                graph.unknown[caller] = tuple(unknown)
    return graph


def _resolve_call(
    index: ProjectIndex,
    mod: ModuleSummary,
    fs: FunctionSummary,
    call: CallSite,
) -> tuple[list[str], bool]:
    """One call site -> (resolved nodes, was_external)."""
    kind, target = call.kind, call.target
    if kind == "name":
        name = target[0]
        if name in mod.functions:
            return [f"{mod.module}.{name}"], False
        if name in mod.classes:
            return index._ctor_nodes(f"{mod.module}.{name}"), False
        imported = mod.imports.get(name)
        if imported is not None:
            absolute = tuple(imported.split("."))
            if absolute[0] in index.top_packages:
                return index.resolve_symbol(absolute), False
            return [], True
        # Unresolved bare name: a builtin, a local callable, or a
        # parameter.  Builtins are external noise, not conservatism
        # worth reporting; anything else goes in the bucket.
        return [], hasattr(builtins, name)
    if kind in ("self", "cls"):
        if not fs.cls:
            return [], False
        return index.method_targets(f"{mod.module}.{fs.cls}", target[0]), False
    if kind == "dotted":
        head = target[0]
        if head in mod.classes and len(target) == 2:
            node = index.method_node(f"{mod.module}.{head}", target[1])
            return ([node] if node is not None else []), False
        dotted_abs = ProjectIndex._absolute_in(mod, target)
        if dotted_abs is None:
            return [], False
        if dotted_abs[0] not in index.top_packages:
            return [], True
        return index.resolve_symbol(dotted_abs), False
    if kind == "instance":
        # Ctor(...).method(...): resolve the constructor chain to a
        # class, then dispatch the method dynamically.
        ctor, meth = target[:-1], target[-1]
        if len(ctor) == 1 and ctor[0] in mod.classes:
            return index.method_targets(f"{mod.module}.{ctor[0]}", meth), False
        imported = mod.imports.get(ctor[0])
        if imported is not None:
            ctor_abs = tuple(imported.split(".")) + ctor[1:]
            if ctor_abs[0] not in index.top_packages:
                return [], True
            cid = index._class_id_for(ctor_abs)
            if cid is not None:
                return index.method_targets(cid, meth), False
        return [], False
    return [], False
