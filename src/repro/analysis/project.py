"""Per-module symbol summaries: the input to the project call graph.

The whole-project pass (rules RPR008 and RPR010) cannot work from one file
at a time: "is ``np.random`` reachable from ``Mapper.map``" is a
property of the import graph, the class hierarchy, and every call site
in between.  This module extracts ONE compact :class:`ModuleSummary`
per source file — imports (the file's absolute import table, built
once on its :class:`~repro.analysis.context.FileContext` and shared with
the per-file rules), classes with their bases and methods, and one
:class:`FunctionSummary` per module-level function or method recording
its call sites plus the domain facts the graph rules need: module-level
RNG touches and ``dense_CG``/``dense_AG`` call sites.  The RNG facts
match the same name tables as the per-file rules RPR001 and RPR005.

The call graph is built from summaries alone (see
:mod:`repro.analysis.callgraph`), never from the ASTs.

Everything here is stdlib-only and intentionally *conservative*: a call
whose target cannot be resolved syntactically (``getattr`` dispatch,
callables passed as parameters, attribute calls on arbitrary
expressions) is recorded with ``kind="unknown"`` so the graph can count
it in its explicit unknown-callee bucket rather than silently dropping
it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .context import FileContext, dotted_parts, module_name_for
from .rules import is_legacy_rng, is_wall_clock

__all__ = [
    "CallSite",
    "RngCall",
    "DenseCall",
    "FunctionSummary",
    "ClassSummary",
    "ModuleSummary",
    "module_name_for",
    "summarize_module",
    "summarize_source",
]

#: stdlib ``random`` names that do NOT touch the shared module-level
#: stream (explicit instances the caller seeds and owns).
_STDLIB_RANDOM_OK = frozenset({"Random", "SystemRandom"})

#: The densifying MappingProblem methods (RPR010's evidence).
DENSE_METHODS = frozenset({"dense_CG", "dense_AG"})

_FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


# --------------------------------------------------------------------- model


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body.

    ``kind`` is the syntactic shape the resolver dispatches on:

    - ``"name"``      — ``foo(...)``; target ``("foo",)``
    - ``"dotted"``    — ``a.b.c(...)``; target ``("a", "b", "c")``
    - ``"self"``      — ``self.m(...)``; target ``("m",)``
    - ``"cls"``       — ``cls.m(...)``; target ``("m",)``
    - ``"instance"``  — ``Ctor(...).m(...)``; target is the constructor
      chain plus the method name
    - ``"unknown"``   — anything else; target holds a rendered hint
    """

    kind: str
    target: tuple[str, ...]
    line: int
    col: int


@dataclass(frozen=True)
class RngCall:
    """A module-level-RNG touch (the RPR008 evidence).

    ``kind`` is ``"numpy-legacy"`` (``np.random.seed`` and friends),
    ``"stdlib-random"`` (``random.random``/``shuffle``/... on the shared
    module stream) or ``"time-seed"`` (a wall clock flowing into
    ``default_rng``/``as_rng``/a ``seed=`` argument).
    """

    kind: str
    name: str
    line: int
    col: int
    snippet: str


@dataclass(frozen=True)
class DenseCall:
    """A ``.dense_CG()``/``.dense_AG()`` call site (the RPR010 evidence)."""

    name: str
    line: int
    col: int
    snippet: str


@dataclass(frozen=True)
class FunctionSummary:
    """Everything the graph rules need about one function or method."""

    #: In-module qualified name: ``"fn"`` or ``"Class.method"``.
    qualname: str
    line: int
    #: Defining class name when this is a method, else "".
    cls: str
    calls: tuple[CallSite, ...]
    rng_calls: tuple[RngCall, ...]
    dense_calls: tuple[DenseCall, ...]


@dataclass(frozen=True)
class ClassSummary:
    """One class: its bases (as written) and the methods it defines."""

    name: str
    #: Base expressions rendered as dotted strings (``"Mapper"``,
    #: ``"abc.ABC"``); resolved against imports at graph-build time.
    bases: tuple[str, ...]
    methods: tuple[str, ...]


@dataclass
class ModuleSummary:
    """The project-level view of one source file."""

    #: Dotted module name derived from the path (``repro.core.geodist``).
    module: str
    relpath: str
    #: Local name -> absolute dotted import target.
    imports: dict[str, str] = field(default_factory=dict)
    #: In-module qualname -> summary, for every function and method.
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    classes: dict[str, ClassSummary] = field(default_factory=dict)
    #: 1-based line -> suppressed rule ids (graph rules honor these).
    suppressions: dict[int, tuple[str, ...]] = field(default_factory=dict)


# ---------------------------------------------------------------- extraction


class _ModuleSummarizer:
    """Single pass turning one parsed module into a ModuleSummary."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.summary = ModuleSummary(
            module=ctx.module,
            relpath=ctx.relpath,
            imports=ctx.imports,
            suppressions={
                line: tuple(sorted(ids)) for line, ids in ctx.suppressions.items()
            },
        )

    # ------------------------------------------------------------ structure

    def run(self) -> ModuleSummary:
        for node in self.ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.summary.functions[node.name] = self._summarize_function(
                    node, cls=""
                )
            elif isinstance(node, ast.ClassDef):
                self._summarize_class(node)
        return self.summary

    def _summarize_class(self, node: ast.ClassDef) -> None:
        bases: list[str] = []
        for base in node.bases:
            parts = dotted_parts(base)
            if parts is not None:
                bases.append(".".join(parts))
        methods: list[str] = []
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(item.name)
                qual = f"{node.name}.{item.name}"
                self.summary.functions[qual] = self._summarize_function(
                    item, cls=node.name
                )
        self.summary.classes[node.name] = ClassSummary(
            name=node.name, bases=tuple(bases), methods=tuple(methods)
        )

    # ------------------------------------------------------------- functions

    def _summarize_function(self, fn: _FunctionNode, *, cls: str) -> FunctionSummary:
        qual = f"{cls}.{fn.name}" if cls else fn.name
        calls: list[CallSite] = []
        rng_calls: list[RngCall] = []
        dense_calls: list[DenseCall] = []
        ctors = self._local_ctors(fn)
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                calls.append(self._call_site(node, ctors))
                rng = self._rng_call(node)
                if rng is not None:
                    rng_calls.append(rng)
                dense = self._dense_call(node)
                if dense is not None:
                    dense_calls.append(dense)
        return FunctionSummary(
            qualname=qual,
            line=fn.lineno,
            cls=cls,
            calls=tuple(calls),
            rng_calls=tuple(rng_calls),
            dense_calls=tuple(dense_calls),
        )

    @staticmethod
    def _local_ctors(fn: _FunctionNode) -> dict[str, tuple[str, ...]]:
        """Locals bound only by ``name = Ctor(...)`` -> that call's dotted chain.

        So ``ev = CostEvaluator(p); ev.move_delta(...)`` resolves like
        ``CostEvaluator(p).move_delta(...)``.  A name also stored any
        other way, or from two different calls, is left out.
        """
        chains: dict[str, list[tuple[str, ...]]] = {}
        stores: dict[str, int] = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                stores[node.id] = stores.get(node.id, 0) + 1
            elif (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                parts = dotted_parts(node.value.func)
                if parts is not None:
                    chains.setdefault(node.targets[0].id, []).append(parts)
        return {
            name: chain[0]
            for name, chain in chains.items()
            if stores[name] == len(chain) and len(set(chain)) == 1
        }

    # ------------------------------------------------------------ call sites

    def _call_site(
        self, call: ast.Call, ctors: dict[str, tuple[str, ...]]
    ) -> CallSite:
        func = call.func
        line, col = call.lineno, call.col_offset
        if isinstance(func, ast.Name):
            return CallSite("name", (func.id,), line, col)
        if isinstance(func, ast.Attribute):
            parts = dotted_parts(func)
            if parts is not None:
                if parts[0] == "self" and len(parts) == 2:
                    return CallSite("self", (parts[1],), line, col)
                if parts[0] == "cls" and len(parts) == 2:
                    return CallSite("cls", (parts[1],), line, col)
                if parts[0] in ctors and len(parts) == 2:
                    return CallSite("instance", ctors[parts[0]] + (parts[1],), line, col)
                return CallSite("dotted", parts, line, col)
            if isinstance(func.value, ast.Call):
                inner = dotted_parts(func.value.func)
                if inner is not None:
                    return CallSite("instance", inner + (func.attr,), line, col)
            return CallSite("unknown", (func.attr,), line, col)
        return CallSite("unknown", ("<expr>",), line, col)

    # ------------------------------------------------------------ rng facts

    def _rng_call(self, call: ast.Call) -> RngCall | None:
        parts = dotted_parts(call.func)
        name = ".".join(parts) if parts else ""
        absolute = self.ctx.absolute(parts) if parts else None
        if absolute is not None and is_legacy_rng(absolute):
            kind = "numpy-legacy"
        elif (
            absolute is not None
            and len(absolute) == 2
            and absolute[0] == "random"
            and absolute[1] not in _STDLIB_RANDOM_OK
        ):
            kind = "stdlib-random"
        else:
            clock = self._wall_clock_in_seed(call, absolute)
            if clock is None:
                return None
            kind, name = "time-seed", clock
        return RngCall(
            kind, name, call.lineno, call.col_offset, self.ctx.line_text(call.lineno)
        )

    def _wall_clock_call(self, node: ast.expr) -> str | None:
        """Rendered name of a wall-clock call inside ``node``, else None."""
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            parts = dotted_parts(sub.func)
            if parts is not None and is_wall_clock(self.ctx.absolute(parts) or parts):
                return ".".join(parts)
        return None

    def _wall_clock_in_seed(
        self, call: ast.Call, absolute: tuple[str, ...] | None
    ) -> str | None:
        """A wall clock flowing into a seed position of ``call``."""
        is_rng_factory = False
        if absolute is not None and absolute[-1] in ("default_rng", "as_rng"):
            is_rng_factory = True
        parts = dotted_parts(call.func)
        if parts is not None and parts[-1] in ("default_rng", "as_rng"):
            is_rng_factory = True
        seed_exprs: list[ast.expr] = []
        if is_rng_factory:
            seed_exprs.extend(call.args)
        seed_exprs.extend(
            kw.value for kw in call.keywords if kw.arg in ("seed", "random_state")
        )
        for expr in seed_exprs:
            clock = self._wall_clock_call(expr)
            if clock is not None:
                return clock
        return None

    # ---------------------------------------------------------- dense facts

    def _dense_call(self, call: ast.Call) -> DenseCall | None:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in DENSE_METHODS:
            return DenseCall(
                func.attr,
                call.lineno,
                call.col_offset,
                self.ctx.line_text(call.lineno),
            )
        return None


def summarize_module(ctx: FileContext) -> ModuleSummary:
    """Summarize one already-parsed module through its import table."""
    return _ModuleSummarizer(ctx).run()


def summarize_source(source: str, *, relpath: str) -> ModuleSummary:
    """Parse and summarize one in-memory source blob (the test helper)."""
    tree = ast.parse(source, filename=relpath)
    return summarize_module(
        FileContext(relpath=relpath, tree=tree, lines=source.splitlines())
    )
