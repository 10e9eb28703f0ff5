"""Per-module symbol summaries: the input to the project call graph.

The whole-project pass (rules RPR008-RPR010) cannot work from one file
at a time: "is ``np.random`` reachable from ``Mapper.map``" is a
property of the import graph, the class hierarchy, and every call site
in between.  This module extracts ONE compact :class:`ModuleSummary`
per source file — imports (the file's absolute import table, built
once on its :class:`~repro.analysis.context.FileContext` and shared with
the per-file rules), classes with their bases and methods, and one
:class:`FunctionSummary` per module-level function or method recording
its call sites plus the domain facts the graph rules need (module-level
RNG touches, ``dense_CG``/``dense_AG`` call sites, executor ``submit``
sites with captured-variable analysis, global/attribute writes).  The
RNG and dense facts match the same name tables as the per-file rules
RPR001, RPR005 and RPR007.

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
from typing import Iterator

from .context import FileContext, dotted_parts, module_name_for
from .rules import DENSE_METHODS, is_legacy_rng, is_wall_clock

__all__ = [
    "CallSite",
    "RngCall",
    "DenseCall",
    "CaptureIssue",
    "SubmitSite",
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

#: Executor classes whose ``submit``/``map`` fan work out to threads.
_EXECUTOR_CLASSES = frozenset({"ThreadPoolExecutor", "ProcessPoolExecutor"})

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "add",
        "update",
        "insert",
        "remove",
        "pop",
        "popitem",
        "popleft",
        "appendleft",
        "clear",
        "sort",
        "setdefault",
        "discard",
    }
)

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
class CaptureIssue:
    """One captured variable a submitted closure races on.

    ``reason`` is ``"written-in-worker"`` (the worker mutates state it
    captured from the enclosing frame) or ``"mutated-outside-worker"``
    (the worker reads a captured variable the enclosing function keeps
    mutating).
    """

    var: str
    reason: str


@dataclass(frozen=True)
class SubmitSite:
    """One ``executor.submit``/``executor.map`` call (RPR009 evidence).

    ``worker_kind`` records how the submitted callable was analyzed:

    - ``"closure"`` — nested def or lambda; ``captures`` holds the
      racy captured variables found by local analysis
    - ``"self-method"`` — ``self._m`` passed by reference; the graph
      rule checks the resolved method's writes
    - ``"function"`` — a bare name; resolved the same way
    - ``"unknown"`` — a callable the analysis cannot see into (e.g. a
      parameter); counted, never flagged
    """

    line: int
    col: int
    snippet: str
    worker: str
    worker_kind: str
    worker_ref: tuple[str, ...]
    captures: tuple[CaptureIssue, ...]


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
    submit_sites: tuple[SubmitSite, ...]
    #: Module-level names this function rebinds or mutates.
    writes_globals: tuple[str, ...]
    #: ``self.<attr>`` attributes this function rebinds or mutates.
    writes_self_attrs: tuple[str, ...]


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
    #: Names assigned at module level (shared mutable candidates).
    module_names: tuple[str, ...] = ()
    #: 1-based line -> suppressed rule ids (graph rules honor these).
    suppressions: dict[int, tuple[str, ...]] = field(default_factory=dict)


# ----------------------------------------------------------------- utilities


def _iter_non_function_children(node: ast.AST) -> Iterator[ast.AST]:
    """Children of ``node``, not descending into nested function bodies."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _iter_non_function_children(child)


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
        module_names: list[str] = []
        for node in self.ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.summary.functions[node.name] = self._summarize_function(
                    node, cls=""
                )
            elif isinstance(node, ast.ClassDef):
                self._summarize_class(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                module_names.extend(self._assigned_names(node))
        self.summary.module_names = tuple(dict.fromkeys(module_names))
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

    @staticmethod
    def _assigned_names(node: ast.AST) -> list[str]:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        out: list[str] = []
        for t in targets:
            for sub in ast.walk(t):
                if isinstance(sub, ast.Name):
                    out.append(sub.id)
        return out

    # ------------------------------------------------------------- functions

    def _summarize_function(self, fn: _FunctionNode, *, cls: str) -> FunctionSummary:
        qual = f"{cls}.{fn.name}" if cls else fn.name
        locals_ = self._local_bindings(fn)
        calls: list[CallSite] = []
        rng_calls: list[RngCall] = []
        dense_calls: list[DenseCall] = []
        submit_sites: list[SubmitSite] = []
        writes_globals: list[str] = []
        writes_self: list[str] = []

        declared_global: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)

        executors = self._executor_names(fn)
        nested = self._nested_functions(fn)

        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                calls.append(self._call_site(node))
                rng = self._rng_call(node)
                if rng is not None:
                    rng_calls.append(rng)
                dense = self._dense_call(node)
                if dense is not None:
                    dense_calls.append(dense)
                submit = self._submit_site(node, fn, executors, nested, locals_)
                if submit is not None:
                    submit_sites.append(submit)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                self._classify_writes(
                    node, locals_, declared_global, writes_globals, writes_self
                )
        # Mutating method calls on module-level names / self attributes.
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr not in _MUTATORS:
                    continue
                recv = node.func.value
                if isinstance(recv, ast.Name):
                    if recv.id not in locals_ and self._is_module_name(recv.id):
                        writes_globals.append(recv.id)
                elif (
                    isinstance(recv, ast.Attribute)
                    and isinstance(recv.value, ast.Name)
                    and recv.value.id == "self"
                ):
                    writes_self.append(recv.attr)

        return FunctionSummary(
            qualname=qual,
            line=fn.lineno,
            cls=cls,
            calls=tuple(calls),
            rng_calls=tuple(rng_calls),
            dense_calls=tuple(dense_calls),
            submit_sites=tuple(submit_sites),
            writes_globals=tuple(dict.fromkeys(writes_globals)),
            writes_self_attrs=tuple(dict.fromkeys(writes_self)),
        )

    def _is_module_name(self, name: str) -> bool:
        return (
            name in self.summary.module_names
            or name in self.summary.functions
            or name in self.summary.classes
        )

    @staticmethod
    def _local_bindings(fn: _FunctionNode | ast.Lambda) -> set[str]:
        """Names bound inside ``fn`` (params + assignments, own frame only)."""
        out: set[str] = set()
        args = fn.args
        for a in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            out.add(a.arg)
        if isinstance(fn, ast.Lambda):
            return out
        for node in _iter_non_function_children(fn):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.add(node.name)
            elif isinstance(node, ast.Assign):
                for t in node.targets:
                    for sub in ast.walk(t):
                        if isinstance(sub, ast.Name) and isinstance(
                            sub.ctx, ast.Store
                        ):
                            out.add(sub.id)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(node.target, ast.Name):
                    out.add(node.target.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                for sub in ast.walk(node.target):
                    if isinstance(sub, ast.Name):
                        out.add(sub.id)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        for sub in ast.walk(item.optional_vars):
                            if isinstance(sub, ast.Name):
                                out.add(sub.id)
            elif isinstance(node, ast.comprehension):
                for sub in ast.walk(node.target):
                    if isinstance(sub, ast.Name):
                        out.add(sub.id)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                out.add(node.name)
        return out

    # ------------------------------------------------------------ call sites

    def _call_site(self, call: ast.Call) -> CallSite:
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

    # --------------------------------------------------------- submit sites

    def _executor_names(self, fn: _FunctionNode) -> set[str]:
        """Local names bound to a ThreadPoolExecutor-like instance."""
        names: set[str] = set()
        for node in ast.walk(fn):
            value: ast.expr | None = None
            bound: ast.expr | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                bound, value = node.targets[0], node.value
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        if self._is_executor_ctor(item.context_expr):
                            for sub in ast.walk(item.optional_vars):
                                if isinstance(sub, ast.Name):
                                    names.add(sub.id)
                continue
            if (
                bound is not None
                and value is not None
                and isinstance(bound, ast.Name)
                and self._is_executor_ctor(value)
            ):
                names.add(bound.id)
        return names

    @staticmethod
    def _is_executor_ctor(expr: ast.expr) -> bool:
        if not isinstance(expr, ast.Call):
            return False
        parts = dotted_parts(expr.func)
        return parts is not None and parts[-1] in _EXECUTOR_CLASSES

    @staticmethod
    def _nested_functions(fn: _FunctionNode) -> dict[str, _FunctionNode]:
        out: dict[str, _FunctionNode] = {}
        for node in ast.walk(fn):
            if node is fn:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out[node.name] = node
        return out

    def _submit_site(
        self,
        call: ast.Call,
        fn: _FunctionNode,
        executors: set[str],
        nested: dict[str, _FunctionNode],
        fn_locals: set[str],
    ) -> SubmitSite | None:
        func = call.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in ("submit", "map")
            and isinstance(func.value, ast.Name)
            and func.value.id in executors
        ):
            return None
        snippet = self.ctx.line_text(call.lineno)
        # Find the most informative worker among the arguments: a closure
        # or lambda beats a method/function reference beats unknown.
        worker_expr: ast.expr | None = call.args[0] if call.args else None
        best: tuple[str, tuple[str, ...], _FunctionNode | ast.Lambda | None] = (
            "unknown",
            (),
            None,
        )
        for arg in call.args:
            kind, ref, node = self._classify_worker(arg, nested)
            if kind == "closure":
                best = (kind, ref, node)
                break
            if kind in ("self-method", "function") and best[0] == "unknown":
                best = (kind, ref, node)
        worker_kind, worker_ref, worker_node = best
        captures: tuple[CaptureIssue, ...] = ()
        if worker_kind == "closure" and worker_node is not None:
            captures = tuple(
                self._capture_issues(worker_node, fn, fn_locals)
            )
        rendered = (
            ast.unparse(worker_expr)[:60] if worker_expr is not None else "<none>"
        )
        return SubmitSite(
            line=call.lineno,
            col=call.col_offset,
            snippet=snippet,
            worker=rendered,
            worker_kind=worker_kind,
            worker_ref=worker_ref,
            captures=captures,
        )

    def _classify_worker(
        self, arg: ast.expr, nested: dict[str, _FunctionNode]
    ) -> tuple[str, tuple[str, ...], _FunctionNode | ast.Lambda | None]:
        if isinstance(arg, ast.Lambda):
            return "closure", (), arg
        if isinstance(arg, ast.Name):
            if arg.id in nested:
                return "closure", (), nested[arg.id]
            return "function", (arg.id,), None
        if isinstance(arg, ast.Attribute):
            parts = dotted_parts(arg)
            if parts is not None and parts[0] == "self" and len(parts) == 2:
                return "self-method", (parts[1],), None
            if parts is not None:
                return "function", parts, None
        return "unknown", (), None

    def _capture_issues(
        self,
        worker: _FunctionNode | ast.Lambda,
        fn: _FunctionNode,
        fn_locals: set[str],
    ) -> list[CaptureIssue]:
        """Racy captured variables of a closure/lambda worker.

        A capture is flagged when the worker *mutates* state it captured
        from the enclosing frame, or reads a captured variable the
        enclosing function keeps mutating (rebinding more than once,
        augmenting, subscript-storing, or calling a mutator method).
        A single initial binding that the worker only reads is the
        normal fan-out idiom and stays quiet.
        """
        bound = self._local_bindings(worker)
        nonlocal_names: set[str] = set()
        if not isinstance(worker, ast.Lambda):
            for node in ast.walk(worker):
                if isinstance(node, ast.Nonlocal):
                    nonlocal_names.update(node.names)
        reads: set[str] = set()
        worker_mutated: set[str] = set()
        body: tuple[ast.AST, ...] = (
            (worker.body,) if isinstance(worker, ast.Lambda) else tuple(worker.body)
        )
        for top in body:
            for node in ast.walk(top):
                self._scan_var_access(node, bound, nonlocal_names, reads, worker_mutated)
        captured_reads = {v for v in reads if v in fn_locals and v not in bound}
        captured_writes = {
            v for v in worker_mutated if v in fn_locals and (v not in bound or v in nonlocal_names)
        }
        outer_mutated = self._outer_mutations(fn, worker, fn_locals)
        issues = [
            CaptureIssue(var=v, reason="written-in-worker")
            for v in sorted(captured_writes)
        ]
        issues.extend(
            CaptureIssue(var=v, reason="mutated-outside-worker")
            for v in sorted(captured_reads & outer_mutated - captured_writes)
        )
        return issues

    @staticmethod
    def _scan_var_access(
        node: ast.AST,
        bound: set[str],
        nonlocal_names: set[str],
        reads: set[str],
        mutated: set[str],
    ) -> None:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            if node.id in nonlocal_names:
                mutated.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            mutated.add(node.target.id)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name):
                    mutated.add(t.value.id)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            recv = node.func.value
            if node.func.attr in _MUTATORS and isinstance(recv, ast.Name):
                mutated.add(recv.id)

    def _outer_mutations(
        self,
        fn: _FunctionNode,
        worker: _FunctionNode | ast.Lambda,
        fn_locals: set[str],
    ) -> set[str]:
        """fn-local names the enclosing function mutates outside ``worker``."""
        assign_counts: dict[str, int] = {}
        mutated: set[str] = set()
        worker_nodes = set(id(n) for n in ast.walk(worker))
        for node in ast.walk(fn):
            if id(node) in worker_nodes or node is fn:
                continue
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        assign_counts[t.id] = assign_counts.get(t.id, 0) + 1
                    elif isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name):
                        mutated.add(t.value.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                mutated.add(node.target.id)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                recv = node.func.value
                if node.func.attr in _MUTATORS and isinstance(recv, ast.Name):
                    mutated.add(recv.id)
        mutated.update(n for n, c in assign_counts.items() if c > 1)
        return mutated & fn_locals

    # -------------------------------------------------------- write classify

    def _classify_writes(
        self,
        node: ast.Assign | ast.AnnAssign | ast.AugAssign,
        locals_: set[str],
        declared_global: set[str],
        writes_globals: list[str],
        writes_self: list[str],
    ) -> None:
        targets: list[ast.expr]
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        else:
            targets = [node.target]
        for t in targets:
            if isinstance(t, ast.Name):
                if t.id in declared_global:
                    writes_globals.append(t.id)
            elif isinstance(t, ast.Attribute):
                if isinstance(t.value, ast.Name) and t.value.id == "self":
                    writes_self.append(t.attr)
            elif isinstance(t, ast.Subscript):
                base = t.value
                if isinstance(base, ast.Name):
                    if base.id in declared_global or (
                        base.id not in locals_ and self._is_module_name(base.id)
                    ):
                        writes_globals.append(base.id)
                elif (
                    isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id == "self"
                ):
                    writes_self.append(base.attr)
            elif isinstance(t, ast.Tuple):
                for el in t.elts:
                    if isinstance(el, ast.Name) and el.id in declared_global:
                        writes_globals.append(el.id)


def summarize_module(ctx: FileContext) -> ModuleSummary:
    """Summarize one already-parsed module through its import table."""
    return _ModuleSummarizer(ctx).run()


def summarize_source(source: str, *, relpath: str) -> ModuleSummary:
    """Parse and summarize one in-memory source blob (the test helper)."""
    tree = ast.parse(source, filename=relpath)
    return summarize_module(
        FileContext(relpath=relpath, tree=tree, lines=source.splitlines())
    )
