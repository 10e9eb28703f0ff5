"""The domain-specific per-file rule catalog (RPR001-RPR006, RPR011).

Each rule is a small stateless object: it declares the AST node types it
wants to see, and the engine's single visitor pass calls
:meth:`Rule.check` for every matching node in every file the rule
:meth:`Rule.applies_to`.  Rules never walk the tree themselves, so adding
a rule does not add a pass.

Catalog
-------
RPR001  no-legacy-rng
    All randomness must flow through ``repro._validation.as_rng`` / an
    explicit ``numpy.random.Generator``.  The legacy module-level API
    (``np.random.seed``/``rand``/... ) and ``RandomState`` mutate hidden
    global state and break the determinism contract: a seeded result
    must not depend on the process computing it (a forked sweep worker,
    a serve pool worker) or on what ran there before, and geodist's
    memoized and plain order walks must stay bit-identical.

RPR002  no-frozen-views
    Never return or store a subscript view of the frozen problem arrays
    ``CG``/``AG``/``LT``/``BT``.  A caller scaling or zeroing such a view
    corrupts the shared problem instance (as a cost-row reader that once
    handed out views of ``CG`` rows did); take ``.copy()`` or
    materialize with ``np.array``.

RPR003  validate-public-entry
    Public entry points in ``core/``, ``cloud/``, ``baselines/`` and
    ``apps/`` that accept array-like arguments must validate them through
    the ``repro._validation`` helpers (or a ``_check_*`` delegate) before
    use, so errors name the argument instead of surfacing as shape
    explosions three frames deep.

RPR004  no-bare-assert
    ``assert`` compiles away under ``python -O``; runtime invariants in
    library code must raise an explicit exception.

RPR005  no-wall-clock
    Benchmarks must time with ``time.perf_counter`` (monotonic, highest
    resolution); ``time.time``/``datetime.now`` are wall clocks subject
    to NTP slew and give garbage deltas in hot loops.

RPR006  no-direct-span-construction
    Library code outside ``repro.obs`` must never build ``Span`` /
    ``SpanEvent`` objects directly: hand-built spans bypass the recorder
    (no parent attachment, no clock, no NULL fast path) and silently
    diverge from the trace schema.  Create spans via the recorder API —
    ``get_recorder().span(...)`` / ``SpanRecorder`` — as
    ``Simulator.run`` opens its ``simulate.run`` span.

RPR011  no-blocking-call-in-async
    ``async def`` bodies in ``repro.serve`` must never block the event
    loop: no ``time.sleep`` (use ``asyncio.sleep``), no synchronous
    ``open()``/socket I/O/``subprocess``, and no direct solver calls
    (``.map()`` / ``.repair()`` — route them through the engine's
    executor).  One stalled handler freezes every connection the daemon
    is serving.

(RPR008 and RPR010 are project-pass rules over the call graph; see
:mod:`repro.analysis.graph_rules`.)
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import ClassVar

from .context import FileContext
from .findings import Finding

__all__ = [
    "Rule",
    "NoLegacyRngRule",
    "NoFrozenViewRule",
    "ValidatePublicEntryRule",
    "NoBareAssertRule",
    "NoWallClockRule",
    "NoDirectSpanConstructionRule",
    "NoBlockingCallInAsyncRule",
    "ALL_RULES",
    "NEW_RNG_API",
    "WALL_CLOCKS",
    "default_rules",
    "is_legacy_rng",
    "is_wall_clock",
]


class Rule:
    """Base class for one pluggable lint rule."""

    id: ClassVar[str] = "RPR000"
    name: ClassVar[str] = "abstract-rule"
    rationale: ClassVar[str] = ""
    #: AST node types the engine should dispatch to this rule.
    node_types: ClassVar[tuple[type[ast.AST], ...]] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether this rule runs on the given file at all."""
        return True

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one dispatched node."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for subclass typing

    def finding(self, node: ast.AST, ctx: FileContext, message: str) -> Finding:
        """Build a Finding anchored at ``node`` in ``ctx``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=ctx.relpath,
            line=line,
            col=col,
            rule_id=self.id,
            message=message,
            symbol=ctx.symbol,
            snippet=ctx.line_text(line),
        )


# --------------------------------------------------------------------- RPR001

#: numpy.random attributes belonging to the *new* Generator API (safe to
#: reference anywhere); everything else on the module is hidden global
#: state.  RPR001 flags the rest per file; the summarizer records them as
#: RPR008's ``numpy-legacy`` evidence.
NEW_RNG_API = frozenset(
    {
        "Generator",
        "default_rng",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)


def is_legacy_rng(target: tuple[str, ...]) -> bool:
    """True for an absolute ``numpy.random.X`` outside the Generator API."""
    return len(target) == 3 and target[:2] == ("numpy", "random") and target[2] not in NEW_RNG_API


class NoLegacyRngRule(Rule):
    """RPR001: ban the legacy global-state numpy RNG API."""

    id = "RPR001"
    name = "no-legacy-rng"
    rationale = (
        "all randomness must flow through _validation.as_rng / an explicit "
        "numpy.random.Generator so a seeded result is the same in any process "
        "and after any earlier call"
    )
    node_types = (ast.Attribute, ast.ImportFrom)

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if isinstance(node, ast.ImportFrom):
            for target in ctx.from_import_targets(node):
                if is_legacy_rng(target):
                    yield self.finding(
                        node,
                        ctx,
                        f"legacy RNG import {'.'.join(target)}; use "
                        "_validation.as_rng / numpy.random.Generator",
                    )
            return
        assert isinstance(node, ast.Attribute)  # repro-lint: disable=RPR004
        target = ctx.resolve(node)
        if target is not None and is_legacy_rng(target):
            yield self.finding(
                node,
                ctx,
                f"legacy RNG call {'.'.join(target)}; use _validation.as_rng / "
                "an explicit numpy.random.Generator parameter",
            )


# --------------------------------------------------------------------- RPR002

#: Attribute names holding frozen problem arrays.
_FROZEN_ATTRS = frozenset({"CG", "AG", "LT", "BT"})

#: Method calls that materialize an owned array from a view.
_COPYING_METHODS = frozenset({"copy", "toarray", "todense", "astype"})

#: numpy module-level constructors that copy their input by default.
_COPYING_FUNCS = frozenset({("numpy", "array")})


class NoFrozenViewRule(Rule):
    """RPR002: never return or store a subscript view of CG/AG/LT/BT."""

    id = "RPR002"
    name = "no-frozen-views"
    rationale = (
        "subscripts of the frozen problem matrices are live views; returning or "
        "storing one lets callers corrupt shared state, as a row reader that "
        "returned views of CG rows once did"
    )
    node_types = (ast.Return, ast.Assign, ast.AnnAssign)

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_src

    def _is_frozen_subscript(self, node: ast.expr, ctx: FileContext) -> str | None:
        """Name of the frozen attr if ``node`` is ``<expr>.CG[...]`` etc."""
        if not isinstance(node, ast.Subscript):
            return None
        base = node.value
        if isinstance(base, ast.Attribute) and base.attr in _FROZEN_ATTRS:
            return base.attr
        return None

    def _is_sanctioned(self, node: ast.expr, ctx: FileContext) -> bool:
        """True for ``view.copy()`` / ``np.array(view)`` style wrappers."""
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _COPYING_METHODS:
            return True
        return ctx.resolve(func) in _COPYING_FUNCS

    def _offending_exprs(self, value: ast.expr, ctx: FileContext) -> Iterator[tuple[str, ast.expr]]:
        exprs = value.elts if isinstance(value, ast.Tuple) else [value]
        for expr in exprs:
            if self._is_sanctioned(expr, ctx):
                continue
            attr = self._is_frozen_subscript(expr, ctx)
            if attr is not None:
                yield attr, expr

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if isinstance(node, ast.Return):
            if node.value is None:
                return
            for attr, expr in self._offending_exprs(node.value, ctx):
                yield self.finding(
                    node,
                    ctx,
                    f"returning a live view of frozen array {attr}; take .copy() "
                    "(or materialize with np.array) before returning",
                )
            return
        targets: list[ast.expr]
        value: ast.expr | None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        else:
            assign = node
            assert isinstance(assign, ast.AnnAssign)  # repro-lint: disable=RPR004
            targets, value = [assign.target], assign.value
        if value is None:
            return
        # Only attribute targets (``self.x = ...``) persist beyond the local
        # frame; plain local aliasing of a view is a normal numpy idiom.
        if not any(isinstance(t, ast.Attribute) for t in targets):
            return
        for attr, expr in self._offending_exprs(value, ctx):
            yield self.finding(
                node,
                ctx,
                f"storing a live view of frozen array {attr} on an attribute; "
                "take .copy() (or materialize with np.array) before storing",
            )


# --------------------------------------------------------------------- RPR003

#: Packages whose public module-level functions are entry points.
_ENTRY_PACKAGES = ("core", "cloud", "baselines", "apps")

#: Parameter names that conventionally carry arrays in this codebase.
_ARRAY_PARAM_NAMES = frozenset(
    {
        "P",
        "Ps",
        "CG",
        "AG",
        "LT",
        "BT",
        "vec",
        "matrix",
        "mat",
        "arr",
        "costs",
        "values",
        "ks",
        "labels",
        "sizes",
        "weights",
        "capacities",
        "constraints",
        "coordinates",
        "mapping",
        "data",
    }
)

#: Annotation substrings that mark a parameter as array-like.
_ARRAY_ANNOTATIONS = ("ndarray", "NDArray", "ArrayLike", "csr_matrix", "spmatrix")

#: Call names recognized as validation (``repro._validation`` helpers plus
#: module-private ``_check_*`` delegates).
_VALIDATION_PREFIXES = ("check_", "_check")
_VALIDATION_NAMES = frozenset({"as_rng"})


class ValidatePublicEntryRule(Rule):
    """RPR003: public entry points must validate array args eagerly."""

    id = "RPR003"
    name = "validate-public-entry"
    rationale = (
        "entry points validating via repro._validation raise errors that name "
        "the argument instead of failing as shape errors deep in the kernels"
    )
    node_types = (ast.FunctionDef,)

    def applies_to(self, ctx: FileContext) -> bool:
        parts = ctx.relpath.split("/")
        return ctx.in_src and any(pkg in parts for pkg in _ENTRY_PACKAGES)

    def _array_params(self, fn: ast.FunctionDef) -> list[str]:
        args = list(fn.args.posonlyargs) + list(fn.args.args) + list(fn.args.kwonlyargs)
        hits: list[str] = []
        for arg in args:
            if arg.arg in ("self", "cls"):
                continue
            if arg.arg in _ARRAY_PARAM_NAMES:
                hits.append(arg.arg)
                continue
            if arg.annotation is not None:
                text = ast.unparse(arg.annotation)
                if any(marker in text for marker in _ARRAY_ANNOTATIONS):
                    hits.append(arg.arg)
        return hits

    def _calls_validation(self, fn: ast.FunctionDef) -> bool:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None
            )
            if name is None:
                continue
            if name in _VALIDATION_NAMES or name.startswith(_VALIDATION_PREFIXES):
                return True
        return False

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        fn = node
        assert isinstance(fn, ast.FunctionDef)  # repro-lint: disable=RPR004
        # Module-level public functions only: ctx.scope already contains the
        # function's own name when this fires (the engine pushes before
        # dispatch), so depth 1 == module level.
        if len(ctx.scope) != 1 or fn.name.startswith("_"):
            return
        array_params = self._array_params(fn)
        if not array_params:
            return
        if self._calls_validation(fn):
            return
        yield self.finding(
            fn,
            ctx,
            f"public entry point {fn.name}() takes array argument(s) "
            f"{', '.join(array_params)} but never calls a repro._validation "
            "helper (check_* / as_rng)",
        )


# --------------------------------------------------------------------- RPR004


class NoBareAssertRule(Rule):
    """RPR004: no ``assert`` for runtime invariants in library code."""

    id = "RPR004"
    name = "no-bare-assert"
    rationale = "assert statements are stripped under python -O; raise explicitly"
    node_types = (ast.Assert,)

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_src

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        yield self.finding(
            node,
            ctx,
            "bare assert is stripped under python -O; raise RuntimeError/"
            "ValueError explicitly for runtime invariants",
        )


# --------------------------------------------------------------------- RPR005

#: Wall clocks, as the last two parts of an absolute dotted name
#: (``time.time``, ``datetime.datetime.now``, ``datetime.date.today``).
#: RPR005 bans calling them in benchmarks; the summarizer records one
#: flowing into an RNG seed as RPR008's ``time-seed`` evidence.
WALL_CLOCKS = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "clock"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
    }
)


def is_wall_clock(target: tuple[str, ...]) -> bool:
    """True when a dotted name ends in a :data:`WALL_CLOCKS` pair."""
    return target[-2:] in WALL_CLOCKS


class NoWallClockRule(Rule):
    """RPR005: benchmarks must use perf_counter, not wall clocks."""

    id = "RPR005"
    name = "no-wall-clock"
    rationale = (
        "time.time()/datetime.now() are NTP-adjusted wall clocks; benchmark "
        "deltas must come from time.perf_counter()"
    )
    node_types = (ast.Call, ast.ImportFrom)

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_benchmarks

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if isinstance(node, ast.ImportFrom):
            for target in ctx.from_import_targets(node):
                if is_wall_clock(target):
                    yield self.finding(
                        node,
                        ctx,
                        f"importing wall-clock {'.'.join(target)} in a "
                        "benchmark; use time.perf_counter",
                    )
            return
        call = node
        assert isinstance(call, ast.Call)  # repro-lint: disable=RPR004
        target = ctx.resolve(call.func)
        if target is not None and is_wall_clock(target):
            yield self.finding(
                call,
                ctx,
                f"wall-clock {'.'.join(target)}() in a benchmark; "
                "use time.perf_counter()",
            )


# --------------------------------------------------------------------- RPR006

#: Span dataclasses that must only be built by the repro.obs recorder.
_SPAN_TYPES = frozenset({"Span", "SpanEvent"})


class NoDirectSpanConstructionRule(Rule):
    """RPR006: spans outside repro.obs must come from the recorder API."""

    id = "RPR006"
    name = "no-direct-span-construction"
    rationale = (
        "hand-built Span/SpanEvent objects bypass the recorder (no parent "
        "attachment, no clock, no NULL fast path); use get_recorder().span() "
        "/ SpanRecorder instead"
    )
    node_types = (ast.Call,)

    def applies_to(self, ctx: FileContext) -> bool:
        # repro.obs itself (spans.py, recorder.py, ...) is the one place
        # allowed to construct these types.
        parts = Path(ctx.relpath).parts
        return ctx.in_src and "obs" not in parts

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        call = node
        assert isinstance(call, ast.Call)  # repro-lint: disable=RPR004
        # ``repro.obs.Span``, ``repro.obs.spans.SpanEvent``, ...: however
        # the module or the class was imported.
        target = ctx.resolve(call.func)
        if target is not None and target[:2] == ("repro", "obs") and target[-1] in _SPAN_TYPES:
            yield self.finding(
                call,
                ctx,
                f"direct construction of repro.obs {target[-1]}; spans must "
                "be created via the recorder API (get_recorder().span() / "
                "SpanRecorder)",
            )


# --------------------------------------------------------------------- RPR011

#: Socket/file methods that block the calling thread until I/O completes.
_BLOCKING_IO_METHODS = frozenset(
    {"recv", "recvfrom", "recv_into", "accept", "connect", "sendall"}
)

#: Solver entry points that must run on the executor, never the loop.
_SOLVER_METHODS = frozenset({"map", "repair"})


class NoBlockingCallInAsyncRule(Rule):
    """RPR011: ``async def`` bodies in repro.serve must never block."""

    id = "RPR011"
    name = "no-blocking-call-in-async"
    rationale = (
        "a blocking call in an async handler stalls the whole event loop — "
        "every connection the daemon is serving, not just the offender; "
        "sleep with asyncio.sleep, do I/O through the stream APIs, and run "
        "solvers on the executor"
    )
    node_types = (ast.Call,)

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_src and "serve" in Path(ctx.relpath).parts

    def _blocking_reason(self, call: ast.Call, ctx: FileContext) -> str | None:
        func = call.func
        if isinstance(func, ast.Name) and func.id == "open":
            return "synchronous open() blocks the event loop; do file I/O off-loop"
        target = ctx.resolve(func)
        if target == ("time", "sleep"):
            return "time.sleep() stalls the event loop; use asyncio.sleep()"
        if target is not None and target[0] == "subprocess":
            return (
                f"{'.'.join(target)}() blocks on the child process; use "
                "asyncio.create_subprocess_exec()"
            )
        if isinstance(func, ast.Attribute):
            if func.attr in _SOLVER_METHODS:
                return (
                    f"direct solver call .{func.attr}() on the event loop; "
                    "route the solve through the engine's executor"
                )
            if func.attr in _BLOCKING_IO_METHODS:
                return (
                    f"blocking socket call .{func.attr}() in an async body; "
                    "use the asyncio stream APIs"
                )
        return None

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_async:
            return
        call = node
        assert isinstance(call, ast.Call)  # repro-lint: disable=RPR004
        reason = self._blocking_reason(call, ctx)
        if reason is not None:
            yield self.finding(call, ctx, reason)


ALL_RULES: tuple[type[Rule], ...] = (
    NoLegacyRngRule,
    NoFrozenViewRule,
    ValidatePublicEntryRule,
    NoBareAssertRule,
    NoWallClockRule,
    NoDirectSpanConstructionRule,
    NoBlockingCallInAsyncRule,
)


def default_rules(select: Iterable[str] | None = None) -> list[Rule]:
    """Instantiate the rule catalog, optionally filtered by rule id."""
    wanted = None if select is None else {s.strip().upper() for s in select}
    rules = [cls() for cls in ALL_RULES]
    if wanted is not None:
        unknown = wanted - {r.id for r in rules}
        if unknown:
            raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
        rules = [r for r in rules if r.id in wanted]
    return rules
