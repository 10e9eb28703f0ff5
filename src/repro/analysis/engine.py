"""The lint engine: per-file pass, then project pass.

Stage 1 (per file) — parsing, the file's absolute import table
(:class:`~.context.FileContext`), and one recursive AST visit per file;
per-file rules are dispatched by node type from a table built once per
file (so a rule that does not apply costs nothing there) and match
names through that table.  The same context also produces the file's
:class:`~.project.ModuleSummary` for stage 2, so both stages resolve
imports (plain, aliased, dotted, from-imports and relative imports)
through one table.

Stage 2 (project) — the module summaries are indexed into a
call graph (:mod:`.callgraph`) and the project rules
(:mod:`.graph_rules`: RPR008/009/010) run over it.

:func:`lint_sources` is the one engine path; :func:`lint_paths` reads
files from disk into it and :func:`lint_source` lints a single blob.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .callgraph import CallGraph
from .context import FileContext, parse_suppressions
from .findings import Finding
from .graph_rules import ProjectRule, build_project_graph, default_project_rules
from .project import ModuleSummary, summarize_module
from .rules import Rule, default_rules

__all__ = [
    "LintResult",
    "lint_paths",
    "lint_source",
    "lint_sources",
]

#: Directory names never descended into during discovery.
_SKIP_DIRS = frozenset({".git", "__pycache__", ".venv", "node_modules", "build", "dist"})


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_scanned: int = 0
    #: path -> error message for files that could not be read or parsed.
    errors: dict[str, str] = field(default_factory=dict)
    #: Call-graph statistics from the project pass (empty when skipped):
    #: ``modules`` / ``nodes`` / ``edges`` / ``unknown`` / ``external``.
    graph_stats: dict[str, int] = field(default_factory=dict)

    def extend(self, other: "LintResult") -> None:
        """Merge another result into this one."""
        self.findings.extend(other.findings)
        self.suppressed += other.suppressed
        self.files_scanned += other.files_scanned
        self.errors.update(other.errors)


class _Visitor:
    """One recursive pass dispatching nodes to interested rules."""

    def __init__(self, ctx: FileContext, rules: Sequence[Rule]) -> None:
        self.ctx = ctx
        self.result = LintResult(files_scanned=1)
        # Dispatch table: node type -> rules wanting it (built per file so a
        # rule skipped by applies_to() costs nothing during the walk).
        self.table: dict[type[ast.AST], list[Rule]] = {}
        for rule in rules:
            if not rule.applies_to(ctx):
                continue
            for node_type in rule.node_types:
                self.table.setdefault(node_type, []).append(rule)

    def run(self) -> LintResult:
        self._visit(self.ctx.tree)
        self.result.findings.sort()
        return self.result

    def _dispatch(self, node: ast.AST) -> None:
        for rule in self.table.get(type(node), ()):
            for finding in rule.check(node, self.ctx):
                if self.ctx.is_suppressed(finding.rule_id, finding.line):
                    self.result.suppressed += 1
                else:
                    self.result.findings.append(finding)

    def _visit(self, node: ast.AST) -> None:
        scoped = isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
        # Functions (and lambdas) also push their kind so rules can ask
        # ctx.in_async; a sync def nested in an async def correctly
        # reports False, and lambda bodies are never "in" their definer.
        func = isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        )
        if scoped:
            self.ctx.scope.append(getattr(node, "name", "<anon>"))
        if func:
            self.ctx.func_kinds.append(isinstance(node, ast.AsyncFunctionDef))
        try:
            self._dispatch(node)
            for child in ast.iter_child_nodes(node):
                self._visit(child)
        finally:
            if scoped:
                self.ctx.scope.pop()
            if func:
                self.ctx.func_kinds.pop()


def _relpath(path: Path, root: Path) -> str:
    """Repo-relative POSIX path when possible, absolute otherwise."""
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.resolve().as_posix()


def _scan_source(
    source: str, *, relpath: str, rules: Sequence[Rule]
) -> tuple[LintResult, ModuleSummary | None]:
    """Parse once; run the per-file pass and summarize the module."""
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        result = LintResult(files_scanned=1)
        result.errors[relpath] = f"syntax error: {exc.msg} (line {exc.lineno})"
        return result, None
    lines = source.splitlines()
    ctx = FileContext(
        relpath=relpath, tree=tree, lines=lines, suppressions=parse_suppressions(lines)
    )
    result = _Visitor(ctx, rules).run()
    return result, summarize_module(ctx)


def discover(paths: Iterable[Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    seen: set[Path] = set()
    for entry in paths:
        if entry.is_dir():
            for candidate in sorted(entry.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in candidate.parts):
                    seen.add(candidate.resolve())
        elif entry.suffix == ".py":
            seen.add(entry.resolve())
    return sorted(seen)


def _is_graph_suppressed(
    summary: ModuleSummary | None, finding: Finding
) -> bool:
    """Honor ``# repro-lint: disable=`` comments for graph findings."""
    if summary is None:
        return False
    ids = summary.suppressions.get(finding.line)
    if ids is None:
        return False
    return "ALL" in ids or finding.rule_id.upper() in ids


def _run_project_pass(
    summaries: Sequence[ModuleSummary],
    project_rules: Sequence[ProjectRule],
) -> tuple[list[Finding], int, dict[str, int]]:
    """Stage 2: graph build + project rules over the summaries."""
    project = build_project_graph(summaries)
    by_relpath = {s.relpath: s for s in summaries}
    findings: list[Finding] = []
    suppressed = 0
    for rule in project_rules:
        for finding in rule.check_project(project):
            if _is_graph_suppressed(by_relpath.get(finding.path), finding):
                suppressed += 1
            else:
                findings.append(finding)
    graph: CallGraph = project.graph
    stats = {
        "modules": len(project.index.modules),
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "unknown": graph.num_unknown,
        "external": graph.external_calls,
    }
    return findings, suppressed, stats


def lint_sources(
    files: dict[str, str],
    *,
    rules: Sequence[Rule] | None = None,
    project_rules: Sequence[ProjectRule] | None = None,
) -> LintResult:
    """Lint a set of in-memory modules *as a project*.

    ``files`` maps relpaths (``"src/pkg/mod.py"``) to source text; the
    call graph resolves across them exactly as it would on disk.
    """
    active = list(default_rules()) if rules is None else list(rules)
    graph_rules = (
        default_project_rules() if project_rules is None else list(project_rules)
    )
    total = LintResult()
    summaries: list[ModuleSummary] = []
    for relpath in sorted(files):
        result, summary = _scan_source(files[relpath], relpath=relpath, rules=active)
        total.extend(result)
        if summary is not None:
            summaries.append(summary)
    if graph_rules:
        graph_findings, graph_suppressed, stats = _run_project_pass(
            summaries, graph_rules
        )
        total.findings.extend(graph_findings)
        total.suppressed += graph_suppressed
        total.graph_stats = stats
    total.findings.sort()
    return total


def lint_source(
    source: str, *, relpath: str, rules: Sequence[Rule] | None = None
) -> LintResult:
    """Lint one in-memory source blob with the per-file rules only."""
    return lint_sources({relpath: source}, rules=rules, project_rules=())


def lint_paths(
    paths: Sequence[Path],
    *,
    root: Path | None = None,
    rules: Sequence[Rule] | None = None,
    project_rules: Sequence[ProjectRule] | None = None,
) -> LintResult:
    """Lint every ``.py`` file under ``paths``; the public library entry.

    Files are named by their path relative to ``root`` (default: the
    current directory).  An unreadable file is reported as an error.
    """
    base = Path.cwd() if root is None else root
    sources: dict[str, str] = {}
    unreadable: dict[str, str] = {}
    for path in discover(paths):
        relpath = _relpath(path, base)
        try:
            sources[relpath] = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            unreadable[relpath] = str(exc)
    result = lint_sources(sources, rules=rules, project_rules=project_rules)
    result.files_scanned += len(unreadable)
    result.errors.update(unreadable)
    return result
