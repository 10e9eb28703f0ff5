"""Command-line front end: ``repro-lint`` / ``python -m repro.analysis``.

Exit codes: 0 clean (every finding suppressed inline), 1 findings or
unparsable files, 2 usage errors.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from typing import IO

from .engine import LintResult, lint_paths
from .graph_rules import ALL_PROJECT_RULES, ProjectRule, default_project_rules
from .rules import ALL_RULES, Rule, default_rules

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Domain-aware static analysis for the repro mapping stack "
            "(per-file rules RPR001-RPR006 and RPR011, call-graph rules "
            "RPR008 and RPR010)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "benchmarks"],
        help="files or directories to lint (default: src benchmarks)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print call-graph statistics to stderr",
    )
    return parser


def _list_rules(stream: IO[str]) -> None:
    for cls in [*ALL_RULES, *ALL_PROJECT_RULES]:
        stream.write(f"{cls.id}  {cls.name}\n    {cls.rationale}\n")


def _select_rules(
    select: str | None,
) -> tuple[list[Rule], list[ProjectRule]]:
    """Split a ``--select`` list between per-file and project rules.

    Selecting only per-file ids skips the call-graph pass entirely.
    """
    if select is None:
        return default_rules(), default_project_rules()
    wanted = {s.strip().upper() for s in select.split(",") if s.strip()}
    file_ids = {cls.id for cls in ALL_RULES}
    project_ids = {cls.id for cls in ALL_PROJECT_RULES}
    unknown = wanted - file_ids - project_ids
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    file_sel = sorted(wanted & file_ids)
    rules = default_rules(file_sel) if file_sel else []
    return rules, default_project_rules(sorted(wanted & project_ids))


def _report(result: LintResult, stream: IO[str]) -> None:
    """One line per finding and per unparsable file, then a summary."""
    for finding in result.findings:
        stream.write(finding.render() + "\n")
    for relpath, message in sorted(result.errors.items()):
        stream.write(f"{relpath}:1:0: ERROR {message}\n")
    by_rule = Counter(f.rule_id for f in result.findings)
    summary = ", ".join(f"{rule}={count}" for rule, count in sorted(by_rule.items()))
    stream.write(
        f"repro-lint: {result.files_scanned} files, {len(result.findings)} finding(s)"
        + (f" [{summary}]" if summary else "")
        + f", {result.suppressed} suppressed"
        + (f", {len(result.errors)} error(s)" if result.errors else "")
        + "\n"
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        _list_rules(sys.stdout)
        return 0

    try:
        rules, project_rules = _select_rules(args.select)
    except ValueError as exc:
        parser.error(str(exc))

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        parser.error(f"path(s) do not exist: {', '.join(map(str, missing))}")

    result = lint_paths(paths, rules=rules, project_rules=project_rules)
    if args.stats:
        stats = ", ".join(
            f"{key}={value}" for key, value in sorted(result.graph_stats.items())
        )
        sys.stderr.write(f"repro-lint stats: graph[{stats or 'skipped'}]\n")
    _report(result, sys.stdout)
    return 1 if result.findings or result.errors else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
