"""Finding model shared by the rules, the engine, and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Attributes
    ----------
    path:
        Repo-relative POSIX path of the offending file.
    line:
        1-based line of the offending node.
    col:
        0-based column of the offending node.
    rule_id:
        ``RPRxxx`` identifier of the rule that fired.
    message:
        Human-readable description of the violation.
    symbol:
        Dotted path of the enclosing class/function scope (empty string at
        module level).
    snippet:
        The stripped source line the finding points at.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    symbol: str = ""
    snippet: str = field(default="", compare=False)

    def render(self) -> str:
        """``path:line:col: RPRxxx message`` — the text-report line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"
