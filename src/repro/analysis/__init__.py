"""Domain-aware static analysis for the repro mapping stack.

``repro-lint`` (also ``python -m repro.analysis``) runs two stages over
the library and benchmark sources.  Stage 1 is one AST pass per file
with pluggable :class:`~repro.analysis.rules.Rule` objects; stage 2
summarizes every module, resolves a conservative project call graph
(:mod:`~repro.analysis.callgraph`), and runs the two
:class:`~repro.analysis.graph_rules.ProjectRule` rules over it, both from
one entry-point list (``Mapper.map``, the ``FaultSchedule`` constructors,
the Monte-Carlo samplers, the repair entry points and ``Simulator.run``;
:data:`~repro.analysis.graph_rules.ENTRY_POINTS`):

=======  ==========================  ============================================
Rule     Name                        Contract enforced
=======  ==========================  ============================================
RPR001   no-legacy-rng               randomness flows through ``_validation.as_rng``
RPR002   no-frozen-views             no returned/stored views of CG/AG/LT/BT
RPR003   validate-public-entry       entry points validate arrays via ``_validation``
RPR004   no-bare-assert              no ``-O``-strippable invariant checks in src/
RPR005   no-wall-clock               benchmarks time with ``perf_counter`` only
RPR006   no-direct-span              spans come from the ambient recorder
RPR008   unseeded-rng-reachable      no global/wall-clock RNG reachable from
                                     the entry points (graph)
RPR010   hot-path-dense-reachability ``dense_CG``/``dense_AG`` unreachable from
                                     the entry points (graph)
RPR011   no-blocking-call-in-async   ``async def`` bodies in ``repro.serve``
                                     never block the event loop
=======  ==========================  ============================================

Both stages resolve names through one absolute import table per file
(:class:`~repro.analysis.context.FileContext`): plain and aliased
imports, ``import a.b`` (binds ``a``), ``import a.b as c``, from-imports
with or without ``as``, and relative imports climbed from the module's
package.  The per-file rules match the absolute names it gives
(``numpy.random.seed``, ``time.time``, ``repro.obs.Span``,
``subprocess.run``), and the module summaries carry the same table into
the call graph.

Findings can be silenced inline (``# repro-lint: disable=RPR003``,
optionally followed by a reason); anything else fails the run (and CI).
"""

from __future__ import annotations

from .callgraph import CallGraph, ProjectIndex, build_call_graph
from .engine import LintResult, lint_paths, lint_source, lint_sources
from .findings import Finding
from .graph_rules import (
    ALL_PROJECT_RULES,
    ProjectGraph,
    ProjectRule,
    build_project_graph,
    default_project_rules,
)
from .project import ModuleSummary, summarize_source
from .rules import ALL_RULES, Rule, default_rules

__all__ = [
    "ALL_PROJECT_RULES",
    "ALL_RULES",
    "CallGraph",
    "Finding",
    "LintResult",
    "ModuleSummary",
    "ProjectGraph",
    "ProjectIndex",
    "ProjectRule",
    "Rule",
    "build_call_graph",
    "build_project_graph",
    "default_project_rules",
    "default_rules",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "summarize_source",
]
