"""Project-level rules: the RPR008 and RPR010 call-graph rules.

Per-file rules (:mod:`.rules`) see one AST at a time; the rules here see
the whole project — a :class:`ProjectGraph` bundling the module
summaries (:mod:`.project`), the symbol index, and the resolved call
graph (:mod:`.callgraph`).  Both rules walk every function reachable
from one shared list of entry points, :data:`ENTRY_POINTS`, and yield
findings anchored at a source line inside a reachable function.

Rules
-----
RPR008 *unseeded-rng-reachable*
    Functions reachable from the entry points — ``Mapper.map``, the
    ``FaultSchedule`` constructors, the Monte-Carlo samplers, the repair
    entry points, ``Simulator.run`` — must not call module-level
    ``np.random.*``, the stdlib ``random`` module, or seed a generator
    from wall-clock time.  A seeded pipeline that reaches global RNG
    state is only deterministic until somebody imports it twice.

RPR010 *hot-path-dense-reachability*
    ``dense_CG()``/``dense_AG()`` must not be *reachable* from the same
    entry points.  The question is "can a solver, a repair or the
    simulator actually execute this call", not "which file is it in", so
    there is no path allowlist.  Because dense calls are matched on call
    *sites inside reachable functions* (not on resolved edges), an
    unresolvable callee never hides a violation inside a function the
    graph knows runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator, Sequence

from .callgraph import CallGraph, ProjectIndex, build_call_graph
from .findings import Finding
from .project import FunctionSummary, ModuleSummary

__all__ = [
    "ENTRY_POINTS",
    "ProjectGraph",
    "ProjectRule",
    "RPR008UnseededRngReachable",
    "RPR010HotPathDenseReachability",
    "ALL_PROJECT_RULES",
    "default_project_rules",
    "build_project_graph",
]

#: Entry points both graph rules start from: the seeded public API and
#: the simulator.  ``Class.*`` expands to every method the class defines
#: (plus subclass overrides).
ENTRY_POINTS: tuple[str, ...] = (
    "repro.core.mapping.Mapper.map",
    "repro.faults.schedule.FaultSchedule.*",
    "repro.faults.schedule.random_schedule",
    "repro.baselines.montecarlo.sample_assignments",
    "repro.baselines.montecarlo.monte_carlo_costs",
    "repro.baselines.montecarlo.best_of_k_curve",
    "repro.core.repair.repair_mapping",
    "repro.faults.repair.repair_after_faults",
    "repro.simmpi.engine.Simulator.run",
)


@dataclass
class ProjectGraph:
    """Everything a project rule may query: summaries, index, graph."""

    index: ProjectIndex
    graph: CallGraph

    def reachable_from(self, patterns: Sequence[str]) -> frozenset[str]:
        """All graph nodes reachable from the expanded entry patterns."""
        entries: list[str] = []
        for pattern in patterns:
            entries.extend(self.index.expand_entry(pattern))
        return self.graph.reachable(entries)

    def function(self, node: str) -> FunctionSummary | None:
        return self.index.function(node)

    def module_of(self, node: str) -> ModuleSummary | None:
        return self.index.module_of(node)


def build_project_graph(summaries: Iterable[ModuleSummary]) -> ProjectGraph:
    """Index the summaries and resolve the call graph in one step."""
    index = ProjectIndex(summaries)
    return ProjectGraph(index=index, graph=build_call_graph(index))


class ProjectRule:
    """Base class for whole-project rules.

    Unlike :class:`.rules.Rule` (per-node callbacks during a file
    visit), a project rule runs once after every file is summarized and
    walks the :class:`ProjectGraph` from its entry points.  Suppression
    comments are honored by the engine against each finding's module
    summary.
    """

    id: ClassVar[str] = "RPR000"
    name: ClassVar[str] = ""
    rationale: ClassVar[str] = ""

    def __init__(self, entry_points: Sequence[str] | None = None) -> None:
        #: Overridable per instance so tests can point at fixture entries.
        self.entry_points: tuple[str, ...] = (
            ENTRY_POINTS if entry_points is None else tuple(entry_points)
        )

    def check_project(self, project: ProjectGraph) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        *,
        module: ModuleSummary,
        node: str,
        line: int,
        col: int,
        message: str,
        snippet: str,
    ) -> Finding:
        """A finding anchored at a source location inside ``node``."""
        return Finding(
            path=module.relpath,
            line=line,
            col=col,
            rule_id=self.id,
            message=message,
            symbol=_in_module_symbol(module, node),
            snippet=snippet,
        )


def _in_module_symbol(module: ModuleSummary, node: str) -> str:
    """The module-local dotted symbol for a graph node."""
    prefix = module.module + "."
    return node[len(prefix):] if node.startswith(prefix) else node


def _short_entry(pattern: str) -> str:
    """``repro.core.mapping.Mapper.map`` -> ``Mapper.map``: from the class on."""
    parts = pattern.split(".")
    for i, part in enumerate(parts[:-1]):
        if part[:1].isupper():
            return ".".join(parts[i:])
    return parts[-1]


def _iter_reachable(
    project: ProjectGraph, patterns: Sequence[str]
) -> Iterator[tuple[str, FunctionSummary, ModuleSummary]]:
    """Deterministic (node, function, module) triples over a reach set."""
    for node in sorted(project.reachable_from(patterns)):
        fs = project.function(node)
        mod = project.module_of(node)
        if fs is not None and mod is not None:
            yield node, fs, mod


class RPR008UnseededRngReachable(ProjectRule):
    """No module-level / wall-clock RNG reachable from seeded entries."""

    id: ClassVar[str] = "RPR008"
    name: ClassVar[str] = "unseeded-rng-reachable"
    rationale: ClassVar[str] = (
        "Mapper.map, FaultSchedule, the samplers, repair and the simulator "
        "are seeded entry points: every function they can reach must draw "
        "randomness from the passed-in Generator, never from np.random.* "
        "module state, the stdlib random module, or time-derived seeds."
    )

    _MESSAGES: ClassVar[dict[str, str]] = {
        "numpy-legacy": (
            "call to module-level numpy RNG `{name}` is reachable from "
            "seeded entry point(s) — thread the caller's "
            "np.random.Generator through instead"
        ),
        "stdlib-random": (
            "call to stdlib `{name}` is reachable from seeded entry "
            "point(s) — module-level random state breaks run-to-run "
            "determinism; use the passed-in Generator"
        ),
        "time-seed": (
            "generator seeded from wall clock (`{name}`) is reachable "
            "from seeded entry point(s) — a time-derived seed defeats "
            "the deterministic-by-construction contract"
        ),
    }

    def check_project(self, project: ProjectGraph) -> Iterator[Finding]:
        for node, fs, mod in _iter_reachable(project, self.entry_points):
            for rng in fs.rng_calls:
                template = self._MESSAGES.get(rng.kind)
                if template is None:
                    continue
                yield self.finding(
                    module=mod,
                    node=node,
                    line=rng.line,
                    col=rng.col,
                    message=template.format(name=rng.name),
                    snippet=rng.snippet,
                )


class RPR010HotPathDenseReachability(ProjectRule):
    """No dense materialization reachable from the entry points."""

    id: ClassVar[str] = "RPR010"
    name: ClassVar[str] = "hot-path-dense-reachability"
    rationale: ClassVar[str] = (
        "dense_CG()/dense_AG() materialize O(N^2) matrices; no function "
        "reachable from Mapper.map, FaultSchedule, the samplers, repair "
        "or Simulator.run may call them — no allowlist, just: can the "
        "hot path execute this call?"
    )

    def check_project(self, project: ProjectGraph) -> Iterator[Finding]:
        entries = ", ".join(_short_entry(p) for p in self.entry_points)
        for node, fs, mod in _iter_reachable(project, self.entry_points):
            for dense in fs.dense_calls:
                yield self.finding(
                    module=mod,
                    node=node,
                    line=dense.line,
                    col=dense.col,
                    message=(
                        f"`{dense.name}()` is reachable from entry point(s) "
                        f"{entries} — route through the CSR views "
                        "(cg_csr/ag_csr) instead of materializing the dense "
                        "matrix"
                    ),
                    snippet=dense.snippet,
                )


ALL_PROJECT_RULES: tuple[type[ProjectRule], ...] = (
    RPR008UnseededRngReachable,
    RPR010HotPathDenseReachability,
)


def default_project_rules(
    select: Sequence[str] | None = None,
) -> list[ProjectRule]:
    """Instantiate the project rules, optionally filtered by rule id."""
    wanted = None if select is None else {s.upper() for s in select}
    return [
        cls() for cls in ALL_PROJECT_RULES
        if wanted is None or cls.id in wanted
    ]
