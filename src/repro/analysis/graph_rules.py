"""Project-level rules: the RPR008/RPR009/RPR010 graph families.

Per-file rules (:mod:`.rules`) see one AST at a time; the rules here see
the whole project — a :class:`ProjectGraph` bundling the module
summaries (:mod:`.project`), the symbol index, and the resolved call
graph (:mod:`.callgraph`).  Each rule implements ``check_project`` and
yields findings anchored at a source line inside a reachable function.

Rule families
-------------
RPR008 *unseeded-rng-reachable*
    Functions reachable from the seeded public entry points —
    ``Mapper.map``, the ``FaultSchedule`` constructors, the Monte-Carlo
    samplers, the repair entry points — must not call module-level
    ``np.random.*``, the stdlib ``random`` module, or seed a generator
    from wall-clock time.  A seeded pipeline that reaches global RNG
    state is only deterministic until somebody imports it twice.

RPR009 *shared-mutable-capture*
    Workers handed to ``ThreadPoolExecutor.submit``/``map`` must not
    capture mutable state that is also written on the other side of the
    thread boundary: a closure that mutates a captured variable, a
    closure reading a variable the enclosing function keeps rebinding,
    or a method/function worker that writes ``self`` attributes or
    module globals.  This is the race class any thread fan-out (the
    fabric's stdout readers and heartbeat thread included) must stay
    clear of.

RPR010 *hot-path-dense-reachability*
    ``dense_CG()``/``dense_AG()`` must not be *reachable* from
    ``Mapper.map`` or ``Simulator.run``.  This re-founds RPR007 (a path
    allowlist) as call-graph reachability: instead of asking "is this
    file on the hot-path list", it asks "can the hot entry points
    actually execute this call" — no allowlist at all.  Because dense
    calls are matched on call *sites inside reachable functions* (not
    on resolved edges), an unresolvable callee never hides a violation
    inside a function the graph knows runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator, Sequence

from .callgraph import CallGraph, ProjectIndex, build_call_graph
from .findings import Finding
from .project import FunctionSummary, ModuleSummary, SubmitSite

__all__ = [
    "ProjectGraph",
    "ProjectRule",
    "RPR008UnseededRngReachable",
    "RPR009SharedMutableCapture",
    "RPR010HotPathDenseReachability",
    "ALL_PROJECT_RULES",
    "default_project_rules",
    "build_project_graph",
]

#: Entry points whose contract is seeded determinism.  ``Class.*``
#: expands to every method the class defines (plus subclass overrides).
SEEDED_ENTRY_POINTS: tuple[str, ...] = (
    "repro.core.mapping.Mapper.map",
    "repro.faults.schedule.FaultSchedule.*",
    "repro.faults.schedule.random_schedule",
    "repro.baselines.montecarlo.sample_assignments",
    "repro.baselines.montecarlo.monte_carlo_costs",
    "repro.baselines.montecarlo.best_of_k_curve",
    "repro.core.repair.repair_mapping",
    "repro.faults.repair.repair_after_faults",
)

#: Entry points defining the performance hot paths (RPR010).
HOT_PATH_ENTRY_POINTS: tuple[str, ...] = (
    "repro.core.mapping.Mapper.map",
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
    walks the :class:`ProjectGraph`.  Suppression comments are honored
    by the engine against each finding's module summary.
    """

    id: ClassVar[str] = "RPR000"
    name: ClassVar[str] = ""
    rationale: ClassVar[str] = ""

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
        "Mapper.map, FaultSchedule, the samplers and repair are seeded "
        "public entry points: every function they can reach must draw "
        "randomness from the passed-in Generator, never from np.random.* "
        "module state, the stdlib random module, or time-derived seeds."
    )

    def __init__(self, entry_points: Sequence[str] | None = None) -> None:
        #: Overridable per instance so tests can point at fixture entries.
        self.entry_points: tuple[str, ...] = (
            SEEDED_ENTRY_POINTS if entry_points is None else tuple(entry_points)
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


class RPR009SharedMutableCapture(ProjectRule):
    """No shared mutable state across ``executor.submit``/``map``."""

    id: ClassVar[str] = "RPR009"
    name: ClassVar[str] = "shared-mutable-capture"
    rationale: ClassVar[str] = (
        "A worker submitted to a thread pool races with its enclosing "
        "scope when it mutates captured state, reads state the enclosing "
        "function keeps rebinding, or (for method workers) writes self "
        "attributes / module globals.  Aggregate via return values and "
        "futures instead."
    )

    _CAPTURE_MESSAGES: ClassVar[dict[str, str]] = {
        "written-in-worker": (
            "worker submitted to executor mutates captured variable "
            "`{var}` shared with the enclosing scope — return a value "
            "and aggregate over futures instead"
        ),
        "mutated-outside-worker": (
            "worker submitted to executor reads captured variable "
            "`{var}` that the enclosing function keeps mutating — "
            "pass it as an argument at submit time to snapshot it"
        ),
    }

    def check_project(self, project: ProjectGraph) -> Iterator[Finding]:
        for mod in sorted(
            project.index.modules.values(), key=lambda m: m.module
        ):
            for qual in sorted(mod.functions):
                fs = mod.functions[qual]
                caller = f"{mod.module}.{qual}"
                for site in fs.submit_sites:
                    yield from self._check_site(project, mod, caller, fs, site)

    def _check_site(
        self,
        project: ProjectGraph,
        mod: ModuleSummary,
        caller: str,
        fs: FunctionSummary,
        site: SubmitSite,
    ) -> Iterator[Finding]:
        if site.worker_kind == "closure":
            for issue in site.captures:
                template = self._CAPTURE_MESSAGES.get(issue.reason)
                if template is None:
                    continue
                yield self.finding(
                    module=mod,
                    node=caller,
                    line=site.line,
                    col=site.col,
                    message=template.format(var=issue.var),
                    snippet=site.snippet,
                )
            return
        if site.worker_kind in ("self-method", "function"):
            yield from self._check_ref_worker(project, mod, caller, fs, site)

    def _check_ref_worker(
        self,
        project: ProjectGraph,
        mod: ModuleSummary,
        caller: str,
        fs: FunctionSummary,
        site: SubmitSite,
    ) -> Iterator[Finding]:
        """Method/function workers: flag writers of shared state."""
        targets: list[str] = []
        if site.worker_kind == "self-method" and fs.cls:
            targets = project.index.method_targets(
                f"{mod.module}.{fs.cls}", site.worker_ref[-1]
            )
        elif site.worker_kind == "function":
            name = site.worker_ref[0]
            if name in mod.functions:
                targets = [f"{mod.module}.{name}"]
            else:
                imported = mod.imports.get(name)
                if imported is not None:
                    targets = project.index.resolve_symbol(
                        tuple(imported.split("."))
                    )
        for target in targets:
            worker_fs = project.function(target)
            if worker_fs is None:
                continue
            shared = [f"self.{a}" for a in worker_fs.writes_self_attrs]
            shared += [f"global {g}" for g in worker_fs.writes_globals]
            if shared:
                yield self.finding(
                    module=mod,
                    node=caller,
                    line=site.line,
                    col=site.col,
                    message=(
                        f"worker `{site.worker}` submitted to executor "
                        f"writes shared state ({', '.join(sorted(shared))}) "
                        "— concurrent submits race on it; return results "
                        "and merge in the caller"
                    ),
                    snippet=site.snippet,
                )


class RPR010HotPathDenseReachability(ProjectRule):
    """No dense materialization reachable from the hot entry points."""

    id: ClassVar[str] = "RPR010"
    name: ClassVar[str] = "hot-path-dense-reachability"
    rationale: ClassVar[str] = (
        "dense_CG()/dense_AG() materialize O(N^2) matrices; RPR007 "
        "banned them by file path, this rule bans them by call-graph "
        "reachability from Mapper.map and Simulator.run — no allowlist, "
        "just: can the hot path execute this call?"
    )

    def __init__(self, entry_points: Sequence[str] | None = None) -> None:
        self.entry_points: tuple[str, ...] = (
            HOT_PATH_ENTRY_POINTS if entry_points is None else tuple(entry_points)
        )

    def check_project(self, project: ProjectGraph) -> Iterator[Finding]:
        for node, fs, mod in _iter_reachable(project, self.entry_points):
            for dense in fs.dense_calls:
                yield self.finding(
                    module=mod,
                    node=node,
                    line=dense.line,
                    col=dense.col,
                    message=(
                        f"`{dense.name}()` is reachable from hot entry "
                        "point(s) Mapper.map/Simulator.run — route through "
                        "the CSR views (cg_csr/ag_csr) instead of "
                        "materializing the dense matrix"
                    ),
                    snippet=dense.snippet,
                )


ALL_PROJECT_RULES: tuple[type[ProjectRule], ...] = (
    RPR008UnseededRngReachable,
    RPR009SharedMutableCapture,
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
