"""Call-graph builder semantics: resolution, cycles, conservatism."""

import functools
import importlib
import textwrap
from pathlib import Path

import pytest

from repro.analysis.callgraph import ProjectIndex, build_call_graph
from repro.analysis.project import module_name_for, summarize_source


def summarize(files):
    return [
        summarize_source(textwrap.dedent(src), relpath=relpath)
        for relpath, src in sorted(files.items())
    ]


def graph_for(files):
    index = ProjectIndex(summarize(files))
    return index, build_call_graph(index)


# ------------------------------------------------------------ module naming


def test_module_name_strips_src_and_init():
    assert module_name_for("src/repro/core/geodist.py") == "repro.core.geodist"
    assert module_name_for("src/repro/core/__init__.py") == "repro.core"
    assert module_name_for("benchmarks/bench_x.py") == "benchmarks.bench_x"


# --------------------------------------------------------------- resolution


def test_same_module_name_call_resolves():
    _, graph = graph_for(
        {
            "src/pkg/a.py": """
            def helper():
                return 1

            def entry():
                return helper()
            """,
        }
    )
    assert graph.edges["pkg.a.entry"] == ("pkg.a.helper",)


def test_from_import_and_module_attribute_calls_resolve():
    _, graph = graph_for(
        {
            "src/pkg/a.py": """
            from pkg.b import helper
            from pkg import b

            def direct():
                return helper()

            def dotted():
                return b.helper()
            """,
            "src/pkg/b.py": """
            def helper():
                return 1
            """,
        }
    )
    assert graph.edges["pkg.a.direct"] == ("pkg.b.helper",)
    assert graph.edges["pkg.a.dotted"] == ("pkg.b.helper",)


def test_relative_import_resolves():
    _, graph = graph_for(
        {
            "src/pkg/sub/a.py": """
            from ..core import helper

            def entry():
                return helper()
            """,
            "src/pkg/core.py": """
            def helper():
                return 1
            """,
        }
    )
    assert graph.edges["pkg.sub.a.entry"] == ("pkg.core.helper",)


def test_reexport_through_package_init_resolves():
    _, graph = graph_for(
        {
            "src/pkg/__init__.py": """
            from .impl import helper
            """,
            "src/pkg/impl.py": """
            def helper():
                return 1
            """,
            "src/other/user.py": """
            from pkg import helper

            def entry():
                return helper()
            """,
        }
    )
    assert graph.edges["other.user.entry"] == ("pkg.impl.helper",)


def test_constructor_call_resolves_to_init():
    _, graph = graph_for(
        {
            "src/pkg/a.py": """
            class Widget:
                def __init__(self):
                    self.n = 0

            def make():
                return Widget()
            """,
        }
    )
    assert graph.edges["pkg.a.make"] == ("pkg.a.Widget.__init__",)


# ----------------------------------------------------------------- methods


METHOD_FILES = {
    "src/pkg/base.py": """
    class Mapper:
        def map(self, problem):
            return self._solve(problem)

        def _solve(self, problem):
            raise NotImplementedError
    """,
    "src/pkg/impl.py": """
    from pkg.base import Mapper

    class FastMapper(Mapper):
        def _solve(self, problem):
            return 1

    class SlowMapper(FastMapper):
        def _solve(self, problem):
            return 2
    """,
}


def test_self_call_dispatches_to_all_subclass_overrides():
    _, graph = graph_for(METHOD_FILES)
    assert set(graph.edges["pkg.base.Mapper.map"]) == {
        "pkg.base.Mapper._solve",
        "pkg.impl.FastMapper._solve",
        "pkg.impl.SlowMapper._solve",
    }


def test_inherited_method_resolves_up_the_mro():
    index, _ = graph_for(METHOD_FILES)
    # FastMapper does not define map; the nearest definition is Mapper's.
    assert index.method_node("pkg.impl.FastMapper", "map") == "pkg.base.Mapper.map"


def test_entry_pattern_expansion():
    index, _ = graph_for(METHOD_FILES)
    assert index.expand_entry("pkg.base.Mapper.map") == ["pkg.base.Mapper.map"]
    star = set(index.expand_entry("pkg.base.Mapper.*"))
    assert "pkg.base.Mapper.map" in star
    # ``.*`` picks up subclass overrides of the class's own methods too.
    assert "pkg.impl.FastMapper._solve" in star
    assert index.expand_entry("pkg.nope.Missing.*") == []


def test_instance_method_call_resolves_constructor_chain():
    _, graph = graph_for(
        {
            "src/pkg/a.py": """
            from pkg.impl import FastMapper

            def entry(problem):
                return FastMapper().map(problem)
            """,
            **METHOD_FILES,
        }
    )
    # Dispatch is conservative: nearest def plus subclass overrides.
    assert "pkg.base.Mapper.map" in graph.edges["pkg.a.entry"]


def test_method_call_on_constructed_local_resolves_like_instance_call():
    _, graph = graph_for(
        {
            "src/pkg/a.py": """
            from pkg.impl import FastMapper

            def entry(problem):
                mapper = FastMapper()
                return mapper.map(problem)

            def rebound(problem, other):
                mapper = FastMapper()
                if problem:
                    mapper = other
                return mapper.map(problem)
            """,
            **METHOD_FILES,
        }
    )
    assert "pkg.base.Mapper.map" in graph.edges["pkg.a.entry"]
    # A local also bound some other way is not guessed at.
    assert "pkg.base.Mapper.map" not in graph.edges["pkg.a.rebound"]
    assert "dotted:mapper.map" in graph.unknown["pkg.a.rebound"]


# ------------------------------------------------------------------- cycles


def test_cycles_terminate_and_stay_reachable():
    _, graph = graph_for(
        {
            "src/pkg/a.py": """
            from pkg.b import pong

            def ping(n):
                return pong(n - 1)
            """,
            "src/pkg/b.py": """
            from pkg.a import ping

            def pong(n):
                return ping(n - 1)
            """,
        }
    )
    reach = graph.reachable(["pkg.a.ping"])
    assert reach == frozenset({"pkg.a.ping", "pkg.b.pong"})


def test_recursive_function_is_reachable_once():
    _, graph = graph_for(
        {
            "src/pkg/a.py": """
            def fact(n):
                return 1 if n <= 1 else n * fact(n - 1)
            """,
        }
    )
    assert graph.reachable(["pkg.a.fact"]) == frozenset({"pkg.a.fact"})


def test_inheritance_cycle_does_not_hang():
    index, _ = graph_for(
        {
            "src/pkg/a.py": """
            from pkg.b import B

            class A(B):
                def m(self):
                    return 1
            """,
            "src/pkg/b.py": """
            from pkg.a import A

            class B(A):
                def m(self):
                    return 2
            """,
        }
    )
    assert index.mro("pkg.a.A") == ["pkg.a.A", "pkg.b.B"]


# ------------------------------------------------------------- conservatism


def test_parameter_callable_lands_in_unknown_bucket():
    _, graph = graph_for(
        {
            "src/pkg/a.py": """
            def run(thunk):
                return thunk()
            """,
        }
    )
    assert graph.edges["pkg.a.run"] == ()
    assert graph.unknown["pkg.a.run"] == ("name:thunk",)


def test_attribute_call_on_local_is_unknown_not_edge():
    _, graph = graph_for(
        {
            "src/pkg/a.py": """
            def run(problem):
                return problem.solve()
            """,
        }
    )
    assert graph.edges["pkg.a.run"] == ()
    assert any("solve" in u for u in graph.unknown["pkg.a.run"])


def test_external_package_calls_counted_not_unknown():
    _, graph = graph_for(
        {
            "src/pkg/a.py": """
            import numpy as np

            def run(xs):
                return np.asarray(xs)
            """,
        }
    )
    assert graph.edges["pkg.a.run"] == ()
    assert "pkg.a.run" not in graph.unknown
    assert graph.external_calls == 1


def test_builtin_calls_are_external_noise():
    _, graph = graph_for(
        {
            "src/pkg/a.py": """
            def run(xs):
                return len(sorted(xs))
            """,
        }
    )
    assert "pkg.a.run" not in graph.unknown
    assert graph.external_calls == 2


def test_unreachable_entry_is_empty_reach_set():
    _, graph = graph_for({"src/pkg/a.py": "def f():\n    return 1\n"})
    assert graph.reachable(["pkg.a.missing"]) == frozenset()


def test_graph_counts_cover_every_function():
    _, graph = graph_for(METHOD_FILES)
    # Every summarized function gets a node, called or not.
    assert graph.num_nodes == 4
    assert graph.num_edges == len(graph.edges["pkg.base.Mapper.map"])


# --------------------------------------------------------------- real tree


@functools.lru_cache(maxsize=1)
def _real_tree() -> tuple[int, ProjectIndex]:
    """(file count, index) of every module under src/repro."""
    from repro.analysis.project import summarize_source

    repo = Path(__file__).resolve().parents[2]
    files = sorted((repo / "src" / "repro").rglob("*.py"))
    summaries = [
        summarize_source(
            p.read_text(encoding="utf-8"),
            relpath=p.relative_to(repo).as_posix(),
        )
        for p in files
    ]
    return len(files), ProjectIndex(summaries)


def test_real_tree_graph_covers_every_src_module():
    """The whole-project pass must index every module under src/repro."""
    num_files, index = _real_tree()
    assert num_files >= 40  # the tree the acceptance criteria describe
    graph = build_call_graph(index)
    assert len(index.modules) == num_files
    # Entry expansion works against the real tree and reaches the solvers.
    entries = index.expand_entry("repro.core.mapping.Mapper.map")
    reach = graph.reachable(entries)
    assert any(node.endswith("GeoDistributedMapper._solve") for node in reach)
    assert any(node.endswith("MultilevelMapper._solve") for node in reach)


def test_real_tree_follows_lazy_package_reexports():
    """The lazy package inits keep their re-exports as import statements
    (under ``TYPE_CHECKING``), so the graph rules still see through them."""
    _, index = _real_tree()
    assert index.resolve_symbol(("repro", "GeoDistributedMapper")) == [
        "repro.core.geodist.GeoDistributedMapper.__init__"
    ]
    assert index.resolve_symbol(("repro", "exp", "simulate_mapping")) == [
        "repro.exp.runner.simulate_mapping"
    ]


@pytest.mark.parametrize("package", ["repro", "repro.exp", "repro.apps", "repro.obs"])
def test_lazy_init_import_table_lists_every_export(package):
    """Each lazily exported name also appears in the init's import table."""
    _, index = _real_tree()
    init = index.modules[package]
    exported = importlib.import_module(package).__all__
    own = set(init.functions) | {"__version__", "PAPER_APPS"}
    assert sorted(n for n in exported if n not in own and n not in init.imports) == []
