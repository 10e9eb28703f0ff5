"""Table-driven fixtures for the graph rules RPR008 and RPR010."""

import textwrap

import pytest

from repro.analysis import lint_sources
from repro.analysis.graph_rules import (
    RPR008UnseededRngReachable,
    RPR010HotPathDenseReachability,
)

ENTRY = ["pkg.entry.Mapper.map"]


def lint(files, project_rules, rules=None):
    dedented = {rel: textwrap.dedent(src) for rel, src in files.items()}
    return lint_sources(dedented, rules=rules or [], project_rules=project_rules)


def rule_ids(result):
    return [f.rule_id for f in result.findings]


# ----------------------------------------------------------------- RPR008

RPR008_POSITIVE = {
    "direct numpy legacy call in reachable helper": {
        "src/pkg/entry.py": """
        from pkg.helper import solve

        class Mapper:
            def map(self, problem):
                return solve(problem)
        """,
        "src/pkg/helper.py": """
        import numpy as np

        def solve(problem):
            return np.random.rand(4)
        """,
    },
    "stdlib random two hops from the entry": {
        "src/pkg/entry.py": """
        from pkg.mid import step

        class Mapper:
            def map(self, problem):
                return step(problem)
        """,
        "src/pkg/mid.py": """
        from pkg.deep import jitter

        def step(problem):
            return jitter(problem)
        """,
        "src/pkg/deep.py": """
        import random

        def jitter(problem):
            return random.random()
        """,
    },
    "wall-clock seed into default_rng in a subclass _solve": {
        "src/pkg/entry.py": """
        class Mapper:
            def map(self, problem):
                return self._solve(problem)

            def _solve(self, problem):
                raise NotImplementedError
        """,
        "src/pkg/sub.py": """
        import time
        import numpy as np
        from pkg.entry import Mapper

        class TimeMapper(Mapper):
            def _solve(self, problem):
                rng = np.random.default_rng(int(time.time()))
                return rng.random()
        """,
    },
}

RPR008_NEGATIVE = {
    "generator API threaded through is clean": {
        "src/pkg/entry.py": """
        import numpy as np

        class Mapper:
            def map(self, problem, seed):
                rng = np.random.default_rng(seed)
                return rng.random()
        """,
    },
    "legacy RNG in an unreachable function stays quiet": {
        "src/pkg/entry.py": """
        class Mapper:
            def map(self, problem):
                return 0
        """,
        "src/pkg/offpath.py": """
        import numpy as np

        def debug_only():
            return np.random.rand(4)
        """,
    },
    "owned random.Random instance is not module state": {
        "src/pkg/entry.py": """
        import random
        from pkg.helper import solve

        class Mapper:
            def map(self, problem, seed):
                return solve(random.Random(seed))
        """,
        "src/pkg/helper.py": """
        def solve(rng):
            return rng.random()
        """,
    },
}


@pytest.mark.parametrize("files", RPR008_POSITIVE.values(), ids=RPR008_POSITIVE)
def test_rpr008_positive(files):
    result = lint(files, [RPR008UnseededRngReachable(ENTRY)])
    assert "RPR008" in rule_ids(result)


@pytest.mark.parametrize("files", RPR008_NEGATIVE.values(), ids=RPR008_NEGATIVE)
def test_rpr008_negative(files):
    result = lint(files, [RPR008UnseededRngReachable(ENTRY)])
    assert result.findings == []


def test_rpr008_finding_attributes_symbol_and_path():
    result = lint(
        RPR008_POSITIVE["direct numpy legacy call in reachable helper"],
        [RPR008UnseededRngReachable(ENTRY)],
    )
    (finding,) = result.findings
    assert finding.symbol == "solve"
    assert finding.path == "src/pkg/helper.py"


# ----------------------------------------------------------------- RPR010

RPR010_POSITIVE = {
    "dense call directly in the entry": {
        "src/pkg/entry.py": """
        class Mapper:
            def map(self, problem):
                return problem.dense_CG().sum()
        """,
    },
    "dense call two hops away": {
        "src/pkg/entry.py": """
        from pkg.cost import total

        class Mapper:
            def map(self, problem):
                return total(problem)
        """,
        "src/pkg/cost.py": """
        from pkg.kernel import gemv

        def total(problem):
            return gemv(problem)
        """,
        "src/pkg/kernel.py": """
        def gemv(problem):
            AG = problem.dense_AG()
            return AG @ AG
        """,
    },
    "dense call in a subclass _solve override": {
        "src/pkg/entry.py": """
        class Mapper:
            def map(self, problem):
                return self._solve(problem)

            def _solve(self, problem):
                raise NotImplementedError
        """,
        "src/pkg/sub.py": """
        from pkg.entry import Mapper

        class DenseMapper(Mapper):
            def _solve(self, problem):
                return problem.dense_CG().argmin()
        """,
    },
}

RPR010_NEGATIVE = {
    "csr views on the hot path are clean": {
        "src/pkg/entry.py": """
        class Mapper:
            def map(self, problem):
                return problem.cg_csr().sum()
        """,
    },
    "dense call in unreachable offline analysis": {
        "src/pkg/entry.py": """
        class Mapper:
            def map(self, problem):
                return 0
        """,
        "src/pkg/offline.py": """
        def heatmap(problem):
            return problem.dense_CG()
        """,
    },
    "dense definition site itself is not a call": {
        "src/pkg/entry.py": """
        class Mapper:
            def map(self, problem):
                return 0

        class Problem:
            def dense_CG(self):
                return [[0]]
        """,
    },
}


@pytest.mark.parametrize("files", RPR010_POSITIVE.values(), ids=RPR010_POSITIVE)
def test_rpr010_positive(files):
    result = lint(files, [RPR010HotPathDenseReachability(ENTRY)])
    assert "RPR010" in rule_ids(result)


@pytest.mark.parametrize("files", RPR010_NEGATIVE.values(), ids=RPR010_NEGATIVE)
def test_rpr010_negative(files):
    result = lint(files, [RPR010HotPathDenseReachability(ENTRY)])
    assert result.findings == []


def test_rpr010_reproduces_rpr007_sites_without_allowlist():
    """RPR010 flags every dense call site in a reachable solver module,
    from reachability alone: the rule gets no path information and keeps
    no allowlist."""
    files = {
        "src/repro/core/entry.py": """
        from repro.core.cost2 import total

        class Mapper:
            def map(self, problem):
                return total(problem)
        """,
        "src/repro/core/cost2.py": """
        def total(problem):
            CG = problem.dense_CG()
            AG = problem.dense_AG()
            return (CG * AG).sum()
        """,
    }
    result = lint(
        files, [RPR010HotPathDenseReachability(["repro.core.entry.Mapper.map"])]
    )
    assert [(f.rule_id, f.path, f.line, f.symbol) for f in result.findings] == [
        ("RPR010", "src/repro/core/cost2.py", 3, "total"),
        ("RPR010", "src/repro/core/cost2.py", 4, "total"),
    ]
    assert not RPR010HotPathDenseReachability.__dict__.get("allowlist")


REPAIR_ENTRIES = {
    "core.repair.repair_mapping": {
        "src/repro/core/repair.py": """
        def repair_mapping(problem, partial):
            return problem.dense_AG() @ partial
        """,
    },
    "faults.repair.repair_after_faults": {
        "src/repro/faults/repair.py": """
        def repair_after_faults(problem, assignment, schedule):
            return problem.dense_CG().sum()
        """,
    },
}


@pytest.mark.parametrize("files", REPAIR_ENTRIES.values(), ids=REPAIR_ENTRIES)
def test_rpr010_default_entries_cover_repair(files):
    """The default entry list is RPR008's seeded entries plus the
    simulator, so a dense call under either repair entry is flagged."""
    result = lint(files, [RPR010HotPathDenseReachability()])
    assert rule_ids(result) == ["RPR010"]


def test_rpr010_message_names_the_given_entry_points():
    files = {
        "src/pkg/entry.py": """
        class Mapper:
            def map(self, problem):
                return problem.dense_CG()

        def solve(problem):
            return 0
        """,
    }
    result = lint(
        files,
        [RPR010HotPathDenseReachability(["pkg.entry.Mapper.map", "pkg.entry.solve"])],
    )
    (finding,) = result.findings
    assert "entry point(s) Mapper.map, solve " in finding.message


# ---------------------------------------------------------------- suppression


def test_graph_finding_honors_inline_suppression():
    files = {
        "src/pkg/entry.py": """
        import numpy as np

        class Mapper:
            def map(self, problem):
                return np.random.rand(4)  # repro-lint: disable=RPR008
        """,
    }
    result = lint(files, [RPR008UnseededRngReachable(ENTRY)])
    assert result.findings == []
    assert result.suppressed == 1
