"""Table-driven fixtures for the graph rule families RPR008/009/010."""

import textwrap

import pytest

from repro.analysis import lint_sources
from repro.analysis.graph_rules import (
    RPR008UnseededRngReachable,
    RPR009SharedMutableCapture,
    RPR010HotPathDenseReachability,
)
from repro.analysis.rules import NoDenseCgInHotPathsRule

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


# ----------------------------------------------------------------- RPR009

RPR009_POSITIVE = {
    "closure appends to captured list": {
        "src/pkg/fan.py": """
        from concurrent.futures import ThreadPoolExecutor

        def fan_out(chunks):
            results = []

            def work(chunk):
                results.append(chunk * 2)

            with ThreadPoolExecutor() as ex:
                for chunk in chunks:
                    ex.submit(work, chunk)
            return results
        """,
    },
    "closure reads a variable the loop keeps rebinding": {
        "src/pkg/fan.py": """
        from concurrent.futures import ThreadPoolExecutor

        def fan_out(chunks):
            current = None
            futures = []
            with ThreadPoolExecutor() as ex:
                for chunk in chunks:
                    current = chunk
                    futures.append(ex.submit(lambda: current * 2))
            return [f.result() for f in futures]
        """,
    },
    "nonlocal accumulator mutated in worker": {
        "src/pkg/fan.py": """
        from concurrent.futures import ThreadPoolExecutor

        def fan_out(chunks):
            total = 0

            def work(chunk):
                nonlocal total
                total += chunk

            with ThreadPoolExecutor() as ex:
                ex.map(work, chunks)
            return total
        """,
    },
    "self-method worker writes self attributes": {
        "src/pkg/fan.py": """
        from concurrent.futures import ThreadPoolExecutor

        class Runner:
            def run(self, chunks):
                with ThreadPoolExecutor() as ex:
                    for chunk in chunks:
                        ex.submit(self._work, chunk)

            def _work(self, chunk):
                self.best = chunk
        """,
    },
}

RPR009_NEGATIVE = {
    "aggregate via future results": {
        "src/pkg/fan.py": """
        from concurrent.futures import ThreadPoolExecutor

        def fan_out(chunks):
            def work(chunk):
                return chunk * 2

            with ThreadPoolExecutor() as ex:
                futures = [ex.submit(work, chunk) for chunk in chunks]
            return [f.result() for f in futures]
        """,
    },
    "worker reads a capture bound exactly once": {
        "src/pkg/fan.py": """
        from concurrent.futures import ThreadPoolExecutor

        def fan_out(chunks, scale):
            factor = scale + 1

            def work(chunk):
                return chunk * factor

            with ThreadPoolExecutor() as ex:
                futures = [ex.submit(work, chunk) for chunk in chunks]
            return [f.result() for f in futures]
        """,
    },
    "self-method worker returning values writes nothing shared": {
        "src/pkg/fan.py": """
        from concurrent.futures import ThreadPoolExecutor

        class Runner:
            def run(self, chunks):
                with ThreadPoolExecutor() as ex:
                    futures = [ex.submit(self._work, c) for c in chunks]
                return [f.result() for f in futures]

            def _work(self, chunk):
                local = {"best": chunk}
                return local
        """,
    },
    "opaque parameter worker is never guessed at": {
        "src/pkg/fan.py": """
        from concurrent.futures import ThreadPoolExecutor

        def run_with(thunk):
            with ThreadPoolExecutor(max_workers=1) as ex:
                return ex.submit(thunk).result()
        """,
    },
}


@pytest.mark.parametrize("files", RPR009_POSITIVE.values(), ids=RPR009_POSITIVE)
def test_rpr009_positive(files):
    result = lint(files, [RPR009SharedMutableCapture()])
    assert "RPR009" in rule_ids(result)


@pytest.mark.parametrize("files", RPR009_NEGATIVE.values(), ids=RPR009_NEGATIVE)
def test_rpr009_negative(files):
    result = lint(files, [RPR009SharedMutableCapture()])
    assert result.findings == []


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
    """Every site the per-file RPR007 rule flags on a hot-path file is
    also found by RPR010 via reachability — with no path allowlist."""
    # Paths live under the real hot-path package so the per-file rule
    # applies; the graph rule gets no path information at all.
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
    via_graph = lint(
        files, [RPR010HotPathDenseReachability(["repro.core.entry.Mapper.map"])]
    )
    via_file = lint(files, [], rules=[NoDenseCgInHotPathsRule()])
    graph_sites = {(f.path, f.line) for f in via_graph.findings}
    file_sites = {
        (f.path, f.line) for f in via_file.findings if f.rule_id == "RPR007"
    }
    assert file_sites  # RPR007 fired on the fixture at all
    assert file_sites <= graph_sites
    assert not RPR010HotPathDenseReachability.__dict__.get("allowlist")


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
