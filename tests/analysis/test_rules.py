"""Fixture snippets proving each RPR rule fires (and stays quiet)."""

import textwrap

from repro.analysis import lint_source
from repro.analysis.rules import (
    NoBareAssertRule,
    NoBlockingCallInAsyncRule,
    NoDirectSpanConstructionRule,
    NoFrozenViewRule,
    NoLegacyRngRule,
    NoWallClockRule,
    ValidatePublicEntryRule,
    default_rules,
)

SRC = "src/repro/core/example.py"
BENCH = "benchmarks/bench_example.py"


def lint(source, relpath=SRC, rules=None):
    return lint_source(textwrap.dedent(source), relpath=relpath, rules=rules)


def rule_ids(result):
    return [f.rule_id for f in result.findings]


# ----------------------------------------------------------------- RPR001


def test_rpr001_flags_legacy_module_calls():
    result = lint(
        """
        import numpy as np

        def shuffle(xs):
            np.random.seed(0)
            return np.random.rand(len(xs))
        """,
        rules=[NoLegacyRngRule()],
    )
    assert rule_ids(result) == ["RPR001", "RPR001"]
    assert "np.random.seed(0)" in result.findings[0].snippet


def test_rpr001_flags_legacy_from_import():
    result = lint(
        "from numpy.random import RandomState\n",
        rules=[NoLegacyRngRule()],
    )
    assert rule_ids(result) == ["RPR001"]
    assert "RandomState" in result.findings[0].message


def test_rpr001_flags_import_numpy_random_alias():
    result = lint(
        """
        import numpy.random as npr

        def draw():
            return npr.uniform()
        """,
        rules=[NoLegacyRngRule()],
    )
    assert rule_ids(result) == ["RPR001"]


def test_rpr001_allows_generator_api():
    result = lint(
        """
        import numpy as np
        from numpy.random import Generator, default_rng

        def draw(seed):
            return np.random.default_rng(seed).random()
        """,
        rules=[NoLegacyRngRule()],
    )
    assert result.findings == []


# ----------------------------------------------------------------- RPR002


def test_rpr002_flags_returned_view():
    result = lint(
        """
        def rows_for(problem, idx):
            return problem.CG[idx]
        """,
        rules=[NoFrozenViewRule()],
    )
    assert rule_ids(result) == ["RPR002"]
    assert "CG" in result.findings[0].message
    assert result.findings[0].symbol == "rows_for"


def test_rpr002_flags_attribute_store():
    result = lint(
        """
        class Cache:
            def __init__(self, problem, idx):
                self._lt = problem.LT[idx]
        """,
        rules=[NoFrozenViewRule()],
    )
    assert rule_ids(result) == ["RPR002"]
    assert "LT" in result.findings[0].message


def test_rpr002_allows_copies_and_locals():
    result = lint(
        """
        import numpy as np

        class Cache:
            def __init__(self, problem, idx):
                self._bt = problem.BT[idx].copy()
                self._ag = np.array(problem.AG[idx])

        def local_alias_is_fine(problem, idx):
            rows = problem.CG[idx]
            return rows.sum()
        """,
        rules=[NoFrozenViewRule()],
    )
    assert result.findings == []


def test_rpr002_only_runs_on_src():
    result = lint(
        "def f(problem, i):\n    return problem.CG[i]\n",
        relpath=BENCH,
        rules=[NoFrozenViewRule()],
    )
    assert result.findings == []


# ----------------------------------------------------------------- RPR003


def test_rpr003_flags_unvalidated_entry_point():
    result = lint(
        """
        import numpy as np

        def total_load(capacities):
            return int(np.sum(capacities))
        """,
        rules=[ValidatePublicEntryRule()],
    )
    assert rule_ids(result) == ["RPR003"]
    assert "total_load" in result.findings[0].message
    assert "capacities" in result.findings[0].message


def test_rpr003_matches_array_annotations():
    result = lint(
        """
        import numpy as np

        def spectral_radius(adjacency: np.ndarray) -> float:
            return float(np.abs(np.linalg.eigvals(adjacency)).max())
        """,
        rules=[ValidatePublicEntryRule()],
    )
    assert rule_ids(result) == ["RPR003"]


def test_rpr003_satisfied_by_validation_call():
    result = lint(
        """
        from repro._validation import check_vector

        def total_load(capacities):
            caps = check_vector(capacities, "capacities")
            return int(caps.sum())
        """,
        rules=[ValidatePublicEntryRule()],
    )
    assert result.findings == []


def test_rpr003_skips_private_nested_and_non_entry_files():
    source = """
        def _helper(capacities):
            return capacities.sum()

        def outer():
            def inner(capacities):
                return capacities.sum()
            return inner
        """
    assert lint(source, rules=[ValidatePublicEntryRule()]).findings == []
    # Same public-function violation outside core/cloud/baselines/apps.
    outside = "def total_load(capacities):\n    return capacities.sum()\n"
    result = lint(outside, relpath="src/repro/exp/example.py", rules=[ValidatePublicEntryRule()])
    assert result.findings == []


# ----------------------------------------------------------------- RPR004


def test_rpr004_flags_bare_assert():
    result = lint(
        """
        def invariant(x):
            assert x > 0, "positive"
            return x
        """,
        rules=[NoBareAssertRule()],
    )
    assert rule_ids(result) == ["RPR004"]
    assert "-O" in result.findings[0].message


def test_rpr004_ignores_test_style_paths():
    result = lint(
        "def f(x):\n    assert x\n",
        relpath="tests/test_example.py",
        rules=[NoBareAssertRule()],
    )
    assert result.findings == []


# ----------------------------------------------------------------- RPR005


def test_rpr005_flags_wall_clocks_in_benchmarks():
    result = lint(
        """
        import time
        import datetime

        def bench():
            t0 = time.time()
            time.time_ns()
            datetime.datetime.now()
            return time.perf_counter() - t0
        """,
        relpath=BENCH,
        rules=[NoWallClockRule()],
    )
    assert rule_ids(result) == ["RPR005", "RPR005", "RPR005"]


def test_rpr005_flags_from_import_alias():
    result = lint(
        """
        from time import time as wall

        def bench():
            return wall()
        """,
        relpath=BENCH,
        rules=[NoWallClockRule()],
    )
    # Both the import itself and the aliased call are flagged.
    assert rule_ids(result) == ["RPR005", "RPR005"]
    # Importing the datetime class is not a clock read; calling now() is.
    result = lint(
        """
        from datetime import datetime

        def bench():
            return datetime.now()
        """,
        relpath=BENCH,
        rules=[NoWallClockRule()],
    )
    assert rule_ids(result) == ["RPR005"]
    assert "datetime.datetime.now()" in result.findings[0].message


def test_rpr005_allows_perf_counter_and_src_files():
    clean = """
        import time

        def bench():
            t0 = time.perf_counter()
            return time.perf_counter() - t0
        """
    assert lint(clean, relpath=BENCH, rules=[NoWallClockRule()]).findings == []
    wall = "import time\n\ndef f():\n    return time.time()\n"
    assert lint(wall, relpath=SRC, rules=[NoWallClockRule()]).findings == []


# ----------------------------------------------------------------- RPR006


def test_rpr006_flags_direct_span_from_import():
    result = lint(
        """
        from repro.obs import Span, SpanEvent

        def fake_trace():
            ev = SpanEvent(name="e", t=0.0)
            return Span(name="s", t_start=0.0, events=[ev])
        """,
        rules=[NoDirectSpanConstructionRule()],
    )
    assert rule_ids(result) == ["RPR006", "RPR006"]
    assert "SpanEvent" in result.findings[0].message
    assert "recorder API" in result.findings[1].message


def test_rpr006_flags_relative_import_and_alias():
    result = lint(
        """
        from ..obs import Span as S

        def fake():
            return S(name="s", t_start=0.0)
        """,
        rules=[NoDirectSpanConstructionRule()],
    )
    assert rule_ids(result) == ["RPR006"]


def test_rpr006_flags_module_qualified_construction():
    flagged = [
        "import repro.obs as obs\n\ndef f():\n    return obs.Span(name='s', t_start=0.0)\n",
        "from repro import obs\n\ndef f():\n    return obs.SpanEvent(name='e', t=0.0)\n",
        "import repro.obs\n\ndef f():\n    return repro.obs.Span(name='s', t_start=0.0)\n",
        "from repro.obs import spans\n\ndef f():\n    return spans.Span(name='s', t_start=0.0)\n",
        "import repro.obs.spans as sp\n\ndef f():\n    return sp.Span(name='s', t_start=0.0)\n",
    ]
    for source in flagged:
        result = lint(source, rules=[NoDirectSpanConstructionRule()])
        assert rule_ids(result) == ["RPR006"], source


def test_rpr006_allows_recorder_api_and_obs_itself():
    recorder_idiom = """
        from repro.obs import SpanRecorder, get_recorder

        def traced():
            rec = SpanRecorder(clock=lambda: 0.0)
            with rec.span("profile.messages"):
                get_recorder().event("profile.pair")
            return rec.roots[0]
        """
    assert lint(recorder_idiom, rules=[NoDirectSpanConstructionRule()]).findings == []
    # Inside repro/obs the dataclasses may be constructed freely.
    direct = "from repro.obs import Span\n\ndef f():\n    return Span(name='s', t_start=0.0)\n"
    obs_path = "src/repro/obs/spans.py"
    assert lint(direct, relpath=obs_path, rules=[NoDirectSpanConstructionRule()]).findings == []
    # And code outside src/ (tests, benchmarks) is out of scope.
    assert lint(direct, relpath=BENCH, rules=[NoDirectSpanConstructionRule()]).findings == []


def test_rpr006_ignores_unrelated_span_names():
    # A local class that happens to be called Span is not the obs type.
    result = lint(
        """
        class Span:
            pass

        def f():
            return Span()
        """,
        rules=[NoDirectSpanConstructionRule()],
    )
    assert result.findings == []


# ----------------------------------------------------------------- RPR011

SERVE = "src/repro/serve/example.py"


def test_rpr011_flags_time_sleep_in_async_def():
    result = lint(
        """
        import time

        async def handle(request):
            time.sleep(0.1)
            return request
        """,
        relpath=SERVE,
        rules=[NoBlockingCallInAsyncRule()],
    )
    assert rule_ids(result) == ["RPR011"]
    assert "asyncio.sleep" in result.findings[0].message


def test_rpr011_flags_from_import_sleep_and_aliases():
    result = lint(
        """
        import time as t
        from time import sleep

        async def handle():
            sleep(1)
            t.sleep(1)
        """,
        relpath=SERVE,
        rules=[NoBlockingCallInAsyncRule()],
    )
    assert rule_ids(result) == ["RPR011", "RPR011"]
    result = lint(
        """
        import subprocess as sp
        from subprocess import run

        async def handle():
            sp.run(["true"])
            run(["true"])
        """,
        relpath=SERVE,
        rules=[NoBlockingCallInAsyncRule()],
    )
    assert rule_ids(result) == ["RPR011", "RPR011"]
    assert all("subprocess.run()" in f.message for f in result.findings)


def test_rpr011_flags_open_subprocess_and_socket_calls():
    result = lint(
        """
        import subprocess

        async def handle(sock):
            f = open("state.json")
            subprocess.run(["true"])
            sock.recv(4096)
            sock.sendall(b"x")
            return f
        """,
        relpath=SERVE,
        rules=[NoBlockingCallInAsyncRule()],
    )
    assert rule_ids(result) == ["RPR011"] * 4


def test_rpr011_flags_direct_solver_calls():
    result = lint(
        """
        async def handle(mapper, problem):
            return mapper.map(problem, seed=0)
        """,
        relpath=SERVE,
        rules=[NoBlockingCallInAsyncRule()],
    )
    assert rule_ids(result) == ["RPR011"]
    assert "executor" in result.findings[0].message


def test_rpr011_ignores_sync_functions_even_in_serve():
    result = lint(
        """
        import time

        def warmup():
            time.sleep(0.1)
            return open("state.json")
        """,
        relpath=SERVE,
        rules=[NoBlockingCallInAsyncRule()],
    )
    assert result.findings == []


def test_rpr011_sync_def_nested_in_async_is_not_flagged():
    """A sync helper defined inside an async body runs when called —
    possibly on an executor — so its body is not an async context."""
    result = lint(
        """
        import time

        async def handle():
            def blocking_cb():
                time.sleep(1)
            return blocking_cb
        """,
        relpath=SERVE,
        rules=[NoBlockingCallInAsyncRule()],
    )
    assert result.findings == []


def test_rpr011_lambda_in_async_is_not_flagged():
    result = lint(
        """
        import time

        async def handle(loop):
            return await loop.run_in_executor(None, lambda: time.sleep(1))
        """,
        relpath=SERVE,
        rules=[NoBlockingCallInAsyncRule()],
    )
    assert result.findings == []


def test_rpr011_only_applies_to_serve_paths():
    source = """
        import time

        async def handle():
            time.sleep(0.1)
        """
    for relpath in (
        "src/repro/core/example.py",
        "src/repro/exp/fabric/example.py",
        "tests/serve/test_example.py",  # tests are free to block
        "benchmarks/bench_serve.py",
    ):
        result = lint(source, relpath=relpath, rules=[NoBlockingCallInAsyncRule()])
        assert result.findings == [], relpath


def test_rpr011_allows_nonblocking_async_idiom():
    result = lint(
        """
        import asyncio

        async def handle(engine, request):
            await asyncio.sleep(0)
            return await engine.handle(request)
        """,
        relpath=SERVE,
        rules=[NoBlockingCallInAsyncRule()],
    )
    assert result.findings == []


def test_rpr011_suppression_comment_works():
    result = lint(
        """
        import time

        async def handle():
            time.sleep(0)  # repro-lint: disable=RPR011
        """,
        relpath=SERVE,
        rules=[NoBlockingCallInAsyncRule()],
    )
    assert result.findings == []
    assert result.suppressed == 1


# ------------------------------------------------------------- suppression


def test_suppression_comment_silences_one_rule():
    result = lint(
        """
        def invariant(x):
            assert x > 0  # repro-lint: disable=RPR004
            assert x < 9  # repro-lint: disable=RPR004 invariant checked by caller
            return x
        """,
        rules=[NoBareAssertRule()],
    )
    assert result.findings == []
    assert result.suppressed == 2


def test_suppression_all_and_multiple_ids():
    result = lint(
        """
        import numpy as np

        def f():
            np.random.seed(0)  # repro-lint: disable=all
            np.random.rand()  # repro-lint: disable=RPR001, RPR004
        """,
        rules=[NoLegacyRngRule()],
    )
    assert result.findings == []
    assert result.suppressed == 2


def test_suppression_does_not_cover_other_rules_or_lines():
    result = lint(
        """
        def invariant(x):
            assert x > 0  # repro-lint: disable=RPR001
            assert x < 9
            return x
        """,
        rules=[NoBareAssertRule()],
    )
    assert rule_ids(result) == ["RPR004", "RPR004"]
    assert result.suppressed == 0


# ------------------------------------------------------------------ engine


def test_default_rules_select_and_unknown():
    assert {r.id for r in default_rules()} == {
        "RPR001",
        "RPR002",
        "RPR003",
        "RPR004",
        "RPR005",
        "RPR006",
        "RPR011",
    }
    assert [r.id for r in default_rules(["rpr004"])] == ["RPR004"]
    try:
        default_rules(["RPR999"])
    except ValueError as exc:
        assert "RPR999" in str(exc)
    else:  # pragma: no cover
        raise AssertionError("unknown rule id must raise")


def test_syntax_error_is_reported_not_raised():
    result = lint_source("def broken(:\n", relpath=SRC)
    assert result.findings == []
    assert SRC in result.errors
    assert "syntax error" in result.errors[SRC]
