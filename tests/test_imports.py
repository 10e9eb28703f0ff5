"""Import hygiene: what a fresh interpreter loads for each entry point.

Every test runs its snippet in a new interpreter, inheriting this
process's environment, so it sees the package as it is installed (or
as ``PYTHONPATH`` puts it), and checks ``sys.modules`` rather than a
wall-clock bound.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap

import pytest

HEAVY = ("numpy", "scipy")

#: The registry's contents after ``import repro`` imported every
#: subpackage eagerly; a lazy package must not lose any of them.
BUILTIN_MAPPERS = [
    "baseline",
    "geo-distributed",
    "greedy",
    "monte-carlo",
    "mpipp",
    "multilevel",
    "simulated-annealing",
    "treematch",
]


def run_fresh(code: str) -> object:
    """Run ``code`` in a fresh interpreter; return the JSON it prints last."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def heavy_after(code: str) -> list[str]:
    """The heavy top-level packages loaded after running ``code``."""
    return run_fresh(
        textwrap.dedent(code)
        + "\nimport json, sys\n"
        + f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    )


@pytest.mark.parametrize(
    "statement",
    [
        "import repro",
        "import repro.exp",
        "import repro.exp.fabric",
        "from repro.exp.fabric import write_sweep, robustness_specs",
        "import repro.analysis.cli",
        "from repro.apps import PAPER_APPS",
    ],
)
def test_light_imports_load_no_numpy_or_scipy(statement):
    assert heavy_after(statement) == []


def test_fabric_loads_only_the_recorder_half_of_obs():
    """Supervisor and workers record spans; analysis and the store load on demand."""
    loaded = run_fresh(
        """
        import json, sys
        import repro.exp.fabric
        heavy = ("analytics", "benchgate", "store")
        print(json.dumps([m for m in heavy if f"repro.obs.{m}" in sys.modules]))
        """
    )
    assert loaded == []


@pytest.mark.parametrize(
    "entry, argv",
    [
        ("repro.cli", ["--help"]),
        ("repro.cli", ["map", "--help"]),
        ("repro.cli", ["obs", "query", "--store", "{tmp}"]),
        ("repro.cli", ["sweep", "--sweep-dir", "{tmp}/sweep", "--grid", "demo",
                       "--tasks", "2", "--workers", "1"]),
        ("repro.analysis.cli", ["--help"]),
    ],
    ids=["help", "map-help", "obs-query", "demo-sweep", "lint-help"],
)
def test_console_scripts_load_the_solver_stack_only_when_needed(entry, argv, tmp_path):
    """``repro`` and ``repro-lint`` run ``main`` of these modules."""
    args = [a.format(tmp=tmp_path) for a in argv]
    code = f"""
    import contextlib, io
    from {entry} import main
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            main({args!r})
        except SystemExit:
            pass
    """
    assert heavy_after(code) == []


@pytest.mark.parametrize("package", ["repro", "repro.exp", "repro.apps", "repro.obs"])
def test_every_public_name_resolves_and_is_listed(package):
    missing = run_fresh(
        f"""
        import importlib, json
        pkg = importlib.import_module({package!r})
        listed = set(dir(pkg))
        bad = [n for n in pkg.__all__ if n not in listed or getattr(pkg, n) is None]
        print(json.dumps(bad))
        """
    )
    assert missing == []


def test_star_import_binds_every_public_name():
    unbound = run_fresh(
        """
        import json
        import repro
        scope = {}
        exec("from repro import *", scope)
        print(json.dumps([n for n in repro.__all__ if n not in scope]))
        """
    )
    assert unbound == []


def test_unknown_attribute_still_raises():
    code = """
    import json, repro
    try:
        repro.no_such_name
    except AttributeError as exc:
        print(json.dumps(str(exc)))
    """
    assert "no_such_name" in run_fresh(code)


@pytest.mark.parametrize(
    "first", ["import repro.core", "import repro.core.mapping", "import repro.baselines"]
)
def test_mapper_registry_is_complete_whatever_was_imported_first(first):
    names = run_fresh(
        f"""
        {first}
        import json
        from repro.core.mapping import available_mappers
        print(json.dumps(available_mappers()))
        """
    )
    assert names == BUILTIN_MAPPERS


def test_forked_workers_import_nothing_during_a_task(tmp_path):
    """A worker's task finds the cell kind's modules already imported.

    Ten probe tasks run ``robustness-cell`` and record every ``repro``,
    numpy or scipy module that appeared while it ran.  One real
    robustness cell, last in the manifest, is what makes the supervisor
    resolve that kind; each worker runs all its probes before it.
    """
    report = run_fresh(
        f"""
        import json, sys
        from dataclasses import replace

        from repro.exp.fabric import (
            FabricConfig, SweepFabric, get_task, load_shard, register_task,
            robustness_specs, write_sweep,
        )

        HEAVY = ("repro", "numpy", "scipy")

        @register_task("import-probe")
        def probe(params):
            before = set(sys.modules)
            get_task("robustness-cell")(params)
            new = set(sys.modules) - before
            return {{"new": sorted(m for m in new if m.split(".")[0] in HEAVY)}}

        cells = robustness_specs(processes=16, faults=("outage",))
        probes = [
            replace(cells[i % len(cells)], key=f"probe/{{i}}", kind="import-probe")
            for i in range(10)
        ]
        specs = probes + cells[:1]
        root = {str(tmp_path / "sweep")!r}
        write_sweep(root, specs)
        loaded_before_run = "repro.exp.fabric.cells" in sys.modules
        report = SweepFabric(root, config=FabricConfig(workers=2)).run()
        rows = [load_shard(root, s.key) for s in probes]
        print(json.dumps({{
            "loaded_before_run": loaded_before_run,
            "ok": report.ok,
            "new": sorted({{m for r in rows for m in r["result"]["new"]}}),
            "statuses": sorted({{r["status"] for r in rows}}),
        }}))
        """
    )
    assert report == {
        "loaded_before_run": False,
        "ok": True,
        "new": [],
        "statuses": ["ok"],
    }


def test_serve_pool_workers_import_nothing_during_a_solve():
    """``PlacementEngine.start`` resolves the mappers before it forks."""
    report = run_fresh(
        """
        import asyncio, json, sys

        import numpy as np

        from repro.core import MappingProblem
        from repro.serve.engine import EngineConfig, PlacementEngine
        from repro.serve.solver import solve_one

        HEAVY = ("repro", "numpy", "scipy")

        def probe(payload):
            before = set(sys.modules)
            row = solve_one(payload)
            new = set(sys.modules) - before
            return row["ok"], sorted(m for m in new if m.split(".")[0] in HEAVY)

        rng = np.random.default_rng(0)
        cg = rng.random((8, 8)) * 1e6
        np.fill_diagonal(cg, 0)
        lt = np.full((2, 2), 0.05)
        np.fill_diagonal(lt, 1e-4)
        problem = MappingProblem(
            CG=cg, AG=np.ceil(cg / 1e5), LT=lt, BT=np.full((2, 2), 1e8),
            capacities=np.array([4, 4]),
        )
        payloads = [
            {"kind": "serve-map",
             "params": {"problem": problem,
                        "mapper": mapper, "seed": 0}}
            for mapper in ("greedy", "geo-distributed", "multilevel")
        ]

        async def main():
            engine = PlacementEngine(EngineConfig(pool_workers=1))
            await engine.start()
            try:
                loop = asyncio.get_running_loop()
                return [await loop.run_in_executor(engine._pool, probe, p)
                        for p in payloads]
            finally:
                await engine.stop()

        loaded_before_start = "repro.baselines" in sys.modules
        rows = asyncio.run(main())
        print(json.dumps({"loaded_before_start": loaded_before_start, "rows": rows}))
        """
    )
    assert report == {"loaded_before_start": False, "rows": [[True, []]] * 3}
