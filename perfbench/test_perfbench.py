"""Tests of the benchmark itself.

Run from the repository root with::

    PYTHONPATH=src python3 -m pytest -q perfbench

Tiny runs shrink each workload through its module constants, so every
workload's loop, checks and traced split run in seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import (  # noqa: E402
    common,
    multilevel_sparse,
    paper_apps,
    robustness_sweep,
    run,
    serve_mix,
)
from perfbench.layers import LAYER_METRICS, all_layers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "paper-apps": (paper_apps, {"RANKS": 64, "SETUP_REPEATS": 1, "CLI_RUNS": 1}),
    "multilevel-sparse": (multilevel_sparse, {"N": 2048, "SETUP_REPEATS": 1}),
    "serve-mix": (serve_mix, {"N": 64, "RATE": 10.0, "SETUP_REPEATS": 1}),
    "robustness-sweep": (robustness_sweep, {"PROCESSES": 16, "MIN_SWEEPS": 1}),
}


@pytest.fixture
def tiny(monkeypatch):
    def make(workload: str):
        module, consts = TINY[workload]
        for name, value in consts.items():
            monkeypatch.setattr(module, name, value)
        return module

    return make


@pytest.mark.parametrize("workload", list(TINY))
def test_tiny_traced_run_is_correct_and_complete(tiny, workload):
    rep = tiny(workload).run(seed=3, seconds=1.0, trace=True)
    assert rep.correct, rep.errors
    assert rep.failed == 0 and rep.attempted > 0
    for name in common.HEADLINE:
        assert rep.e2e[name].value > 0, name
    layers = all_layers(rep.layers)  # raises on an undeclared name
    assert set(layers) == {name for name, _, _ in LAYER_METRICS}
    assert rep.stages and rep.stage_total_s > 0


def test_same_seed_same_quality_other_seed_other_inputs(tiny):
    module = tiny("multilevel-sparse")
    a = module.run(seed=5, seconds=0.1, trace=False).e2e["mapping_cost"].value
    b = module.run(seed=5, seconds=0.1, trace=False).e2e["mapping_cost"].value
    c = module.run(seed=6, seconds=0.1, trace=False).e2e["mapping_cost"].value
    assert a == b
    assert a != c


def test_wrong_mappings_trip_the_output_check():
    problem = multilevel_sparse.make_problem(0, 0, n=256)
    from repro.core import MultilevelMapper

    good = MultilevelMapper().map(problem, seed=0)
    assert common.mapping_error(problem, good.assignment, good.cost) == ""
    crowded = np.zeros(256, dtype=np.int64)  # every process on site 0
    assert "infeasible" in common.mapping_error(problem, crowded, good.cost)
    assert "cost" in common.mapping_error(problem, good.assignment, good.cost * 1.01)


def test_a_changed_sweep_row_fails_the_robustness_check():
    row = {"key": "robustness/outage/greedy", "status": "ok",
           "result": {"repaired_cost": 1.0, "feasible": True}}
    tampered = {**row, "result": {**row["result"], "repaired_cost": 1.5}}
    rep = common.Report("robustness-sweep")
    robustness_sweep._check(rep, {"rows": [[row], [tampered]]}, [row])
    assert rep.failed == 1 and not rep.correct


def test_metric_names_and_units_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(common.HEADLINE)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(m) for m in LAYER_METRICS
    ]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_result_line_carries_exactly_the_declared_metrics(tiny):
    rep = tiny("multilevel-sparse").run(seed=1, seconds=0.1, trace=False)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: rep.e2e[name].unit for name in common.HEADLINE} == units


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-apps",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
