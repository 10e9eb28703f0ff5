"""The robustness evaluation harness and its CLI surface."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines import GreedyMapper
from repro.cli import main
from repro.core import GeoDistributedMapper, get_mapper
from repro.exp import evaluate_robustness, robustness_table
from repro.exp.fabric import merge_shards
from repro.exp.robustness import robustness_scenario


@pytest.fixture(scope="module")
def scenario():
    return robustness_scenario(
        "LU", 16, num_sites=4, slack=2.0, seed=0, iterations=2
    )


@pytest.fixture(scope="module")
def mappers():
    return {"Greedy": GreedyMapper(), "Geo": GeoDistributedMapper()}


class TestRobustnessHarness:
    def test_full_grid(self, scenario, mappers):
        cells = evaluate_robustness(scenario.problem, mappers, seed=0)
        assert len(cells) == 5 * len(mappers)  # 5 faults x mappers
        assert all(c.feasible for c in cells)
        n = scenario.problem.num_processes
        for c in cells:
            assert np.isfinite(c.repaired_cost)
            assert c.num_migrated <= c.num_displaced + n // 10

    def test_scenario_has_slack(self, scenario):
        caps = scenario.problem.capacities
        n = scenario.problem.num_processes
        assert caps.sum() - caps.max() >= n  # any single outage survivable

    def test_infeasible_fault_reported_not_raised(self, mappers):
        # Zero slack: an outage cell must come back infeasible, not crash.
        tight = robustness_scenario(
            "LU", 16, num_sites=4, slack=1.0, seed=0, iterations=2
        )
        cells = evaluate_robustness(tight.problem, mappers, seed=0)
        outage = [c for c in cells if c.fault == "outage"]
        assert outage and all(not c.feasible for c in outage)
        assert all("deficit" in c.error for c in outage)

    def test_table_renders(self, scenario, mappers):
        cells = evaluate_robustness(scenario.problem, mappers, seed=0)
        text = robustness_table(cells)
        assert "fault" in text and "ratio" in text
        assert "outage" in text

    def test_bad_scenario_parameters(self):
        with pytest.raises(ValueError, match="slack"):
            robustness_scenario("LU", 16, slack=0.5)
        with pytest.raises(ValueError, match="num_sites"):
            robustness_scenario("LU", 16, num_sites=99)


def _same(a, b):
    """Field-for-field equality that treats NaN as equal to NaN."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


class TestRobustnessCli:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_cli_cells_match_inline(self, tmp_path, capsys, seed):
        mappers = ["baseline", "greedy", "geo-distributed"]
        sweep = tmp_path / "sweep"
        assert main(
            ["robustness", "--app", "LU", "--processes", "16", "--sites", "4",
             "--seed", str(seed), "--sweep-dir", str(sweep)]
        ) == 0
        assert "15 cells, 0 adopted, 0 failed" in capsys.readouterr().out
        rows = [row["result"] for row in merge_shards(sweep, write=False).rows]

        problem = robustness_scenario("LU", 16, num_sites=4, seed=seed).problem
        inline = evaluate_robustness(
            problem, {name: get_mapper(name) for name in mappers}, seed=seed
        )
        assert len(rows) == len(inline) == 15
        for row, cell in zip(rows, inline):
            expected = cell.to_dict()
            assert row.keys() == expected.keys()
            for field, value in expected.items():
                assert _same(row[field], value), (cell.fault, cell.mapper, field)

    def test_cli_limit_then_resume(self, tmp_path, capsys):
        base = [
            "robustness", "--app", "LU", "--processes", "16",
            "--sites", "4", "--faults", "outage", "brownout",
            "--sweep-dir", str(tmp_path / "sweep"),
        ]
        assert main(base + ["--limit", "2"]) == 0
        first = capsys.readouterr().out
        assert "2 cells, 0 adopted, 0 failed" in first

        assert main(base + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "6 cells, 2 adopted, 0 failed" in second

    def test_cli_resume_rejects_sweep_dir_of_other_arguments(
        self, tmp_path, capsys
    ):
        sweep = str(tmp_path / "sweep")
        base = ["robustness", "--sites", "2", "--faults", "outage",
                "--sweep-dir", sweep]
        assert main(base + ["--processes", "8", "--limit", "1"]) == 0
        capsys.readouterr()
        # Same keys, other process count: resuming would replay the
        # 8-process cell as if it were a 16-process one.
        assert main(base + ["--processes", "16", "--resume"]) == 2
        captured = capsys.readouterr()
        assert "robustness/outage/baseline" in captured.err
        assert "Robustness" not in captured.out

    def test_cli_rejects_unknown_fault(self, capsys):
        assert main(
            ["robustness", "--processes", "16", "--faults", "earthquake"]
        ) == 2
        assert "unknown faults" in capsys.readouterr().err

    def test_cli_resume_requires_sweep_dir(self, capsys):
        assert main(["robustness", "--resume"]) == 2
        assert "--sweep-dir" in capsys.readouterr().err
