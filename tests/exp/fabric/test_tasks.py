"""Task registry, built-in task kinds, and spec builders."""

from __future__ import annotations

import pytest

from repro._validation import InputError
from repro.exp.fabric import (
    available_tasks,
    demo_specs,
    fig7_specs,
    get_task,
    register_task,
    robustness_specs,
)


class TestRegistry:
    def test_builtins_registered(self):
        assert {"demo", "map-cell", "robustness-cell"} <= set(available_tasks())

    def test_unknown_kind_raises_with_catalog(self):
        with pytest.raises(InputError, match="available"):
            get_task("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_task("demo")
            def clash(params):
                return {}


class TestDemoTask:
    def test_deterministic_in_params(self):
        fn = get_task("demo")
        a = fn({"index": 3, "seed": 0, "work": 8})
        b = fn({"index": 3, "seed": 0, "work": 8})
        assert a == b

    def test_fault_knobs_do_not_change_payload(self):
        fn = get_task("demo")
        base = fn({"index": 1, "work": 4})
        delayed = fn({"index": 1, "work": 4, "sleep_s": 0.001})
        assert base == delayed

    def test_different_params_different_digest(self):
        fn = get_task("demo")
        assert fn({"index": 1, "work": 4}) != fn({"index": 2, "work": 4})

    def test_explode_raises(self):
        with pytest.raises(RuntimeError, match="exploded"):
            get_task("demo")({"explode": "test"})


class TestMapCellTask:
    def test_small_cell_runs(self):
        row = get_task("map-cell")(
            {"app": "LU", "machines": 16, "sites": 4, "mapper": "greedy",
             "seed": 0}
        )
        assert row["app"] == "LU"
        assert row["mapper"]
        assert row["cost"] >= 0
        assert len(row["assignment_sha"]) == 64
        assert "map_elapsed_s" in row["timing"]

    def test_deterministic_payload(self):
        fn = get_task("map-cell")
        params = {"app": "LU", "machines": 16, "mapper": "greedy", "seed": 0}
        a, b = fn(dict(params)), fn(dict(params))
        a.pop("timing"), b.pop("timing")
        assert a == b


class TestRobustnessCellTask:
    def test_single_cell_runs(self):
        row = get_task("robustness-cell")(
            {"app": "LU", "processes": 16, "sites": 4, "fault": "outage",
             "mapper": "greedy", "seed": 0}
        )
        assert row["fault"] == "outage"

    def test_unknown_fault_rejected(self):
        with pytest.raises(InputError, match="available"):
            get_task("robustness-cell")(
                {"app": "LU", "processes": 16, "fault": "asteroid",
                 "mapper": "greedy"}
            )


class TestSpecBuilders:
    def test_demo_specs(self):
        specs = demo_specs(5, seed=2)
        assert len(specs) == 5
        assert len({s.key for s in specs}) == 5
        assert all(s.kind == "demo" for s in specs)

    def test_demo_specs_validates(self):
        with pytest.raises(ValueError):
            demo_specs(0)

    def test_fig7_specs_cover_grid(self):
        specs = fig7_specs(
            scales=(64, 128), mappers=("greedy", "baseline"), seeds=(0, 1)
        )
        assert len(specs) == 2 * 2 * 2
        assert all(s.kind == "map-cell" for s in specs)
        # Each cell runs the mapper its key names, on every attempt.
        assert all(s.key.split("/")[3] == s.params["mapper"] for s in specs)

    def test_robustness_specs_cover_grid(self):
        specs = robustness_specs(
            faults=("outage", "flapping"), mappers=("greedy",)
        )
        assert len(specs) == 2
        assert all(s.kind == "robustness-cell" for s in specs)
