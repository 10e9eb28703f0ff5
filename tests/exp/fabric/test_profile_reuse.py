"""Cell tasks profile an application once per worker process.

The fabric's cell kinds keep one app per (app, ranks) in each worker,
so only the first cell pays the profiling simulation.  Direct callers of
the scenario builders still get a fresh app, and profile, every call.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.apps.base import Application
from repro.exp.fabric import (
    FabricConfig,
    SweepFabric,
    SweepLayout,
    comparable_rows,
    diff_results,
    get_task,
    merge_shards,
    read_json,
    results_equivalent,
    robustness_specs,
    write_shard,
    write_sweep,
)
from repro.exp.fabric import tasks
from repro.exp.robustness import robustness_scenario
from repro.exp.scenarios import scale_scenario
from repro.obs import recording

#: sha256 of the canonical payload (``comparable_rows``, timing
#: stripped) of ``robustness_specs(processes=32)`` merged, as computed
#: when every cell built and profiled its own app (v2 shard rows).
ROBUSTNESS_32_SHA = "9aef1527e7aa908ae809562e4a3516896c337b0d71aba188a17878ec4be6b590"


@pytest.fixture
def profiles(monkeypatch):
    """Count ``Application.profile`` calls, starting from an empty memo."""
    calls: list[tuple[str, int]] = []
    real = Application.profile

    def counting(self, **kwargs):
        calls.append((self.name, self.num_ranks))
        return real(self, **kwargs)

    monkeypatch.setattr(Application, "profile", counting)
    tasks._shared_app.cache_clear()
    yield calls
    tasks._shared_app.cache_clear()


def _robustness(processes, fault, mapper, seed):
    return get_task("robustness-cell")(
        {"app": "LU", "processes": processes, "sites": 4, "fault": fault,
         "mapper": mapper, "seed": seed}
    )


def test_robustness_cells_profile_once_per_app_and_ranks(profiles):
    _robustness(16, "outage", "greedy", 0)
    _robustness(16, "brownout", "geo-distributed", 1)
    _robustness(16, "flapping", "greedy", 2)
    assert profiles == [("LU", 16)]
    _robustness(24, "outage", "greedy", 0)
    assert profiles == [("LU", 16), ("LU", 24)]


def test_map_cells_profile_once_per_app_and_machines(profiles):
    fn = get_task("map-cell")
    fn({"app": "LU", "machines": 16, "mapper": "greedy", "seed": 0})
    fn({"app": "LU", "machines": 16, "mapper": "geo-distributed", "seed": 1})
    assert profiles == [("LU", 16)]
    fn({"app": "LU", "machines": 32, "mapper": "greedy", "seed": 0})
    assert profiles == [("LU", 16), ("LU", 32)]


def test_direct_scenario_builders_profile_every_call(profiles):
    robustness_scenario("LU", 16, iterations=2)
    robustness_scenario("LU", 16, iterations=2)
    scale_scenario("LU", 16)
    scale_scenario("LU", 16)
    assert profiles == [("LU", 16)] * 4


def _sha(rows):
    return hashlib.sha256(
        json.dumps(comparable_rows(rows), sort_keys=True).encode()
    ).hexdigest()


def test_one_worker_sweep_matches_a_fresh_app_per_cell(tmp_path, profiles):
    specs = robustness_specs(processes=32)
    assert len(specs) == 10
    shared = tmp_path / "shared"
    write_sweep(shared, specs)
    report = SweepFabric(shared, config=FabricConfig(workers=1)).run()
    assert report.ok and report.worker_restarts == 0
    rows = merge_shards(shared).rows

    fresh = tmp_path / "fresh"
    write_sweep(fresh, specs)
    for spec in specs:
        tasks._shared_app.cache_clear()
        write_shard(fresh, spec.key, status="ok",
                    result=get_task(spec.kind)(dict(spec.params)),
                    error=None, attempts=1, elapsed_s=0.0, worker="in-process")
    assert len(profiles) == len(specs)
    reference = merge_shards(fresh, write=False).rows

    assert results_equivalent(rows, reference), diff_results(rows, reference)[:2]
    assert _sha(rows) == ROBUSTNESS_32_SHA


def test_forked_worker_starts_with_an_empty_memo(tmp_path, profiles):
    _robustness(16, "outage", "greedy", 0)  # memoized in this process
    write_sweep(tmp_path, robustness_specs(
        processes=16, faults=("outage", "brownout"), mappers=("greedy",)
    ))
    with recording():
        assert SweepFabric(tmp_path, config=FabricConfig(workers=1)).run().ok

    def walk(spans):
        for span in spans:
            yield span
            yield from walk(span["children"])

    cached = [
        s["attrs"]["profile_cached"]
        for s in walk(read_json(SweepLayout(tmp_path).trace_path)["spans"])
        if s["name"] == "build_problem"
    ]
    assert cached == [False, True]  # the worker's own first cell profiles
