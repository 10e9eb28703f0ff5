"""Process-isolated sweep fabric: crash-proof shared-nothing fan-out.

Each scenario is a 1:1 map from a spec in the sweep's manifest to a
result-shard file, executed by a supervised pool of worker *processes*.  The
supervisor (:class:`SweepFabric`) owns deadlines, crash isolation,
deterministic backoff, poison-task quarantine, heartbeat liveness, and
atomic shards; :func:`merge_shards` folds the shards into one
input-ordered result table; :class:`ChaosInjector` deterministically
kills, hangs, freezes, and delays workers for testing.

Quick start::

    from repro.exp.fabric import (
        FabricConfig, SweepFabric, demo_specs, merge_shards, write_sweep,
    )

    write_sweep("sweep/", demo_specs(64))
    report = SweepFabric("sweep/", config=FabricConfig(workers=4)).run()
    table = merge_shards("sweep/")
"""

from .chaos import CHAOS_ACTIONS, ChaosConfig, ChaosInjector
from .io import atomic_write_json, read_json, sweep_stale_tmp
from .merge import (
    MergeResult,
    comparable_rows,
    diff_results,
    merge_shards,
    results_equivalent,
)
from .spec import (
    SHARD_STATUSES,
    FabricError,
    SweepLayout,
    TaskSpec,
    load_manifest,
    load_shard,
    write_shard,
    write_sweep,
)
from .supervisor import FabricConfig, FabricReport, SweepFabric
from .tasks import (
    available_tasks,
    demo_specs,
    fig7_specs,
    get_task,
    register_task,
    robustness_specs,
)

__all__ = [
    "CHAOS_ACTIONS",
    "ChaosConfig",
    "ChaosInjector",
    "FabricConfig",
    "FabricError",
    "FabricReport",
    "MergeResult",
    "SHARD_STATUSES",
    "SweepFabric",
    "SweepLayout",
    "TaskSpec",
    "atomic_write_json",
    "available_tasks",
    "comparable_rows",
    "demo_specs",
    "diff_results",
    "fig7_specs",
    "get_task",
    "load_manifest",
    "load_shard",
    "merge_shards",
    "read_json",
    "register_task",
    "results_equivalent",
    "robustness_specs",
    "sweep_stale_tmp",
    "write_shard",
    "write_sweep",
]
