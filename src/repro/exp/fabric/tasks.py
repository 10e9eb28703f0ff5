"""The fabric's task registry: JSON params in, JSON row out.

Workers are shared-nothing processes, so a task cannot be a closure —
it is a *kind* (a name in this registry) plus a JSON ``params`` dict,
both held by the sweep's manifest and sent to the worker with each
task.  Task functions must be deterministic in
their params (seeds travel inside ``params``); any timing they want to
report goes under a ``"timing"`` sub-dict, which the merge layer strips
when comparing chaotic and fault-free sweeps for payload identity.

Built-in kinds:

``demo``
    A cheap deterministic hash workload with fault-injection knobs
    (``sleep_s``, ``explode``, ``die_signal``) — the substrate for the
    fabric's own tests, benchmarks, and the CI chaos smoke.
``map-cell``
    Map one Fig. 7-style scale scenario with one mapper.  Degrades to
    the Greedy mapper.
``robustness-cell``
    One (fault x mapper) cell of the robustness harness; every cell of
    ``python -m repro robustness`` runs as one.  Degrades to Greedy.

The two cell kinds live in :mod:`.cells`, which this registry imports
the first time either is looked up; this module and the spec builders
import no numpy.

Both cell kinds profile an application once per worker process, not
once per cell, as the paper profiles once and maps many times: a worker
keeps one :class:`~repro.apps.base.Application` per (app, ranks) in a
small memo, and every later cell in that worker poses its problem from
the app's cached, read-only CG/AG.  Profiling was ~99% of a 32-process
robustness cell.  On the traced ``robustness-sweep`` bench (three
10-cell grids, 2 workers, 2-vCPU VM) a sweep's split of spawn +
supervision versus cell work went from 1.23 s / 3.78 s to 0.97 s /
0.31 s.  Forking workers from the supervisor and writing each task's
spans once then cut spawn + supervision to about 0.14 s a sweep, with
cell work about 0.23 s (wall, per worker).  A forked worker starts
with an empty memo, whatever its supervisor's process holds, so its
first cell profiles.  Callers outside the fabric that pass an app name
to the scenario builders still get a fresh app and profile on every
call.

Workers run the kinds registered in the supervisor's process when it
forked them.  :meth:`~repro.exp.fabric.supervisor.SweepFabric.run`
looks up every selected kind before it forks, which imports a built-in
kind's module and everything that module imports.  A kind defined
elsewhere (the serve kinds, a test's kind) must be registered before
``run``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import time
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from ..._validation import InputError
from .spec import TaskSpec

if TYPE_CHECKING:
    from ...apps.base import Application

__all__ = [
    "TaskFn",
    "register_task",
    "get_task",
    "available_tasks",
    "demo_specs",
    "fig7_specs",
    "robustness_specs",
]

TaskFn = Callable[[dict[str, Any]], dict[str, Any]]

_TASK_REGISTRY: dict[str, TaskFn] = {}


def register_task(kind: str) -> Callable[[TaskFn], TaskFn]:
    """Register a task function under ``kind`` (decorator)."""

    def deco(fn: TaskFn) -> TaskFn:
        if kind in _TASK_REGISTRY:
            raise ValueError(f"task kind {kind!r} is already registered")
        _TASK_REGISTRY[kind] = fn
        return fn

    return deco


#: Built-in kinds whose module registers them when it is imported.  They
#: need numpy and the solver stack, so they load on first lookup, not
#: with this module.
_CELL_KINDS = {"map-cell": ".cells", "robustness-cell": ".cells"}


def get_task(kind: str) -> TaskFn:
    """The task function for ``kind``, importing a built-in's module first."""
    if kind not in _TASK_REGISTRY and kind in _CELL_KINDS:
        importlib.import_module(_CELL_KINDS[kind], __package__)
    if kind not in _TASK_REGISTRY:
        raise InputError(f"unknown task kind {kind!r}; available: {available_tasks()}")
    return _TASK_REGISTRY[kind]


def available_tasks() -> list[str]:
    return sorted(set(_TASK_REGISTRY) | set(_CELL_KINDS))


# ------------------------------------------------------------------ builtins


@register_task("demo")
def demo_task(params: dict[str, Any]) -> dict[str, Any]:
    """Deterministic busywork with injectable misbehavior.

    ``work`` rounds of SHA-256 over the canonical params JSON produce a
    digest that is a pure function of the params — the payload two
    sweeps are compared on.  ``sleep_s`` stalls (for timeout tests),
    ``explode`` raises (in-worker failure path), ``die_signal`` kills
    the worker process outright (crash-isolation path).
    """
    sleep_s = float(params.get("sleep_s", 0.0))
    if sleep_s > 0:
        time.sleep(sleep_s)
    if params.get("explode"):
        raise RuntimeError(f"demo task exploded: {params.get('explode')}")
    die = params.get("die_signal")
    if die:
        os.kill(os.getpid(), int(die))
    work = int(params.get("work", 64))
    payload_fields = {
        k: v
        for k, v in params.items()
        if k not in ("sleep_s", "explode", "die_signal")
    }
    digest = json.dumps(payload_fields, sort_keys=True).encode()
    for _ in range(max(1, work)):
        digest = hashlib.sha256(digest).digest()
    return {"digest": digest.hex(), "work": work}


@functools.lru_cache(maxsize=8)
def _shared_app(
    make: Callable[..., Application], name: str, num_ranks: int
) -> Application:
    """``make(name, num_ranks)``, built once per worker process.

    Sharing is safe: an app's ``program`` reads only constructor state,
    and its cached profile is read-only.
    """
    return make(name, num_ranks)


# A forked worker starts with an empty memo, so it profiles on its first
# cell whatever its supervisor's process ran before: a cell's trace (its
# ``profile_cached`` attribute) and its timing do not depend on that.
os.register_at_fork(after_in_child=_shared_app.cache_clear)



# -------------------------------------------------------------- spec builders


def demo_specs(
    num_tasks: int,
    *,
    seed: int = 0,
    work: int = 64,
) -> list[TaskSpec]:
    """``num_tasks`` deterministic demo tasks (CI/bench substrate)."""
    if num_tasks < 1:
        raise InputError(f"num_tasks must be >= 1, got {num_tasks}")
    return [
        TaskSpec(
            key=f"demo/{i:04d}",
            kind="demo",
            params={"index": i, "seed": seed, "work": work},
        )
        for i in range(num_tasks)
    ]


def fig7_specs(
    *,
    app: str = "LU",
    scales: Sequence[int] = (64, 128, 256),
    mappers: Sequence[str] = ("greedy", "geo-distributed"),
    seeds: Iterable[int] = (0,),
    sites: int = 4,
) -> list[TaskSpec]:
    """The Fig. 7 scalability grid as fabric specs.

    Keys read ``fig7/<app>/n<machines>/<mapper>/s<seed>``.
    """
    return [
        TaskSpec(
            key=f"fig7/{app}/n{n}/{mapper}/s{seed}",
            kind="map-cell",
            params={
                "app": app,
                "machines": n,
                "sites": sites,
                "mapper": mapper,
                "seed": seed,
            },
        )
        for n in scales
        for mapper in mappers
        for seed in seeds
    ]


def robustness_specs(
    *,
    app: str = "LU",
    processes: int = 32,
    sites: int = 4,
    slack: float = 2.0,
    constraint_ratio: float = 0.2,
    faults: Sequence[str] = (
        "outage",
        "brownout",
        "latency-spike",
        "capacity-loss",
        "flapping",
    ),
    mappers: Sequence[str] = ("greedy", "geo-distributed"),
    seed: int = 0,
) -> list[TaskSpec]:
    """The (fault x mapper) robustness grid as fabric specs."""
    return [
        TaskSpec(
            key=f"robustness/{fault}/{mapper}",
            kind="robustness-cell",
            params={
                "app": app,
                "processes": processes,
                "sites": sites,
                "slack": slack,
                "constraint_ratio": constraint_ratio,
                "fault": fault,
                "mapper": mapper,
                "seed": seed,
            },
        )
        for fault in faults
        for mapper in mappers
    ]
