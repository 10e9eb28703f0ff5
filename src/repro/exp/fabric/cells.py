"""The fabric's cell kinds: ``map-cell`` and ``robustness-cell``.

Everything the two tasks run is imported here, at module level.  The
task registry imports this module the first time either kind is looked
up, and :meth:`~repro.exp.fabric.supervisor.SweepFabric.run` looks up
every selected kind before it forks its workers, so the workers inherit
the solver stack instead of each importing it on its first cell.  The
registry and the spec builders stay in :mod:`.tasks`, which imports no
numpy, so writing a sweep stays cheap.
"""

from __future__ import annotations

import hashlib
from typing import Any

# Reading the mapper registry imports the baselines; import them here
# so that happens before a fork, not in each worker's first cell.
from ... import baselines  # noqa: F401
from ..._validation import InputError
from ...apps import make_paper_app
from ...core import get_mapper
from ...faults.suite import standard_fault_suite
from ..robustness import evaluate_robustness, robustness_scenario
from ..scenarios import PAPER_CONSTRAINT_RATIO, scale_app, scale_scenario
from .tasks import _shared_app, register_task

__all__ = ["map_cell_task", "robustness_cell_task"]


def _mapper_from_params(params: dict[str, Any]) -> Any:
    name = str(params.get("mapper", "greedy"))
    kwargs: dict[str, Any] = {}
    if name == "geo-distributed" and "kappa" in params:
        kwargs["kappa"] = int(params["kappa"])
    return get_mapper(name, **kwargs)


@register_task("map-cell")
def map_cell_task(params: dict[str, Any]) -> dict[str, Any]:
    """One (scale, mapper) cell of the Fig. 7 scalability grid.

    Params: ``app``, ``machines``, ``sites`` (default 4),
    ``constraint_ratio`` (default 0.2), ``seed``, ``mapper``, optional
    ``kappa``.
    """
    machines = int(params["machines"])
    scenario = scale_scenario(
        _shared_app(scale_app, str(params.get("app", "LU")), machines),
        machines,
        num_sites=int(params.get("sites", 4)),
        constraint_ratio=float(
            params.get("constraint_ratio", PAPER_CONSTRAINT_RATIO)
        ),
        seed=int(params.get("seed", 0)),
    )
    mapper = _mapper_from_params(params)
    mapping = mapper.map(scenario.problem, seed=int(params.get("seed", 0)))
    return {
        "app": scenario.app.name,
        "machines": machines,
        "mapper": mapping.mapper,
        "cost": float(mapping.cost),
        "assignment_sha": hashlib.sha256(
            mapping.assignment.tobytes()
        ).hexdigest(),
        "timing": {"map_elapsed_s": float(mapping.elapsed_s)},
    }


@register_task("robustness-cell")
def robustness_cell_task(params: dict[str, Any]) -> dict[str, Any]:
    """One (fault x mapper) cell of the robustness harness.

    Params: ``app``, ``processes``, ``sites``, ``slack``,
    ``constraint_ratio``, ``seed``, ``fault`` (a standard-suite name),
    ``mapper`` (a registry name).
    """
    processes = int(params["processes"])
    scenario = robustness_scenario(
        _shared_app(make_paper_app, str(params.get("app", "LU")), processes),
        processes,
        num_sites=int(params.get("sites", 4)),
        slack=float(params.get("slack", 2.0)),
        constraint_ratio=float(params.get("constraint_ratio", 0.2)),
        seed=int(params.get("seed", 0)),
    )
    suite = standard_fault_suite(scenario.problem.num_sites)
    fault = str(params["fault"])
    if fault not in suite:
        raise InputError(f"unknown fault {fault!r}; available: {sorted(suite)}")
    mapper = _mapper_from_params(params)
    cells = evaluate_robustness(
        scenario.problem,
        {str(params.get("mapper", "greedy")): mapper},
        suite={fault: suite[fault]},
        seed=int(params.get("seed", 0)),
    )
    return cells[0].to_dict()
