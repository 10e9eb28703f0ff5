"""Robustness evaluation: every mapper against the standard fault suite.

For each (fault schedule, mapper) cell the harness maps the healthy
problem, fires the schedule, repairs incrementally, and re-maps the
degraded problem from scratch with the same algorithm.  The cell then
reports the two numbers the robustness story turns on:

* **cost ratio** — repaired cost / from-scratch cost on the degraded
  topology (how much quality the incremental repair gives up for not
  re-solving), and
* **migration volume** — how many processes actually moved (what the
  from-scratch re-map refuses to bound).

Faults that make the problem infeasible (an outage on a topology with
no capacity slack) are *expected* outcomes, reported as infeasible cells
rather than errors; a crashing mapper, by contrast, raises — so run as
a ``robustness-cell`` task on the sweep fabric (:mod:`repro.exp.fabric`)
it becomes a failed shard without taking the sweep down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from .._validation import as_rng
from ..apps.base import Application
from ..cloud.regions import PAPER_EC2_REGIONS
from ..cloud.topology import CloudTopology
from ..core.mapping import Mapper
from ..core.problem import InfeasibleProblemError, MappingProblem
from ..faults.repair import repair_after_faults
from ..faults.schedule import FaultSchedule
from ..faults.suite import standard_fault_suite
from .report import format_table
from .runner import build_problem
from .scenarios import PAPER_CONSTRAINT_RATIO, Scenario, resolve_app

__all__ = [
    "RobustnessCell",
    "robustness_scenario",
    "evaluate_robustness",
    "robustness_table",
]


@dataclass(frozen=True)
class RobustnessCell:
    """One (fault, mapper) measurement of the robustness harness."""

    fault: str
    mapper: str
    feasible: bool
    base_cost: float
    repaired_cost: float
    scratch_cost: float
    cost_ratio: float
    num_displaced: int
    num_migrated: int
    error: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "fault": self.fault,
            "mapper": self.mapper,
            "feasible": self.feasible,
            "base_cost": self.base_cost,
            "repaired_cost": self.repaired_cost,
            "scratch_cost": self.scratch_cost,
            "cost_ratio": self.cost_ratio,
            "num_displaced": self.num_displaced,
            "num_migrated": self.num_migrated,
            "error": self.error,
        }


def robustness_scenario(
    app: str | Application,
    num_processes: int,
    *,
    num_sites: int = 4,
    slack: float = 2.0,
    constraint_ratio: float = PAPER_CONSTRAINT_RATIO,
    seed: int = 0,
    **app_kwargs: Any,
) -> Scenario:
    """A fault-tolerant variant of the paper's deployment.

    The paper's scenarios provision exactly one node per process, which
    makes *any* site outage infeasible by construction.  Robustness
    studies need headroom: this builds the same regions/instance setup
    but with ``slack * N / M`` nodes per site (default 2x), so losing a
    site leaves enough capacity to repair into.

    ``app`` is a paper app's name or an application to reuse; see
    :func:`~repro.exp.scenarios.resolve_app`.
    """
    if slack < 1.0:
        raise ValueError(f"slack must be >= 1, got {slack}")
    if num_sites < 1 or num_sites > len(PAPER_EC2_REGIONS):
        raise ValueError(
            f"num_sites must be in 1..{len(PAPER_EC2_REGIONS)}, got {num_sites}"
        )
    nodes_per_site = max(1, math.ceil(slack * num_processes / num_sites))
    app = resolve_app(app, num_processes, app_kwargs)
    topology = CloudTopology.from_regions(
        PAPER_EC2_REGIONS[:num_sites],
        nodes_per_site,
        instance_type="m4.xlarge",
        seed=seed,
    )
    problem = build_problem(
        app, topology, constraint_ratio=constraint_ratio, seed=seed
    )
    return Scenario(app=app, topology=topology, problem=problem)


def _evaluate_cell(
    problem: MappingProblem,
    fault_name: str,
    schedule: FaultSchedule,
    mapper_name: str,
    mapper: Mapper,
    *,
    at_time: float,
    seed: int,
    extra_moves: int | None,
    refine_rounds: int,
) -> RobustnessCell:
    """Map, degrade, repair, re-map; one harness cell.

    Seeding is per-cell (a fresh generator from ``seed``), so cells are
    independent of evaluation order — a resumed sweep reproduces the
    exact numbers an uninterrupted one gets.
    """
    from ..obs import get_recorder

    obs = get_recorder()
    with obs.span(
        "robustness.cell", fault=fault_name, mapper=mapper_name
    ) as span:
        base = mapper.map(problem, seed=as_rng(seed))
        nan = float("nan")
        try:
            outcome = repair_after_faults(
                problem,
                base.assignment,
                schedule,
                at_time=at_time,
                on_lost_pin="unpin",
                refine_rounds=refine_rounds,
                extra_moves=extra_moves,
            )
        except InfeasibleProblemError as exc:
            span.set(feasible=False)
            return RobustnessCell(
                fault=fault_name,
                mapper=mapper_name,
                feasible=False,
                base_cost=float(base.cost),
                repaired_cost=nan,
                scratch_cost=nan,
                cost_ratio=nan,
                num_displaced=0,
                num_migrated=0,
                error=str(exc),
            )
        scratch = mapper.map(outcome.degraded.problem, seed=as_rng(seed))
        ratio = (
            outcome.new_cost / scratch.cost if scratch.cost > 0 else float("inf")
        )
        span.set(
            feasible=True,
            cost_ratio=float(ratio),
            num_migrated=outcome.num_migrated,
        )
        return RobustnessCell(
            fault=fault_name,
            mapper=mapper_name,
            feasible=True,
            base_cost=float(base.cost),
            repaired_cost=float(outcome.new_cost),
            scratch_cost=float(scratch.cost),
            cost_ratio=float(ratio),
            num_displaced=int(outcome.result.displaced.shape[0]),
            num_migrated=outcome.num_migrated,
        )


def evaluate_robustness(
    problem: MappingProblem,
    mappers: dict[str, Mapper],
    *,
    suite: dict[str, FaultSchedule] | None = None,
    at_time: float = 1.0,
    seed: int = 0,
    extra_moves: int | None = None,
    refine_rounds: int = 2,
) -> list[RobustnessCell]:
    """Run the full (fault x mapper) grid inline and return every cell."""
    if suite is None:
        suite = standard_fault_suite(problem.num_sites, at_time=at_time)
    return [
        _evaluate_cell(
            problem,
            fname,
            sched,
            mname,
            mapper,
            at_time=at_time,
            seed=seed,
            extra_moves=extra_moves,
            refine_rounds=refine_rounds,
        )
        for fname, sched in suite.items()
        for mname, mapper in mappers.items()
    ]


def robustness_table(cells: list[RobustnessCell]) -> str:
    """Render harness cells as the standard report table."""
    rows = [
        (
            c.fault,
            c.mapper,
            "ok" if c.feasible else "infeasible",
            c.base_cost,
            c.repaired_cost,
            c.scratch_cost,
            c.cost_ratio,
            c.num_migrated,
        )
        for c in cells
    ]
    return format_table(
        (
            "fault", "mapper", "status", "base cost",
            "repaired", "scratch", "ratio", "migrated",
        ),
        rows,
        title="Robustness: incremental repair vs from-scratch re-map",
    )
