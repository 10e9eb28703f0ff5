"""End-to-end experiment runner: profile, map, simulate, measure.

This glues the substrates into the paper's pipeline:

1. **profile** the application (drain its rank programs) -> CG/AG;
2. build the :class:`~repro.core.problem.MappingProblem` against a
   realized cloud topology, with a random constraint vector at the
   requested ratio (paper default 0.2);
3. **map** with each algorithm (timing its optimization overhead);
4. **simulate** the application under each mapping with the
   discrete-event engine, in two modes mirroring the paper's two
   evaluation settings:

   * ``"full"``  — compute + communication (the "Amazon EC2" runs of
     Fig. 5, where computation and I/O time dilute the improvement);
   * ``"comm"``  — communication only (the ns-2 simulations of Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import as_rng, check_fraction
from ..apps.base import Application
from ..cloud.topology import CloudTopology
from ..core.constraints import random_constraints
from ..core.mapping import Mapper, Mapping
from ..core.problem import MappingProblem
from ..simmpi.engine import SimResult, Simulator
from ..simmpi.network import SimNetwork

__all__ = [
    "RunResult",
    "build_problem",
    "simulate_mapping",
    "run_comparison",
]


@dataclass(frozen=True)
class RunResult:
    """One (application, mapper) measurement.

    Attributes
    ----------
    mapping:
        The solution, including its optimization overhead (`elapsed_s`).
    total_time_s:
        Simulated execution time with compute phases enabled.
    comm_time_s:
        Simulated execution time with compute scaled to zero.
    sim:
        The full-mode simulation statistics.
    """

    mapping: Mapping
    total_time_s: float
    comm_time_s: float
    sim: SimResult

    @property
    def mapper(self) -> str:
        return self.mapping.mapper


def build_problem(
    app: Application,
    topology: CloudTopology,
    *,
    constraint_ratio: float = 0.2,
    seed: int | np.random.Generator | None = 0,
) -> MappingProblem:
    """Profile ``app`` and pose its mapping problem on ``topology``.

    The profile is the app's cached one when it has been profiled
    before; the span's ``profile_cached`` attribute says which.

    The constraint vector is drawn randomly at ``constraint_ratio``
    exactly as in the paper's setup (Section 5.1).
    """
    check_fraction(constraint_ratio, "constraint_ratio")
    if topology.total_nodes < app.num_ranks:
        raise ValueError(
            f"topology has {topology.total_nodes} nodes for "
            f"{app.num_ranks} processes"
        )
    from ..obs import get_recorder

    with get_recorder().span(
        "build_problem",
        app=app.name,
        num_processes=app.num_ranks,
        constraint_ratio=constraint_ratio,
        profile_cached=app.profiled,
    ):
        cg, ag = app.communication_matrices()
        constraints = (
            random_constraints(
                app.num_ranks, topology.capacities, constraint_ratio, seed=seed
            )
            if constraint_ratio > 0
            else None
        )
        return MappingProblem.from_topology(cg, ag, topology, constraints=constraints)


def simulate_mapping(
    app: Application,
    problem: MappingProblem,
    assignment: np.ndarray,
    *,
    mode: str = "full",
    contention: bool = True,
) -> SimResult:
    """Simulate ``app`` under a fixed mapping.

    ``mode="full"`` keeps compute phases; ``mode="comm"`` zeroes them.
    Each rank runs from ``app.rank_ops()``, built on the app's first
    simulation and reused by every later simulation of the same ``app``.
    """
    if mode not in ("full", "comm"):
        raise ValueError(f"mode must be 'full' or 'comm', got {mode!r}")
    from ..obs import get_recorder

    network = SimNetwork(problem, assignment, contention=contention)
    with get_recorder().span("simulate." + mode, app=app.name):
        ops = app.rank_ops()
        return Simulator(
            app.num_ranks,
            lambda ctx: ops[ctx.rank],
            network,
            compute_scale=1.0 if mode == "full" else 0.0,
        ).run()


def run_comparison(
    app: Application,
    problem: MappingProblem,
    mappers: dict[str, Mapper],
    *,
    seed: int | np.random.Generator | None = 0,
    simulate: bool = True,
) -> dict[str, RunResult]:
    """Map with every algorithm and simulate each mapping.

    Returns results keyed by the mapper dict's keys.  With
    ``simulate=False`` only the mapping (and its additive cost/overhead)
    is produced — enough for overhead studies like Fig. 4 — and the
    simulated times are NaN.
    """
    from ..obs import get_recorder

    obs = get_recorder()
    rng = as_rng(seed)
    out: dict[str, RunResult] = {}
    for key, mapper in mappers.items():
        with obs.span(
            "comparison.mapper", key=key, mapper=mapper.name, app=app.name
        ) as sp:
            mapping = mapper.map(problem, seed=rng)
            sp.set(cost=mapping.cost, map_elapsed_s=mapping.elapsed_s)
            if simulate:
                full = simulate_mapping(app, problem, mapping.assignment, mode="full")
                comm = simulate_mapping(app, problem, mapping.assignment, mode="comm")
                sp.set(total_time_s=full.makespan_s, comm_time_s=comm.makespan_s)
                out[key] = RunResult(
                    mapping=mapping,
                    total_time_s=full.makespan_s,
                    comm_time_s=comm.makespan_s,
                    sim=full,
                )
                continue
            empty = SimResult(
                makespan_s=float("nan"),
                rank_times_s=np.full(app.num_ranks, np.nan),
                total_messages=0,
                total_bytes=0,
                comm_wait_s=float("nan"),
                barriers=0,
            )
            out[key] = RunResult(
                mapping=mapping,
                total_time_s=float("nan"),
                comm_time_s=float("nan"),
                sim=empty,
            )
    return out
