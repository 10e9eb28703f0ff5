"""Canonical experiment setups from the paper's Section 5.1.

* the EC2 deployment: 4 regions (US East, US West, Singapore, Ireland)
  x 16 m4.xlarge instances, one process per instance, 64 processes,
  constraint ratio 0.2;
* the simulation scales: 4 regions, machines evenly split, total node
  counts 64, 128, ..., 8192;
* the overhead scales of Fig. 4: (sites/processes) = 1/32, 2/64, 4/64,
  4/128, 4/256.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..apps import make_paper_app
from ..apps.base import Application
from ..cloud.regions import PAPER_EC2_REGIONS
from ..cloud.topology import CloudTopology
from ..core.mapping import Mapper
from ..core.problem import MappingProblem
from .runner import build_problem

__all__ = [
    "PAPER_CONSTRAINT_RATIO",
    "OVERHEAD_SCALES",
    "SIMULATION_SCALES",
    "Scenario",
    "paper_ec2_scenario",
    "resolve_app",
    "scale_app",
    "scale_scenario",
    "default_mappers",
]

#: Default fraction of pinned processes (Section 5.1).
PAPER_CONSTRAINT_RATIO = 0.2

#: Fig. 4's x-axis: (number of sites, number of processes).
OVERHEAD_SCALES: tuple[tuple[int, int], ...] = (
    (1, 32),
    (2, 64),
    (4, 64),
    (4, 128),
    (4, 256),
)

#: Fig. 7's x-axis: total machine counts in the scaling simulations.
SIMULATION_SCALES: tuple[int, ...] = (64, 128, 256, 512, 1024, 2048, 4096, 8192)

#: Iteration counts used when instantiating the paper apps at large rank
#: counts — the communication *pattern* per iteration is scale-invariant,
#: so fewer iterations keep big simulations tractable without changing
#: which mapping wins.
_SCALE_ITERATIONS = {"LU": 10, "BT": 8, "SP": 8}


@dataclass(frozen=True)
class Scenario:
    """A ready-to-run experiment: application + topology + problem."""

    app: Application
    topology: CloudTopology
    problem: MappingProblem


def paper_ec2_scenario(
    app_name: str,
    *,
    constraint_ratio: float = PAPER_CONSTRAINT_RATIO,
    seed: int = 0,
    **app_kwargs,
) -> Scenario:
    """The paper's EC2 deployment for one of its five applications."""
    app = make_paper_app(app_name, 64, **app_kwargs)
    topology = CloudTopology.from_regions(
        PAPER_EC2_REGIONS, 16, instance_type="m4.xlarge", seed=seed
    )
    problem = build_problem(
        app, topology, constraint_ratio=constraint_ratio, seed=seed
    )
    return Scenario(app=app, topology=topology, problem=problem)


def scale_app(app_name: str, machines: int, **app_kwargs) -> Application:
    """A paper app as the Fig. 7 scales run it (fewer NPB iterations)."""
    kwargs = dict(app_kwargs)
    if app_name in _SCALE_ITERATIONS and "iterations" not in kwargs:
        kwargs["iterations"] = _SCALE_ITERATIONS[app_name]
    return make_paper_app(app_name, machines, **kwargs)


def resolve_app(
    app: str | Application,
    num_ranks: int,
    app_kwargs: dict,
    make: Callable[..., Application] = make_paper_app,
) -> Application:
    """``make(app, num_ranks, **app_kwargs)`` for a name; ``app`` itself
    for an :class:`Application` with ``num_ranks`` ranks.

    A fresh app is profiled by whoever poses its problem; a passed-in
    app brings its cached profile along, so callers that pose many
    problems for one app profile it once.
    """
    if isinstance(app, str):
        return make(app, num_ranks, **app_kwargs)
    if app_kwargs:
        raise TypeError(
            f"app keyword arguments {sorted(app_kwargs)} need an app name, "
            f"not an instance of {type(app).__name__}"
        )
    if app.num_ranks != num_ranks:
        raise ValueError(f"app has {app.num_ranks} ranks, scenario needs {num_ranks}")
    return app


def scale_scenario(
    app: str | Application,
    machines: int,
    *,
    num_sites: int = 4,
    constraint_ratio: float = PAPER_CONSTRAINT_RATIO,
    seed: int = 0,
    **app_kwargs,
) -> Scenario:
    """A Fig. 7-style simulation scale: machines split over 4 regions.

    ``app`` is a paper app's name (built by :func:`scale_app`) or an
    application to reuse; see :func:`resolve_app`.
    """
    if machines % num_sites != 0:
        raise ValueError(
            f"machines ({machines}) must divide evenly over {num_sites} sites"
        )
    if num_sites > len(PAPER_EC2_REGIONS):
        raise ValueError(
            f"at most {len(PAPER_EC2_REGIONS)} paper regions available, "
            f"got num_sites={num_sites}"
        )
    app = resolve_app(app, machines, app_kwargs, scale_app)
    topology = CloudTopology.from_regions(
        PAPER_EC2_REGIONS[:num_sites],
        machines // num_sites,
        instance_type="m4.xlarge",
        seed=seed,
    )
    problem = build_problem(
        app, topology, constraint_ratio=constraint_ratio, seed=seed
    )
    return Scenario(app=app, topology=topology, problem=problem)


def default_mappers(*, include_mpipp: bool = True, kappa: int = 4) -> dict[str, Mapper]:
    """The paper's four compared approaches, keyed by their figure labels."""
    from ..baselines.greedy import GreedyMapper
    from ..baselines.mpipp import MPIPPMapper
    from ..baselines.random_mapping import RandomMapper
    from ..core.geodist import GeoDistributedMapper

    mappers: dict[str, Mapper] = {
        "Baseline": RandomMapper(),
        "Greedy": GreedyMapper(),
    }
    if include_mpipp:
        mappers["MPIPP"] = MPIPPMapper()
    mappers["Geo-distributed"] = GeoDistributedMapper(kappa=kappa)
    return mappers
