"""Fault injection for geo-distributed deployments.

The paper's premise is that geo-distributed cloud networks are
heterogeneous; real ones are also *unreliable*.  This package models
that: declarative, deterministic fault events (site outages, capacity
loss, link degradation, latency spikes, flapping links) composed into a
:class:`FaultSchedule` that can

* perturb a realized topology / mapping problem at a point in simulated
  time (:func:`degrade_problem`) — the input
  to the incremental repair mapper;
* inject mid-run faults into the discrete-event simulator through the
  time-varying :class:`FaultyNetwork`;
* drive the robustness evaluation harness via the curated
  :func:`standard_fault_suite` and the seeded :func:`random_schedule`.

Everything is a pure function of (schedule, time): no wall clocks, no
hidden state, bit-identical perturbations for identical seeds.
"""

from .events import (
    EVENT_KINDS,
    FaultEvent,
    FlappingLink,
    LatencySpike,
    LinkDegradation,
    SiteCapacityLoss,
    SiteOutage,
    event_from_dict,
)
from .schedule import FaultSchedule, random_schedule
from .degrade import DegradedProblem, degrade_problem
from .simnet import FaultyNetwork, SiteDownError
from .repair import FaultRepairOutcome, repair_after_faults
from .suite import standard_fault_suite

__all__ = [
    "EVENT_KINDS",
    "FaultEvent",
    "FlappingLink",
    "LatencySpike",
    "LinkDegradation",
    "SiteCapacityLoss",
    "SiteOutage",
    "event_from_dict",
    "FaultSchedule",
    "random_schedule",
    "DegradedProblem",
    "degrade_problem",
    "FaultyNetwork",
    "SiteDownError",
    "FaultRepairOutcome",
    "repair_after_faults",
    "standard_fault_suite",
]
