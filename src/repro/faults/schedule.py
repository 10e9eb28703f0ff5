"""Fault schedules: ordered, deterministic collections of fault events.

A :class:`FaultSchedule` is the declarative unit the rest of the system
consumes: the degradation path asks it for capacities / down sites /
link effect matrices *at a time t*, the simulator network asks it for
per-link factors per transfer, and experiment configs serialize it to
JSON.  Schedules are immutable and every query is a pure function of
``(schedule, t)`` — identical schedules produce bit-identical
perturbations (the fault-determinism contract tested in
``tests/faults/test_determinism.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .._validation import InputError, as_rng, check_positive_int
from .events import (
    FaultEvent,
    FlappingLink,
    LatencySpike,
    LinkDegradation,
    SiteCapacityLoss,
    SiteOutage,
    _LinkEvent,
    event_from_dict,
)

__all__ = ["FaultSchedule", "random_schedule"]


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable set of fault events, queried by simulated time."""

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        evs = tuple(self.events)
        for e in evs:
            if not isinstance(e, FaultEvent):
                raise InputError(f"events must be FaultEvent instances, got {e!r}")
        # Canonical order: by start time, then stable by construction order
        # — so two schedules with the same events compare equal regardless
        # of authoring order.
        order = sorted(range(len(evs)), key=lambda i: (evs[i].start_s, i))
        object.__setattr__(self, "events", tuple(evs[i] for i in order))

    # -------------------------------------------------------------- inspection

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    @property
    def empty(self) -> bool:
        return not self.events

    def active_at(self, t: float) -> tuple[FaultEvent, ...]:
        """Events in effect at simulated time ``t``."""
        return tuple(e for e in self.events if e.active_at(t))

    def validate_sites(self, num_sites: int) -> None:
        """Raise if any event references a site outside ``0..num_sites-1``."""
        check_positive_int(num_sites, "num_sites")
        for e in self.events:
            sites: tuple[int, ...]
            if isinstance(e, (SiteOutage, SiteCapacityLoss)):
                sites = (e.site,)
            elif isinstance(e, _LinkEvent):
                sites = (e.src, e.dst)
            else:
                sites = ()
            for s in sites:
                if not 0 <= s < num_sites:
                    raise InputError(
                        f"{e.kind} event references site {s}, but the "
                        f"topology has sites 0..{num_sites - 1}"
                    )

    # ------------------------------------------------------------ site effects

    def sites_down(self, num_sites: int, t: float) -> np.ndarray:
        """(M,) bool mask of sites inside an active outage at ``t``."""
        down = np.zeros(num_sites, dtype=bool)
        for e in self.events:
            if isinstance(e, SiteOutage) and e.active_at(t):
                down[e.site] = True
        return down

    def capacities_at(self, capacities: np.ndarray, t: float) -> np.ndarray:
        """Degraded capacity vector at ``t`` (outage -> 0, losses debited)."""
        caps = np.asarray(capacities, dtype=np.int64).copy()
        for e in self.events:
            if not e.active_at(t):
                continue
            if isinstance(e, SiteOutage):
                caps[e.site] = 0
            elif isinstance(e, SiteCapacityLoss):
                caps[e.site] = min(
                    caps[e.site], e.degraded_capacity(int(capacities[e.site]))
                )
        return caps

    def site_up_from(self, site: int, t: float) -> float:
        """Earliest time >= ``t`` at which ``site`` is outside every outage.

        Returns ``inf`` when a permanent outage covers ``t``.  Chained or
        overlapping outages are resolved by fixed-point iteration.
        """
        cur = t
        outages = [
            e for e in self.events if isinstance(e, SiteOutage) and e.site == site
        ]
        while True:
            hit = next((e for e in outages if e.active_at(cur)), None)
            if hit is None:
                return cur
            if hit.duration_s is None:
                return float("inf")
            cur = hit.end_s

    # ------------------------------------------------------------ link effects

    def link_factors(self, a: int, b: int, t: float) -> tuple[float, float, float]:
        """Combined (lat_mult, lat_add_s, bw_mult) for link a -> b at ``t``.

        Multiple active events compose multiplicatively (additively for
        the latency offset).
        """
        lat_mult, lat_add, bw_mult = 1.0, 0.0, 1.0
        for e in self.events:
            if not isinstance(e, _LinkEvent) or not e.affects(a, b):
                continue
            f = e.factors_at(t)
            if f is None:
                continue
            lat_mult *= f[0]
            lat_add += f[1]
            bw_mult *= f[2]
        return lat_mult, lat_add, bw_mult

    def link_effect_matrices(
        self, num_sites: int, t: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(M, M) (lat_mult, lat_add_s, bw_mult) matrices at ``t``."""
        m = num_sites
        lat_mult = np.ones((m, m))
        lat_add = np.zeros((m, m))
        bw_mult = np.ones((m, m))
        for e in self.events:
            if not isinstance(e, _LinkEvent):
                continue
            f = e.factors_at(t)
            if f is None:
                continue
            pairs = [(e.src, e.dst)]
            if e.symmetric and e.src != e.dst:
                pairs.append((e.dst, e.src))
            for a, b in pairs:
                lat_mult[a, b] *= f[0]
                lat_add[a, b] += f[1]
                bw_mult[a, b] *= f[2]
        return lat_mult, lat_add, bw_mult

    # --------------------------------------------------------------- round-trip

    def to_dicts(self) -> list[dict[str, Any]]:
        return [e.to_dict() for e in self.events]

    @classmethod
    def from_dicts(cls, dicts: Iterable[dict[str, Any]]) -> "FaultSchedule":
        return cls(events=tuple(event_from_dict(d) for d in dicts))

    def to_json(self) -> str:
        return json.dumps(self.to_dicts(), indent=2)

    @classmethod
    def from_json(cls, text: str | bytes) -> "FaultSchedule":
        """Parse a schedule; bad text raises an :class:`InputError` saying what is wrong."""
        try:
            data = json.loads(text)
        except RecursionError:
            raise InputError("fault schedule JSON nests too deeply") from None
        except ValueError as exc:  # bad JSON, or an int past Python's digit limit
            raise InputError(f"fault schedule is not valid JSON: {exc}") from None
        if not isinstance(data, list):
            raise InputError("fault schedule JSON must be a list of events")
        return cls.from_dicts(data)

    def save(self, path: str | Path) -> Path:
        p = Path(path)
        p.write_text(self.to_json() + "\n")
        return p

    @classmethod
    def load(cls, path: str | Path) -> "FaultSchedule":
        return cls.from_json(Path(path).read_bytes())


def random_schedule(
    num_sites: int,
    *,
    seed: int | np.random.Generator | None = 0,
    num_events: int = 3,
    horizon_s: float = 10.0,
    kinds: Sequence[str] = (
        "site-outage",
        "capacity-loss",
        "link-degradation",
        "latency-spike",
        "flapping-link",
    ),
) -> FaultSchedule:
    """Draw a deterministic random fault schedule (seeded, no wall clocks).

    Event kinds are drawn uniformly from ``kinds``, start times uniformly
    in ``[0, horizon_s)``, durations in ``[horizon_s/10, horizon_s/2)``;
    site and link endpoints are drawn uniformly over the topology.  The
    same ``(num_sites, seed, ...)`` arguments always produce the same
    schedule.
    """
    check_positive_int(num_sites, "num_sites")
    check_positive_int(num_events, "num_events")
    if horizon_s <= 0:
        raise InputError(f"horizon_s must be positive, got {horizon_s}")
    rng = as_rng(seed)
    events: list[FaultEvent] = []
    for _ in range(num_events):
        kind = str(rng.choice(list(kinds)))
        start = float(rng.uniform(0.0, horizon_s))
        duration = float(rng.uniform(horizon_s / 10.0, horizon_s / 2.0))
        if kind == "site-outage":
            events.append(
                SiteOutage(site=int(rng.integers(num_sites)), start_s=start,
                           duration_s=duration)
            )
        elif kind == "capacity-loss":
            events.append(
                SiteCapacityLoss(
                    site=int(rng.integers(num_sites)),
                    fraction=float(rng.uniform(0.25, 0.75)),
                    start_s=start,
                    duration_s=duration,
                )
            )
        else:
            src = int(rng.integers(num_sites))
            dst = int(rng.integers(num_sites - 1))
            if dst >= src:
                dst += 1  # distinct endpoints, uniform over ordered pairs
            if kind == "link-degradation":
                events.append(
                    LinkDegradation(
                        src=src, dst=dst,
                        bandwidth_factor=float(rng.uniform(0.05, 0.5)),
                        latency_factor=float(rng.uniform(1.0, 5.0)),
                        start_s=start, duration_s=duration,
                    )
                )
            elif kind == "latency-spike":
                events.append(
                    LatencySpike(
                        src=src, dst=dst,
                        extra_latency_s=float(rng.uniform(0.01, 0.2)),
                        start_s=start, duration_s=duration,
                    )
                )
            elif kind == "flapping-link":
                events.append(
                    FlappingLink(
                        src=src, dst=dst,
                        period_s=float(rng.uniform(horizon_s / 20, horizon_s / 5)),
                        down_fraction=float(rng.uniform(0.2, 0.6)),
                        start_s=start, duration_s=duration,
                    )
                )
            else:
                raise InputError(f"unknown fault kind {kind!r} in kinds")
    return FaultSchedule(events=tuple(events))
