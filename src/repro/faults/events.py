"""Declarative fault event types.

Each event is an immutable dataclass with an activation window in
*simulated* seconds (``start_s`` plus an optional ``duration_s``;
``None`` means the fault never clears) and a ``kind`` tag used by the
dict/JSON round-trip, so fault suites can be written as plain data::

    {"kind": "site-outage", "site": 2, "start_s": 10.0}
    {"kind": "link-degradation", "src": 0, "dst": 3,
     "bandwidth_factor": 0.1, "latency_factor": 4.0}

Two event families exist:

* **site events** (:class:`SiteOutage`, :class:`SiteCapacityLoss`)
  change where processes may live — they feed the degradation/repair
  path;
* **link events** (:class:`LinkDegradation`, :class:`LatencySpike`,
  :class:`FlappingLink`) change how much links cost — they feed both
  the degraded cost matrices and the time-varying simulator network.

All effects are pure functions of the event fields and the query time:
no randomness, no wall clocks (the repro-lint RPR005 contract).
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import reprlib
from dataclasses import dataclass
from typing import Any, ClassVar, Mapping

from .._validation import InputError, check_fraction, check_nonnegative_int

__all__ = [
    "FaultEvent",
    "SiteOutage",
    "SiteCapacityLoss",
    "LinkDegradation",
    "LatencySpike",
    "FlappingLink",
    "EVENT_KINDS",
    "event_from_dict",
]


def _check_real(value: Any, name: str) -> None:
    """Raise unless ``value`` is a finite real number (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{name} must be a number, got {type(value).__name__}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise InputError(f"{name} must be finite, got {reprlib.repr(value)}")


@dataclass(frozen=True, slots=True, kw_only=True)
class FaultEvent:
    """Common fault-event machinery: the activation window and (de)serialization.

    Subclasses add their payload fields and set ``kind``.
    """

    start_s: float = 0.0
    duration_s: float | None = None

    kind: ClassVar[str] = "abstract"

    def __post_init__(self) -> None:
        _check_real(self.start_s, "start_s")
        if self.start_s < 0:
            raise InputError(f"start_s must be >= 0, got {self.start_s}")
        if self.duration_s is not None:
            _check_real(self.duration_s, "duration_s")
            if self.duration_s <= 0:
                raise InputError(
                    f"duration_s must be positive or None, got {self.duration_s}"
                )

    # ----------------------------------------------------------------- window

    @property
    def end_s(self) -> float:
        """Deactivation time; ``inf`` for permanent faults."""
        if self.duration_s is None:
            return float("inf")
        return self.start_s + self.duration_s

    def active_at(self, t: float) -> bool:
        """Whether the fault is in effect at simulated time ``t``."""
        return self.start_s <= t < self.end_s

    # ------------------------------------------------------------- round-trip

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form: ``{"kind": ..., <fields>}``."""
        out: dict[str, Any] = {"kind": self.kind}
        for f in dataclasses.fields(self):
            out[f.name] = getattr(self, f.name)
        return out


@dataclass(frozen=True, slots=True, kw_only=True)
class SiteOutage(FaultEvent):
    """A whole site goes dark: capacity drops to zero, links unusable."""

    site: int = 0

    kind: ClassVar[str] = "site-outage"

    def __post_init__(self) -> None:
        FaultEvent.__post_init__(self)
        check_nonnegative_int(self.site, "site")


@dataclass(frozen=True, slots=True, kw_only=True)
class SiteCapacityLoss(FaultEvent):
    """A site loses ``fraction`` of its nodes (rack failure, preemption)."""

    site: int = 0
    fraction: float = 0.5

    kind: ClassVar[str] = "capacity-loss"

    def __post_init__(self) -> None:
        FaultEvent.__post_init__(self)
        check_nonnegative_int(self.site, "site")
        _check_real(self.fraction, "fraction")
        check_fraction(self.fraction, "fraction")
        if self.fraction == 0.0:
            raise InputError("fraction must be > 0 (0 would be a no-op fault)")

    def degraded_capacity(self, capacity: int) -> int:
        """Nodes left after the loss (never below zero)."""
        return max(0, capacity - int(round(self.fraction * capacity)))


class _LinkEvent(FaultEvent):
    """Shared site-pair plumbing for the link fault family."""

    __slots__ = ()

    def _check_fields(self, *reals: str) -> None:
        """Check the site pair, ``symmetric``, and the named real fields."""
        for name in ("src", "dst"):
            check_nonnegative_int(getattr(self, name), name)
        symmetric = getattr(self, "symmetric")
        if not isinstance(symmetric, bool):
            raise InputError(f"symmetric must be a bool, got {type(symmetric).__name__}")
        for name in reals:
            _check_real(getattr(self, name), name)

    def affects(self, a: int, b: int) -> bool:
        """Whether the directed link a -> b is covered by this event."""
        if (a, b) == (self.src, self.dst):  # type: ignore[attr-defined]
            return True
        return bool(self.symmetric) and (b, a) == (self.src, self.dst)  # type: ignore[attr-defined]

    def factors_at(self, t: float) -> tuple[float, float, float] | None:
        """(latency_mult, latency_add_s, bandwidth_mult) at ``t``, or None."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True, kw_only=True)
class LinkDegradation(_LinkEvent):
    """A link browns out: bandwidth scaled down, latency scaled up."""

    src: int = 0
    dst: int = 1
    bandwidth_factor: float = 0.1
    latency_factor: float = 1.0
    symmetric: bool = True

    kind: ClassVar[str] = "link-degradation"

    def __post_init__(self) -> None:
        FaultEvent.__post_init__(self)
        self._check_fields("bandwidth_factor", "latency_factor")
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise InputError(
                f"bandwidth_factor must be in (0, 1], got {self.bandwidth_factor}"
            )
        if self.latency_factor < 1.0:
            raise InputError(
                f"latency_factor must be >= 1, got {self.latency_factor}"
            )

    def factors_at(self, t: float) -> tuple[float, float, float] | None:
        if not self.active_at(t):
            return None
        return self.latency_factor, 0.0, self.bandwidth_factor


@dataclass(frozen=True, slots=True, kw_only=True)
class LatencySpike(_LinkEvent):
    """Additive latency on a link (routing flap, congestion incident)."""

    src: int = 0
    dst: int = 1
    extra_latency_s: float = 0.1
    symmetric: bool = True

    kind: ClassVar[str] = "latency-spike"

    def __post_init__(self) -> None:
        FaultEvent.__post_init__(self)
        self._check_fields("extra_latency_s")
        if self.extra_latency_s <= 0:
            raise InputError(
                f"extra_latency_s must be positive, got {self.extra_latency_s}"
            )

    def factors_at(self, t: float) -> tuple[float, float, float] | None:
        if not self.active_at(t):
            return None
        return 1.0, self.extra_latency_s, 1.0


@dataclass(frozen=True, slots=True, kw_only=True)
class FlappingLink(_LinkEvent):
    """A link that periodically browns out: each ``period_s`` cycle spends
    ``down_fraction`` of its length degraded by the given factors.

    Modeled as a periodic :class:`LinkDegradation` rather than a hard
    up/down square wave so that mid-run injection can never deadlock the
    simulator — transfers during a down window get slower, not stuck.
    """

    src: int = 0
    dst: int = 1
    period_s: float = 1.0
    down_fraction: float = 0.5
    bandwidth_factor: float = 0.05
    latency_factor: float = 10.0
    symmetric: bool = True

    kind: ClassVar[str] = "flapping-link"

    def __post_init__(self) -> None:
        FaultEvent.__post_init__(self)
        self._check_fields("period_s", "down_fraction", "bandwidth_factor", "latency_factor")
        if self.period_s <= 0:
            raise InputError(f"period_s must be positive, got {self.period_s}")
        check_fraction(self.down_fraction, "down_fraction")
        if self.down_fraction == 0.0:
            raise InputError("down_fraction must be > 0 (0 would be a no-op)")
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise InputError(
                f"bandwidth_factor must be in (0, 1], got {self.bandwidth_factor}"
            )
        if self.latency_factor < 1.0:
            raise InputError(
                f"latency_factor must be >= 1, got {self.latency_factor}"
            )

    def down_at(self, t: float) -> bool:
        """Whether ``t`` falls inside a down window of the flap cycle."""
        if not self.active_at(t):
            return False
        phase = (t - self.start_s) % self.period_s
        return phase < self.down_fraction * self.period_s

    def factors_at(self, t: float) -> tuple[float, float, float] | None:
        if not self.down_at(t):
            return None
        return self.latency_factor, 0.0, self.bandwidth_factor


#: Registry for the dict/JSON round-trip, keyed by the ``kind`` tag.
EVENT_KINDS: dict[str, type[FaultEvent]] = {
    cls.kind: cls
    for cls in (SiteOutage, SiteCapacityLoss, LinkDegradation, LatencySpike, FlappingLink)
}


def event_from_dict(data: Mapping[str, Any]) -> FaultEvent:
    """Rebuild an event from its :meth:`FaultEvent.to_dict` form."""
    if not isinstance(data, Mapping):
        raise InputError(f"a fault event must be an object, got {type(data).__name__}")
    payload = dict(data)
    kind = payload.pop("kind", None)
    if not isinstance(kind, str) or kind not in EVENT_KINDS:
        raise InputError(
            f"unknown fault kind {reprlib.repr(kind)}; known: {sorted(EVENT_KINDS)}"
        )
    cls = EVENT_KINDS[kind]
    valid = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - valid
    if unknown:
        raise InputError(
            f"unknown field(s) {reprlib.repr(sorted(unknown, key=str))} for fault kind {kind!r}"
        )
    return cls(**payload)
