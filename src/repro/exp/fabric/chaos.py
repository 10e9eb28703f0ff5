"""Deterministic chaos injection for fabric workers.

A :class:`ChaosInjector` decides, purely from ``(seed, task key,
attempt)``, whether a worker should be SIGKILLed, hung, frozen, or
delayed while running that attempt — the :class:`~repro.faults.schedule.
FaultSchedule` idiom applied to the execution layer: immutable config,
every query a pure function, identical configs produce bit-identical
chaos.  No RNG object is ever held; the decision is a SHA-256 hash of
the coordinates, so injection is independent of evaluation order and of
how many times the supervisor restarts.

Actions (executed cooperatively by the worker, so the kills are *real*
SIGKILLs and the hangs are real non-returning calls):

``kill``
    SIGKILL self before running the task — a crash the supervisor must
    survive and retry.
``kill-mid-write``
    Run the task, then SIGKILL self after the shard temp file is synced
    but before the atomic rename — the durability torture case.
``kill-after-write``
    Run the task, write the shard, then SIGKILL self before reporting —
    the supervisor must adopt the orphaned-but-valid shard.
``hang``
    Never return (heartbeats continue); only the per-task deadline can
    reclaim the worker.
``freeze``
    SIGSTOP self — the whole process, heartbeat thread included, stops;
    only heartbeat-liveness detection can reclaim the worker.
``delay``
    Sleep ``delay_s`` then run normally — exercises queue timing without
    failing anything.

By default chaos applies only to a task's first attempt
(``chaos_attempts=1``), so every task still converges and a chaotic
sweep's merged payload is bit-identical to a fault-free run.  Raising
``chaos_attempts`` past the retry budget turns chaos into a poison-task
generator for quarantine testing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Any, Mapping

from ..._validation import InputError

__all__ = ["CHAOS_ACTIONS", "ChaosConfig", "ChaosInjector"]

#: Action names in cumulative-probability order.
CHAOS_ACTIONS = (
    "kill",
    "kill-mid-write",
    "kill-after-write",
    "hang",
    "freeze",
    "delay",
)

#: dataclass field name for each action (dashes are not identifiers).
_ACTION_FIELDS = {a: a.replace("-", "_") for a in CHAOS_ACTIONS}


@dataclass(frozen=True)
class ChaosConfig:
    """Per-action injection probabilities plus the deterministic seed."""

    seed: int = 0
    kill: float = 0.0
    kill_mid_write: float = 0.0
    kill_after_write: float = 0.0
    hang: float = 0.0
    freeze: float = 0.0
    delay: float = 0.0
    delay_s: float = 0.05
    chaos_attempts: int = 1

    def __post_init__(self) -> None:
        total = 0.0
        for action in CHAOS_ACTIONS:
            frac = getattr(self, _ACTION_FIELDS[action])
            if not 0.0 <= frac <= 1.0:
                raise InputError(
                    f"chaos fraction {action}={frac} outside [0, 1]"
                )
            total += frac
        if total > 1.0 + 1e-9:
            raise InputError(
                f"chaos fractions sum to {total:.3f} > 1; leave room for "
                "unharmed attempts"
            )
        if self.delay_s < 0:
            raise InputError(f"delay_s must be >= 0, got {self.delay_s}")
        if self.chaos_attempts < 1:
            raise InputError(
                f"chaos_attempts must be >= 1, got {self.chaos_attempts}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChaosConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise InputError(f"unknown chaos config keys: {unknown}")
        return cls(**{k: data[k] for k in data})

    @classmethod
    def parse(cls, text: str) -> "ChaosConfig":
        """Parse the CLI shorthand, e.g. ``"seed=7,kill=0.2,hang=0.1"``.

        Keys are field names with ``-`` or ``_`` accepted
        interchangeably (``kill-mid-write=0.05``).
        """
        values: dict[str, Any] = {}
        for part in filter(None, (p.strip() for p in text.split(","))):
            if "=" not in part:
                raise InputError(f"chaos spec part {part!r} is not key=value")
            key, _, raw = part.partition("=")
            name = key.strip().replace("-", "_")
            try:
                values[name] = int(raw) if name in ("seed", "chaos_attempts") else float(raw)
            except ValueError:
                raise InputError(f"chaos spec part {part!r} needs a number") from None
        return cls.from_dict(values)


class ChaosInjector:
    """Pure-function chaos decisions over (key, attempt) coordinates."""

    def __init__(self, config: ChaosConfig) -> None:
        self.config = config

    def _uniform(self, key: str, attempt: int) -> float:
        digest = hashlib.sha256(
            f"repro-chaos:{self.config.seed}:{key}:{attempt}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def action_for(self, key: str, attempt: int) -> dict[str, Any] | None:
        """The chaos action for this attempt, or ``None`` (unharmed).

        Deterministic: same config, key, and attempt index always yield
        the same decision, regardless of sweep order or restarts.
        """
        if attempt >= self.config.chaos_attempts:
            return None
        u = self._uniform(key, attempt)
        cursor = 0.0
        for action in CHAOS_ACTIONS:
            cursor += getattr(self.config, _ACTION_FIELDS[action])
            if u < cursor:
                payload: dict[str, Any] = {"action": action}
                if action == "delay":
                    payload["delay_s"] = self.config.delay_s
                return payload
        return None

    def plan(self, keys: list[str]) -> dict[str, list[str | None]]:
        """The full injection schedule — handy for tests and logging."""
        return {
            key: [
                (a or {}).get("action")
                for a in (
                    self.action_for(key, i)
                    for i in range(self.config.chaos_attempts)
                )
            ]
            for key in keys
        }
