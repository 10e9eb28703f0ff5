"""Sweep directory layout: one manifest in, one shard per scenario out.

A sweep lives entirely inside one directory::

    sweep/
      manifest.json        the ordered TaskSpecs + format marker (written once)
      shards/<key>.json    one result shard per scenario        (output)
      logs/<worker>.log    worker stdout and stderr
      trace.json           the last run's sweep span, acked task spans under it
                           (only when that run was traced)
      result.json          merged, input-ordered result table
      sweep.lock           exclusive PathLock while a supervisor runs

The manifest is the sweep's only input: the supervisor reads it once per
run and hands each worker its task's kind and params with the task
message.  Every scenario is a 1:1 map from its manifest entry to its
shard file; the supervisor never holds results in memory that are not
also on disk, so a killed sweep resumes from the shards alone.  Keys may
contain any characters (``outage/Greedy`` is a fine key); shard
filenames are the percent-quoted key, and the key is also stored
*inside* each shard so a renamed file can never masquerade as a
different scenario.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence
from urllib.parse import quote

from ..._validation import InputError
from .io import FabricError, atomic_write_json, read_json

__all__ = [
    "MANIFEST_FORMAT",
    "SHARD_FORMAT",
    "RESULT_FORMAT",
    "SHARD_STATUSES",
    "FabricError",
    "TaskSpec",
    "SweepLayout",
    "write_sweep",
    "load_manifest",
    "load_shard",
    "write_shard",
]

MANIFEST_FORMAT = "repro-fabric-manifest-v2"
#: The format of sweep dirs that kept one spec file per task.
_V1_MANIFEST_FORMAT = "repro-fabric-manifest-v1"
#: Bumped whenever a shard's fields change: a shard of another version
#: reads as "no result yet", so resume re-runs its task instead of
#: merging rows of two shapes.
SHARD_FORMAT = "repro-fabric-shard-v2"
RESULT_FORMAT = "repro-fabric-result-v1"

#: Terminal states a shard may record.  ``ok`` is the only one a resumed
#: sweep will not retry.
SHARD_STATUSES = ("ok", "failed", "timeout", "quarantined")


class SpecError(FabricError, InputError):
    """A malformed task spec or manifest: the caller's input, not sweep state."""


@dataclass(frozen=True)
class TaskSpec:
    """One scenario: a registered task kind plus its JSON parameters.

    Every attempt runs exactly these params, so a cell's result is
    always the result of the task its key names.
    """

    key: str
    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.key:
            raise SpecError("task key must be non-empty")
        try:
            self.key.encode()  # the shard filename is its quoted UTF-8
        except UnicodeEncodeError:
            raise SpecError(
                f"task key {self.key!r} is not valid Unicode text"
            ) from None
        if not self.kind:
            raise SpecError(f"task {self.key!r} needs a kind")
        object.__setattr__(self, "params", dict(self.params))

    def to_dict(self) -> dict[str, Any]:
        return {"key": self.key, "kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Any, *, source: str = "spec") -> "TaskSpec":
        """Parse one manifest entry; ``source`` names it in errors.

        A malformed entry raises :class:`SpecError` naming the field.
        Keys it does not know are ignored.
        """
        if not isinstance(data, Mapping):
            raise SpecError(
                f"{source}: a spec must be a JSON object, "
                f"got {type(data).__name__}"
            )
        for name in ("key", "kind"):
            if not isinstance(data.get(name), str):
                raise SpecError(
                    f"{source}: field {name!r} must be a string, "
                    f"got {data.get(name)!r}"
                )
        if not isinstance(data.get("params"), (Mapping, type(None))):
            raise SpecError(
                f"{source}: field 'params' must be an object or null, "
                f"got {data.get('params')!r}"
            )
        try:
            return cls(
                key=data["key"],
                kind=data["kind"],
                params=dict(data.get("params") or {}),
            )
        except SpecError as exc:  # an empty key or kind
            raise SpecError(f"{source}: {exc}") from None


def _key_filename(key: str) -> str:
    """Filesystem-safe, collision-free filename for a task key."""
    return quote(key, safe="") + ".json"


class SweepLayout:
    """Path arithmetic for one sweep directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    @property
    def shards_dir(self) -> Path:
        return self.root / "shards"

    @property
    def logs_dir(self) -> Path:
        return self.root / "logs"

    @property
    def result_path(self) -> Path:
        return self.root / "result.json"

    @property
    def lock_path(self) -> Path:
        return self.root / "sweep.lock"

    @property
    def trace_path(self) -> Path:
        """The sweep's trace: its span with the task spans grafted."""
        return self.root / "trace.json"

    def shard_path(self, key: str) -> Path:
        return self.shards_dir / _key_filename(key)


def write_sweep(
    root: str | Path,
    specs: Sequence[TaskSpec],
    *,
    overwrite: bool = False,
) -> SweepLayout:
    """Materialize a sweep: one manifest holding every spec, in order.

    The manifest is written atomically, so a sweep killed while it is
    being created has either no manifest or a whole one.  Duplicate keys
    are rejected — the 1:1 spec->shard contract needs unique keys.
    """
    layout = SweepLayout(root)
    if not specs:
        raise SpecError("a sweep needs at least one task spec")
    _check_unique([s.key for s in specs], "sweep")
    if layout.manifest_path.exists() and not overwrite:
        raise FabricError(
            f"{layout.manifest_path} already exists; pass overwrite=True "
            "or use a fresh sweep directory"
        )
    atomic_write_json(
        layout.manifest_path,
        {"format": MANIFEST_FORMAT, "tasks": [s.to_dict() for s in specs]},
    )
    return layout


def load_manifest(root: str | Path) -> list[TaskSpec]:
    """The sweep's ordered task specs; raises SpecError when absent
    or malformed."""
    path = SweepLayout(root).manifest_path
    data = read_json(path)
    if isinstance(data, dict) and data.get("format") == _V1_MANIFEST_FORMAT:
        raise SpecError(
            f"{path} is a {_V1_MANIFEST_FORMAT} sweep, with one spec file "
            f"per task; this version reads only {MANIFEST_FORMAT} — create "
            "the sweep again in a fresh directory"
        )
    if not isinstance(data, dict) or data.get("format") != MANIFEST_FORMAT:
        raise SpecError(
            f"{path} is missing or not a {MANIFEST_FORMAT} document — "
            "initialize the sweep first"
        )
    entries = data.get("tasks")
    if not isinstance(entries, list) or not entries:
        raise SpecError(f"{path}: 'tasks' must be a non-empty list")
    specs = [
        TaskSpec.from_dict(entry, source=f"{path}: tasks[{i}]")
        for i, entry in enumerate(entries)
    ]
    _check_unique([s.key for s in specs], str(path))
    return specs


def _check_unique(keys: list[str], where: str) -> None:
    if len(set(keys)) != len(keys):
        dupes = sorted(k for k, n in Counter(keys).items() if n > 1)
        raise SpecError(f"duplicate task keys in {where}: {dupes}")


def load_shard(root: str | Path, key: str) -> dict[str, Any] | None:
    """The task's result shard, or ``None`` when absent or invalid.

    Invalid covers corrupt JSON, a wrong format marker, an unknown
    status, and a key mismatch — all read as "this task has no result
    yet", which is what makes resume self-healing.
    """
    data = read_json(SweepLayout(root).shard_path(key))
    if not isinstance(data, dict):
        return None
    if data.get("format") != SHARD_FORMAT or data.get("key") != key:
        return None
    if data.get("status") not in SHARD_STATUSES:
        return None
    return data


def write_shard(
    root: str | Path,
    key: str,
    *,
    status: str,
    result: Mapping[str, Any] | None,
    error: str | None,
    attempts: int,
    elapsed_s: float,
    worker: str,
    before_replace: Any = None,
) -> Path:
    """Atomically write one result shard (the only shard writer)."""
    if status not in SHARD_STATUSES:
        raise ValueError(f"status must be one of {SHARD_STATUSES}, got {status!r}")
    row = {
        "format": SHARD_FORMAT,
        "key": key,
        "status": status,
        "result": dict(result) if result is not None else None,
        "error": error,
        "attempts": int(attempts),
        "elapsed_s": float(elapsed_s),
        "worker": worker,
    }
    return atomic_write_json(
        SweepLayout(root).shard_path(key), row, before_replace=before_replace
    )
