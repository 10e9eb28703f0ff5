"""Crash-proof JSON file IO for the sweep fabric.

Every file the fabric writes — manifest, shard, merged result, sweep
trace — goes through :func:`atomic_write_text` (most of them as
:func:`atomic_write_json`): serialize fully in memory, write to a temp
file in the destination directory, fsync it, ``os.replace`` onto the
target, fsync the directory.  A SIGKILL at *any* point leaves
either the old file or the new one, never a truncated hybrid; the only
possible litter is an orphaned ``*.tmp`` file, which
:func:`sweep_stale_tmp` clears on the next run.

The ``before_replace`` hook exists for the chaos harness: it runs after
the temp file is durable but before the rename, which is exactly where a
worker must die to prove the "SIGKILL mid-write never corrupts a shard"
contract (``tests/exp/fabric/test_durability.py``).

:class:`PathLock` — an ``O_EXCL`` pid lockfile with stale-holder
stealing — guards a sweep directory, so two concurrent supervisors
pointed at the same sweep fail fast with :class:`CheckpointLockError`
instead of interleaving shards.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "CheckpointLockError",
    "FabricError",
    "PathLock",
    "atomic_write_json",
    "atomic_write_text",
    "fsync_dir",
    "read_json",
    "sweep_stale_tmp",
]

#: Suffix shared by every in-flight temp file the fabric creates.
TMP_SUFFIX = ".tmp"


def fsync_dir(path: str | Path) -> None:
    """fsync a directory so a just-renamed entry survives a crash.

    ``os.replace`` makes the *content* swap atomic, but the new directory
    entry only becomes durable once the directory itself is synced.
    Best-effort: filesystems that cannot fsync directories are ignored.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        # EPERM and friends: the process exists but is not ours.
        return True
    return True


class FabricError(RuntimeError):
    """A sweep-level configuration or state error (not a task failure)."""


class CheckpointLockError(FabricError):
    """Another live process holds the lock for this path."""


class PathLock:
    """An exclusive advisory pid lockfile around a shared file or directory.

    Acquisition creates ``path`` with ``O_CREAT | O_EXCL`` and writes the
    holder's pid.  A lockfile whose recorded pid is dead (the holder
    crashed without releasing) is *stolen*; a lockfile held by the
    current process is treated as already acquired (re-entrant within a
    process, so two fabric objects on one sweep dir can coexist);
    a lockfile held by a different live process raises
    :class:`CheckpointLockError` immediately — fail fast beats silently
    interleaved writes.

    The lock is advisory: nothing stops a writer that never acquires it.
    The sweep supervisor always does.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._owned = False

    @property
    def held(self) -> bool:
        """True when *this object* created the lockfile."""
        return self._owned

    def _holder_pid(self) -> int | None:
        try:
            return int(self.path.read_text().strip() or "0")
        except (OSError, ValueError):
            return None

    def acquire(self) -> "PathLock":
        if self._owned:
            return self
        self.path.parent.mkdir(parents=True, exist_ok=True)
        for _ in range(3):  # retries cover one stale-steal race
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                holder = self._holder_pid()
                if holder is not None and holder == os.getpid():
                    # Same process already holds it (another fabric
                    # object); do not claim ownership, so releasing one
                    # does not yank the lock out from under the other.
                    return self
                if holder is None or not _pid_alive(holder):
                    try:
                        self.path.unlink()
                    except FileNotFoundError:
                        pass
                    continue
                raise CheckpointLockError(
                    f"{self.path} is locked by live process {holder}; "
                    "two concurrent sweeps may not share a sweep "
                    "directory — pick a distinct path or wait for "
                    "the other run to finish"
                )
            with os.fdopen(fd, "w") as fh:
                fh.write(str(os.getpid()))
                fh.flush()
                os.fsync(fh.fileno())
            fsync_dir(self.path.parent)
            self._owned = True
            return self
        raise CheckpointLockError(
            f"could not acquire {self.path}: lockfile kept reappearing"
        )

    def release(self) -> None:
        if not self._owned:
            return
        self._owned = False
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "PathLock":
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()


def atomic_write_json(
    path: str | Path,
    obj: Any,
    *,
    before_replace: Callable[[], None] | None = None,
) -> Path:
    """Atomically (and durably) write ``obj`` as indented JSON to ``path``.

    Serialization happens before any byte hits disk, so an
    unserializable object cannot damage an existing file.
    """
    return atomic_write_text(
        path,
        json.dumps(obj, indent=2, sort_keys=True),
        before_replace=before_replace,
    )


def atomic_write_text(
    path: str | Path,
    text: str,
    *,
    before_replace: Callable[[], None] | None = None,
) -> Path:
    """Atomically (and durably) write ``text`` to ``path``.

    With ``before_replace`` given, the callback runs between the
    temp-file fsync and the rename — the chaos injection point.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=TMP_SUFFIX
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        if before_replace is not None:
            before_replace()
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_dir(path.parent)
    return path


def read_json(path: str | Path) -> Any | None:
    """Parse ``path`` as JSON; ``None`` for missing/unreadable/corrupt.

    Corrupt covers bytes that are not text, malformed JSON, integers
    past Python's digit limit (each a ``ValueError``) and nesting too
    deep to parse (``RecursionError``).  A shard that cannot be parsed
    is treated as never written, so the task simply re-runs.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError:
        return None
    try:
        return json.loads(raw)
    except (ValueError, RecursionError):
        return None


def sweep_stale_tmp(directory: str | Path) -> int:
    """Delete orphaned ``*.tmp`` files left by killed writers.

    Returns how many were removed.  Safe against concurrent writers only
    when called under the sweep lock (the supervisor does this once at
    startup, before any worker exists).
    """
    directory = Path(directory)
    removed = 0
    try:
        entries = list(directory.iterdir())
    except OSError:
        return 0
    for entry in entries:
        if entry.name.endswith(TMP_SUFFIX):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
    return removed
