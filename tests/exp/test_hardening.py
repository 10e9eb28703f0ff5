"""The sweep directory's exclusive pid lock."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exp.fabric.io import CheckpointLockError, PathLock

SRC = Path(__file__).resolve().parents[2] / "src"


class TestPathLock:
    def test_acquire_release_cycle(self, tmp_path):
        lock = PathLock(tmp_path / "x.lock")
        assert not lock.held
        lock.acquire()
        assert lock.held
        assert (tmp_path / "x.lock").exists()
        lock.release()
        assert not lock.held
        assert not (tmp_path / "x.lock").exists()

    def test_context_manager(self, tmp_path):
        path = tmp_path / "x.lock"
        with PathLock(path) as lock:
            assert lock.held
        assert not path.exists()

    def test_same_process_is_reentrant_without_ownership(self, tmp_path):
        path = tmp_path / "x.lock"
        first = PathLock(path).acquire()
        second = PathLock(path).acquire()
        assert first.held
        assert not second.held  # did not create it, does not own it
        second.release()
        assert path.exists()  # release of a non-owner is a no-op
        first.release()
        assert not path.exists()

    def test_stale_lock_from_dead_pid_is_stolen(self, tmp_path):
        path = tmp_path / "x.lock"
        # Let a real subprocess take the lock and die without releasing.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from repro.exp.fabric.io import PathLock; "
                f"PathLock({str(path)!r}).acquire()",
            ],
            env=env,
            check=True,
            timeout=60,
        )
        assert path.exists()  # the dead holder's lockfile remains
        lock = PathLock(path).acquire()
        assert lock.held
        lock.release()

    def test_garbage_pid_is_stolen(self, tmp_path):
        path = tmp_path / "x.lock"
        path.write_text("not-a-pid")
        lock = PathLock(path).acquire()
        assert lock.held
        lock.release()

    def test_live_holder_conflicts(self, tmp_path):
        path = tmp_path / "x.lock"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        # A live subprocess holds the lock while we try to take it.
        holder = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import sys, time; from repro.exp.fabric.io import PathLock; "
                f"PathLock({str(path)!r}).acquire(); "
                "print('held', flush=True); time.sleep(60)",
            ],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert holder.stdout.readline().strip() == "held"
            with pytest.raises(CheckpointLockError, match="live process"):
                PathLock(path).acquire()
        finally:
            holder.kill()
            holder.wait()
