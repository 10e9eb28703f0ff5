"""Fabric worker: a forked child of a :class:`~repro.exp.fabric.
supervisor.SweepFabric`.

The supervisor forks each worker from its own process, which has
already imported repro, numpy and scipy, so a worker starts without
paying for those imports again.  A worker runs the task kinds that were
registered in the supervisor's process when it forked (see
:mod:`repro.exp.fabric.tasks`).  ``ps`` shows it under the supervisor's
command line.

The protocol runs over one duplex :func:`multiprocessing.Pipe`; each
message is one dict:

* supervisor -> worker: ``{"cmd": "task", "key": ..., "kind": ...,
  "params": {...}, "attempt": n, "chaos": {...}|None}``
  or ``{"cmd": "shutdown"}``;
* worker -> supervisor: ``{"event": "ready"}`` once at start, then
  ``{"event": "done", "key": ..., "status": "ok"|"failed", ...}`` after
  each task, with a ``"trace": {...}`` entry only when the sweep is
  traced.

The task message carries the task's kind and its spec's params, the
same on every attempt.  The worker runs the task function, writes the
result shard atomically, and only then acks: results cross the process
boundary only as files.  When the supervisor hands the worker a trace
context (the sweep is traced), the worker records each task under a
span recorder parented there, and the ack carries the task's spans as a
trace document (this process's clock anchor included), which the
supervisor grafts under its sweep span; without a context the worker
runs under the null recorder and records nothing.  Every result is on
disk before the ack, so a worker killed at any instant loses at most
the task in flight, which the supervisor retries, and that task's
spans.  A worker whose supervisor dies exits within a heartbeat
interval, even in the middle of a task that never returns: the
heartbeat thread sees the worker reparented and ends the process.
Between tasks the main loop also sees the pipe close.

A daemon heartbeat thread bumps a counter in an anonymous shared memory
page, which the supervisor mapped before the fork, every
``heartbeat_interval_s`` seconds.  It keeps beating while a task spins
in native code (hang detection stays with the *deadline*); it stops only
when the process itself is dead or frozen (SIGSTOP/livelock), which is
what heartbeat liveness detection is for.

Chaos actions arrive with the task message and are executed here — see
:mod:`repro.exp.fabric.chaos` for the catalog.  The kills are genuine
SIGKILLs of this process; nothing is simulated.
"""

from __future__ import annotations

import contextvars
import gc
import mmap
import os
import signal
import sys
import threading
import time
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Any, Sequence

from ...obs import (
    SpanRecorder,
    TraceContext,
    get_recorder,
    set_recorder,
    trace_to_dict,
)
from .spec import write_shard
from .tasks import get_task

__all__ = ["run_worker"]


def _heartbeat_loop(beat: mmap.mmap, interval_s: float) -> None:
    supervisor = os.getppid()
    counter = 0
    while True:
        if os.getppid() != supervisor:
            # Orphaned.  The task in flight may never return to the
            # loop that would see the pipe close, and its shard is
            # written atomically, so ending here loses at most that task.
            os._exit(1)
        counter += 1
        beat[:] = counter.to_bytes(len(beat), "little")
        time.sleep(interval_s)


def _apply_pre_chaos(chaos: dict[str, Any] | None) -> None:
    """Execute a pre-run chaos action (may never return)."""
    if not chaos:
        return
    action = chaos.get("action")
    if action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif action == "freeze":
        os.kill(os.getpid(), signal.SIGSTOP)
    elif action == "hang":
        while True:  # pragma: no cover - reclaimed only by SIGKILL
            time.sleep(3600)
    elif action == "delay":
        time.sleep(float(chaos.get("delay_s", 0.05)))


def _post_write_chaos_hook(chaos: dict[str, Any] | None, *, mid_write: bool):
    """The before/after-replace SIGKILL hooks for write-phase chaos."""
    if not chaos:
        return None
    action = chaos.get("action")
    wanted = "kill-mid-write" if mid_write else "kill-after-write"
    if action != wanted:
        return None

    def die() -> None:
        os.kill(os.getpid(), signal.SIGKILL)

    return die


def _run_task(sweep_dir: Path, name: str, msg: dict[str, Any]) -> dict[str, Any]:
    """Execute one task message; returns the ack event dict."""
    key, kind = str(msg["key"]), msg["kind"]
    attempt = int(msg.get("attempt", 0))
    chaos = msg.get("chaos")
    _apply_pre_chaos(chaos)
    start = time.perf_counter()
    status, error, result = "ok", None, None
    with get_recorder().span(
        "fabric.task",
        key=key,
        attempt=attempt,
        worker=name,
    ) as span:
        try:
            result = get_task(kind)(msg["params"])
            if not isinstance(result, dict):
                raise TypeError(
                    f"task {kind!r} returned {type(result).__name__}, "
                    "expected a JSON-friendly dict"
                )
        except Exception as exc:
            status = "failed"
            error = f"{type(exc).__name__}: {exc}"
        span.set(status=status)
    elapsed = time.perf_counter() - start
    if status == "ok":
        # kill-mid-write fires between temp-fsync and rename (no shard
        # survives); kill-after-write fires after the rename (a complete
        # shard survives, but no ack follows).
        write_shard(
            sweep_dir,
            key,
            status="ok",
            result=result,
            error=None,
            attempts=attempt + 1,
            elapsed_s=elapsed,
            worker=name,
            before_replace=_post_write_chaos_hook(chaos, mid_write=True),
        )
        after = _post_write_chaos_hook(chaos, mid_write=False)
        if after is not None:
            after()
    return {
        "event": "done",
        "key": key,
        "status": status,
        "error": error,
        "elapsed_s": elapsed,
    }


def _redirect_output(log_path: Path) -> None:
    """Point fds 1 and 2, and ``sys.stdout``/``sys.stderr``, at the log.

    A task that prints, or a library that writes to fd 1 directly, must
    not reach the terminal or pipe the supervisor's caller reads.
    """
    fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    os.dup2(fd, 1)
    os.dup2(fd, 2)
    os.close(fd)
    sys.stdout = open(1, "w", buffering=1, closefd=False)
    sys.stderr = open(2, "w", buffering=1, closefd=False)


def _serve(
    conn: Connection,
    *,
    sweep_dir: Path,
    name: str,
    context: TraceContext | None,
) -> None:
    """The worker loop: receive tasks until shutdown or a closed pipe.

    Spans are recorded only under a trace context (a traced sweep).
    """
    recorder = SpanRecorder(context=context) if context is not None else None
    if recorder is not None:
        set_recorder(recorder)
    try:
        conn.send({"event": "ready"})
        while True:
            msg = conn.recv()
            if msg["cmd"] == "shutdown":
                return
            event = _run_task(sweep_dir, name, msg)
            if recorder is not None:
                # The ack carries the spans recorded since the last ack,
                # so the work per task stays constant.
                event["trace"] = trace_to_dict(
                    recorder.roots, trace_id=recorder.trace_id, anchor=recorder.anchor
                )
                recorder.trim(0)
            conn.send(event)
    except (EOFError, OSError):
        return  # the supervisor is gone


def run_worker(
    conn: Connection,
    *,
    sweep_dir: Path,
    name: str,
    beat: mmap.mmap,
    log_path: Path,
    heartbeat_interval_s: float,
    context: TraceContext | None,
    inherited: Sequence[Connection] = (),
    inherited_fds: Sequence[int] = (),
) -> None:
    """Body of a freshly forked worker process.

    ``beat`` is the shared memory page the supervisor mapped for this
    worker before the fork; the heartbeat thread keeps a counter in it.
    ``inherited`` and ``inherited_fds`` are the supervisor's descriptors
    that the fork copied into this process: its ends of every worker's
    pipe (this one's included) and multiprocessing's per-child sentinel
    pipes.  Closing them keeps a worker's descriptors independent of how
    many workers were forked before it, and lets a worker see EOF when
    the supervisor dies.  The loop runs in an empty
    :class:`contextvars.Context`: the fork copied the supervisor's open
    ``fabric.sweep`` span and the ambient recorder as current, and task
    spans must be roots of this worker's own recorder (or, untraced, go
    to the null recorder), not children of that copy.
    """
    # The worker never frees what it inherited; freezing those objects
    # keeps the collector from walking them, which would copy every
    # inherited page just to mark it.
    gc.freeze()
    for other in inherited:
        other.close()
    for fd in inherited_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    _redirect_output(log_path)
    threading.Thread(
        target=_heartbeat_loop,
        args=(beat, heartbeat_interval_s),
        daemon=True,
        name="fabric-heartbeat",
    ).start()
    contextvars.Context().run(
        _serve,
        conn,
        sweep_dir=sweep_dir,
        name=name,
        context=context,
    )
