"""The sweep fabric supervisor: shared-nothing fan-out with teeth.

The fabric owns real OS processes and therefore a real robustness loop:

* **deadlines that kill** — a task past its wall-clock budget gets its
  worker SIGKILLed and the CPU actually comes back;
* **crash isolation** — a segfaulting or OOM-killed worker fails one
  attempt of one task, never the sweep;
* **bounded deterministic backoff** — attempt ``k`` waits
  ``backoff_base_s * 2**k`` before retrying, with a hard retry budget,
  scheduled without blocking the assignment loop;
* **poison-task quarantine** — a task whose attempts kill
  ``quarantine_after`` workers in a row becomes a structured
  ``quarantined`` shard instead of an infinite crash loop;
* **heartbeat liveness** — a worker whose heartbeat counter stops
  changing (frozen, swapped to death, SIGSTOPped) is killed and replaced
  even when no deadline is set;
* **crash-proof results** — every result is an atomic shard file; the
  supervisor holds no result state that is not also on disk, so a
  killed sweep resumes from the shards alone.

Every attempt runs the spec's own params: a task that keeps timing out
ends as a ``timeout`` shard once its retries are spent, and a resumed
sweep (perhaps with a larger deadline) re-runs exactly those tasks.

The fabric follows the ambient recorder.  When tracing is on (a
:class:`~repro.obs.SpanRecorder`, as under ``--trace`` or ``--store``),
the sweep opens its ``fabric.sweep`` span there and hands workers that
span's trace context; each worker acks a task with that task's spans,
which the supervisor grafts under the sweep span with
:func:`repro.obs.graft_trace` as the ack arrives, and when the sweep ends
it writes the tree to the sweep directory's ``trace.json``.  When tracing
is off, neither side records a span, acks carry no trace, and the run
removes any ``trace.json`` an earlier run left, so the file is only ever
this run's trace.  Spans are diagnostics: a supervisor killed mid-sweep
loses them, and resuming from the shards needs none.

Each run reads the sweep's manifest once and sends every task's kind and
effective params with its task message; no worker reads an input file.
Workers are forked from the supervisor's own process (see
:mod:`repro.exp.fabric.worker`) and inherit its imported modules.
Before it forks, the supervisor resolves the task kind of every spec it
is about to run, which imports the kind's module and what that module
imports, so no worker imports the solver stack on its own.  Before each
fork it also maps an anonymous shared memory page for the new worker's
heartbeat counter, which the worker bumps and the supervisor compares,
every tick, with the value it last saw; heartbeats never touch the
disk.  The supervisor is single-threaded: one loop waits on the
workers' pipes and process sentinels with
:func:`multiprocessing.connection.wait` and makes every decision, which
keeps the state machine auditable and means no fork ever happens while
another supervisor thread holds a lock.  Workers stay direct children
and are reaped before :meth:`SweepFabric.run` returns, so their CPU
time is in the caller's ``RUSAGE_CHILDREN``.
"""

from __future__ import annotations

import json
import mmap
import multiprocessing
import os
import signal
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess
from pathlib import Path
from typing import Any, Sequence

from ..._validation import InputError
from ...obs import (
    NullSpan,
    Span,
    SpanRecorder,
    TraceContext,
    get_recorder,
    graft_trace,
    trace_to_dict,
)
from .chaos import ChaosConfig, ChaosInjector
from .io import PathLock, atomic_write_text, sweep_stale_tmp
from .spec import (
    FabricError,
    SweepLayout,
    TaskSpec,
    load_manifest,
    load_shard,
    write_shard,
)
from .tasks import get_task
from .worker import run_worker

__all__ = ["FabricConfig", "FabricReport", "SweepFabric"]

_FORK = multiprocessing.get_context("fork")

#: Consecutive boot failures (per sweep, any slot) before giving up —
#: a worker that cannot even reach "ready" means the environment is
#: broken, and respawning forever would spin silently.
_MAX_BOOT_FAILURES = 3

#: After failed attempt ``k`` the retry waits
#: ``backoff_base_s * _BACKOFF_FACTOR**k``.
_BACKOFF_FACTOR = 2.0
#: Seconds a forked worker has to send "ready".
_BOOT_TIMEOUT_S = 60.0
#: Longest wait for worker messages before the liveness checks run.
_TICK_S = 0.02


@dataclass(frozen=True)
class FabricConfig:
    """Supervision policy for one sweep."""

    workers: int = 2
    timeout_s: float | None = None
    max_retries: int = 2
    backoff_base_s: float = 0.05
    quarantine_after: int = 3
    heartbeat_interval_s: float = 0.2
    heartbeat_timeout_s: float = 10.0
    chaos: ChaosConfig | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise InputError(f"workers must be >= 1, got {self.workers}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise InputError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.max_retries < 0:
            raise InputError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_s < 0:
            raise InputError("backoff_base_s must be non-negative")
        if self.quarantine_after < 1:
            raise InputError(
                f"quarantine_after must be >= 1, got {self.quarantine_after}"
            )
        for name in ("heartbeat_interval_s", "heartbeat_timeout_s"):
            if getattr(self, name) <= 0:
                raise InputError(f"{name} must be positive")
        if self.heartbeat_timeout_s <= self.heartbeat_interval_s:
            raise InputError(
                "heartbeat_timeout_s must exceed heartbeat_interval_s"
            )


@dataclass
class _Task:
    """Supervisor-side state for one scenario."""

    spec: TaskSpec
    attempts: int = 0          # attempts actually dispatched
    worker_deaths: int = 0     # consecutive attempts that killed a worker
    not_before: float = 0.0    # monotonic backoff gate
    last_started: float = 0.0
    last_error: str | None = None
    last_status: str = "failed"

    @property
    def key(self) -> str:
        return self.spec.key


@dataclass
class _Worker:
    """One live worker process and its plumbing."""

    slot: int
    name: str
    proc: BaseProcess
    conn: Connection
    beat: mmap.mmap            # shared page holding the heartbeat counter
    log_path: Path
    state: str = "booting"     # booting | idle | busy
    task: _Task | None = None
    deadline: float | None = None
    boot_deadline: float = 0.0
    hb_last: bytes = b""
    hb_changed_at: float = 0.0


@dataclass(frozen=True)
class FabricReport:
    """What happened to every task in one :meth:`SweepFabric.run`.

    ``statuses`` maps each selected key to its terminal shard status;
    ``adopted`` counts tasks served from pre-existing (resume) or
    orphaned (crash-after-write) shards without re-execution.
    """

    statuses: dict[str, str]
    adopted: int
    retries: int
    worker_restarts: int
    elapsed_s: float

    @property
    def total(self) -> int:
        return len(self.statuses)

    def count(self, status: str) -> int:
        return sum(1 for s in self.statuses.values() if s == status)

    @property
    def ok(self) -> bool:
        return all(s == "ok" for s in self.statuses.values())

    def summary(self) -> str:
        return (
            f"fabric: {self.total} tasks, ok={self.count('ok')}, "
            f"failed={self.count('failed')}, timeout={self.count('timeout')}, "
            f"quarantined={self.count('quarantined')}, "
            f"adopted={self.adopted}, retries={self.retries}, "
            f"worker_restarts={self.worker_restarts}, "
            f"elapsed={self.elapsed_s:.2f}s"
        )


def _describe_exit(rc: int | None) -> str:
    if rc is None:
        return "still running"
    if rc < 0:
        try:
            name = signal.Signals(-rc).name
        except ValueError:
            name = f"signal {-rc}"
        return f"killed by {name}"
    return f"exit code {rc}"


class SweepFabric:
    """Run a materialized sweep directory to completion under supervision.

    Parameters
    ----------
    sweep_dir:
        A directory prepared by :func:`~repro.exp.fabric.spec.write_sweep`
        (its manifest holds the task specs).
    config:
        The :class:`FabricConfig` supervision policy.

    :meth:`run` forks its workers from the calling process, so call it
    where no other thread may hold a lock at that moment (the CLI and
    the fabric itself start none).
    """

    def __init__(
        self, sweep_dir: str | Path, *, config: FabricConfig | None = None
    ) -> None:
        self.layout = SweepLayout(sweep_dir)
        self.config = config or FabricConfig()
        self.injector = (
            ChaosInjector(self.config.chaos) if self.config.chaos else None
        )

    # ----------------------------------------------------------------- run

    def run(
        self, *, resume: bool = False, keys: Sequence[str] | None = None
    ) -> FabricReport:
        """Execute every selected task; returns when all have shards.

        With ``resume=False`` the shard directory must hold no results
        for the selected keys.  With ``resume=True``, valid ``ok``
        shards are adopted untouched and every other shard (failed,
        timed out, quarantined, corrupt, half-written) is re-run —
        resuming is how a sweep heals.
        """
        specs = {spec.key: spec for spec in load_manifest(self.layout.root)}
        if keys is None:
            selected = list(specs)
        else:
            unknown = sorted(set(keys) - set(specs))
            if unknown:
                raise FabricError(f"keys not in manifest: {unknown}")
            wanted = set(keys)
            selected = [k for k in specs if k in wanted]

        obs = get_recorder()
        # Spans only when tracing is on: the sweep span then nests into
        # the caller's trace, and workers are handed its context so the
        # task spans they ack are parented under it.  Untraced, workers
        # get no context and record nothing.
        self._recorder = obs if isinstance(obs, SpanRecorder) else None
        self._sweep_context: TraceContext | None = None
        self._dropped_traces = 0
        start = time.monotonic()
        with PathLock(self.layout.lock_path):
            sweep_stale_tmp(self.layout.shards_dir)
            self._statuses: dict[str, str] = {}
            self._adopted = 0
            self._retries = 0
            self._restarts = 0
            self._boot_failures = 0
            pending: list[TaskSpec] = []
            for key in selected:
                row = load_shard(self.layout.root, key)
                if row is not None and row["status"] == "ok":
                    if not resume:
                        raise FabricError(
                            f"shard for {key!r} already exists; pass "
                            "resume=True to adopt finished work or use a "
                            "fresh sweep directory"
                        )
                    self._statuses[key] = "ok"
                    self._adopted += 1
                    continue
                if row is not None and not resume:
                    raise FabricError(
                        f"shard for {key!r} already exists; pass "
                        "resume=True to retry unfinished work"
                    )
                if row is not None:  # failed/timeout/quarantined: retry
                    try:
                        self.layout.shard_path(key).unlink()
                    except OSError:
                        pass
                pending.append(specs[key])

            with obs.span(
                "fabric.sweep",
                num_tasks=len(selected),
                pending=len(pending),
                workers=self.config.workers,
                resume=resume,
                chaos=self.config.chaos is not None,
            ) as span:
                self._sweep_span = span
                if self._recorder is not None:
                    self._sweep_context = TraceContext(
                        trace_id=self._recorder.trace_id, span_id=span.span_id
                    )
                if pending:
                    self._execute(pending)
                span.set(
                    adopted=self._adopted,
                    retries=self._retries,
                    worker_restarts=self._restarts,
                    dropped_traces=self._dropped_traces,
                )
            self._write_sweep_trace(span)
        report = FabricReport(
            statuses={k: self._statuses[k] for k in selected},
            adopted=self._adopted,
            retries=self._retries,
            worker_restarts=self._restarts,
            elapsed_s=time.monotonic() - start,
        )
        return report

    def _write_sweep_trace(self, span: Span | NullSpan) -> None:
        """Leave this run's trace in ``trace.json``: the sweep span with
        the task spans grafted when tracing is on, no file when it is off.

        Best-effort: a sweep must not fail because its trace could not
        be written.
        """
        recorder = self._recorder
        path = self.layout.trace_path
        try:
            if recorder is None:
                path.unlink(missing_ok=True)
                return
            # Acks arrive in finishing order.
            span.children.sort(key=lambda s: s.t_start)
            doc = trace_to_dict([span], trace_id=recorder.trace_id, anchor=recorder.anchor)
            # Compact: with an indent, json encodes in Python, several
            # times slower on a sweep's thousand-odd spans.
            atomic_write_text(path, json.dumps(doc))
        except OSError:
            pass

    # ------------------------------------------------------------ main loop

    def _execute(self, pending: list[TaskSpec]) -> None:
        for d in (self.layout.shards_dir, self.layout.logs_dir):
            d.mkdir(parents=True, exist_ok=True)
        self._tasks = {spec.key: _Task(spec) for spec in pending}
        self._pending: deque[_Task] = deque(self._tasks.values())
        self._workers: dict[str, _Worker] = {}
        self._retired: set[str] = set()
        self._incarnations = [0] * self.config.workers
        self._unsettled = set(self._tasks)
        _resolve_kinds(pending)
        try:
            for slot in range(min(self.config.workers, len(pending))):
                self._spawn(slot)
            while self._unsettled:
                now = time.monotonic()
                self._assign(now)
                self._poll()
                now = time.monotonic()
                self._check_deadlines(now)
                self._check_heartbeats(now)
                self._check_exits()
                self._ensure_capacity()
        finally:
            self._shutdown_workers()

    # ------------------------------------------------------------- spawning

    def _spawn(self, slot: int) -> _Worker:
        incarnation = self._incarnations[slot]
        self._incarnations[slot] += 1
        name = f"w{slot}-{incarnation}"
        log_path = self.layout.logs_dir / f"{name}.log"
        ours, theirs = _FORK.Pipe()
        beat = mmap.mmap(-1, 8)  # the worker's heartbeat counter
        live = list(self._workers.values())
        proc = _FORK.Process(
            target=run_worker,
            name=f"fabric-{name}",
            args=(theirs,),
            kwargs=dict(
                sweep_dir=self.layout.root,
                name=name,
                beat=beat,
                log_path=log_path,
                heartbeat_interval_s=self.config.heartbeat_interval_s,
                context=self._sweep_context,
                inherited=[ours] + [w.conn for w in live],
                inherited_fds=[fd for w in live for fd in _sentinel_fds(w.proc)],
            ),
        )
        try:
            proc.start()
        except BaseException:
            ours.close()
            beat.close()
            raise
        finally:
            theirs.close()  # the child holds its own end now
        now = time.monotonic()
        worker = _Worker(
            slot=slot,
            name=name,
            proc=proc,
            conn=ours,
            beat=beat,
            log_path=log_path,
            boot_deadline=now + _BOOT_TIMEOUT_S,
            hb_changed_at=now,
        )
        self._workers[name] = worker
        return worker

    def _ensure_capacity(self) -> None:
        """Respawn lost workers while runnable work remains."""
        runnable = len(self._pending) + sum(
            1 for w in self._workers.values() if w.state == "busy"
        )
        if not runnable and self._unsettled:
            # Every unsettled task is in backoff; keep one worker warm.
            runnable = 1
        want = min(self.config.workers, runnable)
        if len(self._workers) >= want:
            return
        live_slots = {w.slot for w in self._workers.values()}
        for slot in range(self.config.workers):
            if len(self._workers) >= want:
                break
            if slot not in live_slots:
                self._spawn(slot)
                live_slots.add(slot)

    # ----------------------------------------------------------- assignment

    def _assign(self, now: float) -> None:
        idle = [w for w in self._workers.values() if w.state == "idle"]
        if not idle or not self._pending:
            return
        ready: list[_Task] = []
        scan = len(self._pending)
        for _ in range(scan):
            task = self._pending.popleft()
            if task.not_before <= now and len(ready) < len(idle):
                ready.append(task)
            else:
                self._pending.append(task)
        for worker, task in zip(idle, ready):
            self._dispatch(worker, task, now)

    def _dispatch(self, worker: _Worker, task: _Task, now: float) -> None:
        attempt = task.attempts
        task.attempts += 1
        task.last_started = now
        chaos = (
            self.injector.action_for(task.key, attempt)
            if self.injector is not None
            else None
        )
        msg = {
            "cmd": "task",
            "key": task.key,
            "kind": task.spec.kind,
            "params": task.spec.params,
            "attempt": attempt,
            "chaos": chaos,
        }
        try:
            worker.conn.send(msg)
        except OSError:
            # The worker died between polls; undo the attempt and let
            # the exit check handle the corpse.
            task.attempts -= 1
            self._pending.appendleft(task)
            return
        worker.state = "busy"
        worker.task = task
        worker.deadline = (
            now + self.config.timeout_s
            if self.config.timeout_s is not None
            else None
        )

    # --------------------------------------------------------------- events

    def _poll(self) -> None:
        """Handle every message that arrives within one tick.

        Waits on each worker's pipe and process sentinel; a pipe that
        hits EOF, or a sentinel that fires, is a worker that is gone.
        """
        by_handle: dict[Any, _Worker] = {}
        for worker in self._workers.values():
            by_handle[worker.conn] = worker
            by_handle[worker.proc.sentinel] = worker
        for handle in wait(list(by_handle), timeout=_TICK_S):
            worker = by_handle[handle]
            if worker.name in self._retired or handle is not worker.conn:
                continue  # sentinels are left to _check_exits
            try:
                while worker.conn.poll():
                    self._handle_message(worker, worker.conn.recv())
            except (EOFError, OSError):
                # The pipe closed: the process is gone or going.  A
                # worker that closed its end but kept running is useless
                # to us; _on_worker_death kills it.
                self._on_worker_death(worker)

    def _handle_message(self, worker: _Worker, msg: dict[str, Any]) -> None:
        event = msg.get("event")
        if event == "ready":
            worker.state = "idle"
            self._boot_failures = 0
        elif event == "done":
            self._on_done(worker, msg)

    def _on_done(self, worker: _Worker, msg: dict[str, Any]) -> None:
        if self._recorder is not None and not graft_trace(
            self._sweep_span, msg.get("trace"), self._recorder.anchor
        ):
            self._dropped_traces += 1
        task = worker.task
        worker.task = None
        worker.state = "idle"
        worker.deadline = None
        if task is None or msg.get("key") != task.key:
            return
        if msg.get("status") == "ok":
            row = load_shard(self.layout.root, task.key)
            if row is None:
                # The worker acked but the shard did not survive
                # validation — treat as a failed attempt.
                task.worker_deaths = 0
                self._attempt_failed(
                    task, "failed",
                    "worker acked ok but wrote no valid shard",
                )
                return
            task.worker_deaths = 0
            self._settle(task.key, "ok")
        else:
            # The worker survived (in-process exception), so the
            # consecutive worker-death streak resets.
            task.worker_deaths = 0
            self._attempt_failed(
                task, "failed", str(msg.get("error") or "task failed")
            )

    # ---------------------------------------------------- liveness policing

    def _check_deadlines(self, now: float) -> None:
        for worker in list(self._workers.values()):
            if worker.state != "busy" or worker.deadline is None:
                continue
            if now <= worker.deadline:
                continue
            task = worker.task
            self._kill(worker)
            if task is not None:
                self._finish_interrupted_attempt(
                    worker, task, "timeout",
                    f"exceeded {self.config.timeout_s}s budget "
                    f"(worker {worker.name} killed)",
                    count_worker_death=False,
                )

    def _check_heartbeats(self, now: float) -> None:
        for worker in list(self._workers.values()):
            if worker.state == "booting":
                if now > worker.boot_deadline:
                    self._kill(worker)
                    self._note_boot_failure(worker, "boot timeout")
                continue
            beat = worker.beat[:]
            if beat != worker.hb_last:
                worker.hb_last = beat
                worker.hb_changed_at = now
                continue
            if now - worker.hb_changed_at <= self.config.heartbeat_timeout_s:
                continue
            task = worker.task
            self._kill(worker)
            if task is not None:
                self._finish_interrupted_attempt(
                    worker, task, "failed",
                    f"worker {worker.name} unresponsive "
                    f"(no heartbeat for {self.config.heartbeat_timeout_s}s)",
                    count_worker_death=True,
                )

    def _check_exits(self) -> None:
        for worker in list(self._workers.values()):
            if worker.proc.exitcode is not None:
                self._on_worker_death(worker)

    def _on_worker_death(self, worker: _Worker) -> None:
        if worker.name in self._retired:
            return
        task = worker.task
        rc = self._kill(worker)
        if worker.state == "booting":
            self._note_boot_failure(worker, _describe_exit(rc))
            return
        if task is not None:
            self._finish_interrupted_attempt(
                worker, task, "failed",
                f"worker {worker.name} died ({_describe_exit(rc)}); "
                f"stderr: {worker.log_path}",
                count_worker_death=True,
            )

    def _note_boot_failure(self, worker: _Worker, why: str) -> None:
        self._boot_failures += 1
        if self._boot_failures >= _MAX_BOOT_FAILURES:
            tail = ""
            try:
                tail = worker.log_path.read_text()[-2000:]
            except OSError:
                pass
            raise FabricError(
                f"worker {worker.name} failed to boot ({why}) — "
                f"{self._boot_failures} consecutive boot failures, "
                f"giving up. Worker stderr tail:\n{tail}"
            )

    def _finish_interrupted_attempt(
        self,
        worker: _Worker,
        task: _Task,
        status: str,
        error: str,
        *,
        count_worker_death: bool,
    ) -> None:
        """Resolve a task whose worker was killed or died under it."""
        # Crash-after-write adoption: the worker may have completed and
        # persisted the shard before dying (chaos kill-after-write, or a
        # crash in the ack path).  Disk is the source of truth.
        row = load_shard(self.layout.root, task.key)
        if row is not None and row["status"] == "ok":
            self._adopted += 1
            self._settle(task.key, "ok")
            return
        if count_worker_death:
            task.worker_deaths += 1
            if task.worker_deaths >= self.config.quarantine_after:
                self._quarantine(task, error)
                return
        self._attempt_failed(task, status, error)

    # ------------------------------------------------------------ lifecycle

    def _kill(self, worker: _Worker) -> int | None:
        """Retire a worker: SIGKILL it if it still runs, reap it, and
        return its exit code (``None`` if it was already retired)."""
        if worker.name in self._retired:
            return None
        self._retired.add(worker.name)
        self._workers.pop(worker.name, None)
        rc = _reap(worker)
        if worker.state != "booting":
            self._restarts += 1
        return rc

    # ------------------------------------------------------- task terminals

    def _attempt_failed(self, task: _Task, status: str, error: str) -> None:
        task.last_error = error
        task.last_status = status
        max_attempts = 1 + self.config.max_retries
        get_recorder().event(
            "fabric.attempt_failed",
            key=task.key,
            attempt=task.attempts - 1,
            status=status,
            error=error,
        )
        if task.attempts >= max_attempts:
            self._write_terminal_shard(task, status, error)
            return
        backoff = self.config.backoff_base_s * _BACKOFF_FACTOR ** (task.attempts - 1)
        task.not_before = time.monotonic() + backoff
        self._retries += 1
        self._pending.append(task)

    def _quarantine(self, task: _Task, error: str) -> None:
        self._write_terminal_shard(
            task,
            "quarantined",
            f"poison task: killed {task.worker_deaths} workers in a row; "
            f"last: {error}",
        )

    def _write_terminal_shard(
        self, task: _Task, status: str, error: str
    ) -> None:
        elapsed = max(0.0, time.monotonic() - task.last_started)
        write_shard(
            self.layout.root,
            task.key,
            status=status if status in ("timeout", "quarantined") else "failed",
            result=None,
            error=error,
            attempts=task.attempts,
            elapsed_s=elapsed,
            worker="supervisor",
        )
        self._settle(task.key, load_shard(self.layout.root, task.key)["status"])

    def _settle(self, key: str, status: str) -> None:
        if key not in self._unsettled:
            return
        self._unsettled.discard(key)
        self._statuses[key] = status
        task = self._tasks.get(key)
        if task is not None and task in self._pending:
            self._pending.remove(task)

    # -------------------------------------------------------------- shutdown

    def _shutdown_workers(self) -> None:
        for worker in self._workers.values():
            try:
                worker.conn.send({"cmd": "shutdown"})
            except OSError:
                pass
        deadline = time.monotonic() + 5.0
        for worker in self._workers.values():
            worker.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            _reap(worker)
            self._retired.add(worker.name)
        self._workers.clear()


def _resolve_kinds(specs: Sequence[TaskSpec]) -> None:
    """Look up the task kind of each spec in this process.

    Workers forked afterwards inherit every module the lookups import.
    A kind that does not resolve is skipped here: the worker that runs
    it fails that attempt with the error.
    """
    for kind in sorted({spec.kind for spec in specs}):
        try:
            get_task(kind)
        except InputError:
            continue


def _sentinel_fds(proc: BaseProcess) -> tuple[int, ...]:
    """The pipe pair multiprocessing keeps open for a forked child.

    ``popen_fork`` holds the child's exit sentinel and the write end of
    the child's parent-liveness pipe until the process object is
    closed; both are copied into every later fork.
    """
    finalizer = getattr(getattr(proc, "_popen", None), "finalizer", None)
    return tuple(getattr(finalizer, "_args", ()))


def _reap(worker: _Worker) -> int | None:
    """SIGKILL a worker that still runs (SIGCONT first, so frozen workers
    die too), wait for it, close its handles; returns its exit code."""
    proc = worker.proc
    if proc.exitcode is None:
        try:
            os.kill(proc.pid, signal.SIGCONT)
            proc.kill()
        except OSError:
            pass
        proc.join(timeout=10)
    rc = proc.exitcode
    worker.conn.close()
    worker.beat.close()
    try:
        proc.close()
    except ValueError:
        pass  # still running after SIGKILL and a 10 s join; leave it
    return rc
