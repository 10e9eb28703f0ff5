"""End-to-end experiment runner: profile, map, simulate, measure.

This glues the substrates into the paper's pipeline:

1. **profile** the application on the uniform network -> CG/AG;
2. build the :class:`~repro.core.problem.MappingProblem` against a
   realized cloud topology, with a random constraint vector at the
   requested ratio (paper default 0.2);
3. **map** with each algorithm (timing its optimization overhead);
4. **simulate** the application under each mapping with the
   discrete-event engine, in two modes mirroring the paper's two
   evaluation settings:

   * ``"full"``  — compute + communication (the "Amazon EC2" runs of
     Fig. 5, where computation and I/O time dilute the improvement);
   * ``"comm"``  — communication only (the ns-2 simulations of Fig. 6).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping as TypingMapping

import numpy as np

from .._validation import as_rng, check_fraction
from ..apps.base import Application
from ..cloud.topology import CloudTopology
from ..core.constraints import random_constraints
from ..core.mapping import Mapper, Mapping
from ..core.problem import MappingProblem
from ..simmpi.engine import SimResult, Simulator
from ..simmpi.network import SimNetwork
from .checkpoint import CheckpointStore

__all__ = [
    "RunResult",
    "ScenarioOutcome",
    "ResilientRunner",
    "AbandonedThreadLimitError",
    "build_problem",
    "simulate_mapping",
    "run_comparison",
]


class AbandonedThreadLimitError(RuntimeError):
    """A runner abandoned more hung executors than ``max_abandoned``.

    Each abandoned thread leaks CPU and memory for the life of the
    process; hitting the cap means the workload hangs systematically
    and should run under process isolation
    (:class:`repro.exp.fabric.SweepFabric`) instead.
    """


@dataclass(frozen=True)
class RunResult:
    """One (application, mapper) measurement.

    Attributes
    ----------
    mapping:
        The solution, including its optimization overhead (`elapsed_s`).
    total_time_s:
        Simulated execution time with compute phases enabled.
    comm_time_s:
        Simulated execution time with compute scaled to zero.
    sim:
        The full-mode simulation statistics.
    """

    mapping: Mapping
    total_time_s: float
    comm_time_s: float
    sim: SimResult

    @property
    def mapper(self) -> str:
        return self.mapping.mapper


def build_problem(
    app: Application,
    topology: CloudTopology,
    *,
    constraint_ratio: float = 0.2,
    seed: int | np.random.Generator | None = 0,
) -> MappingProblem:
    """Profile ``app`` and pose its mapping problem on ``topology``.

    The profile is the app's cached one when it has been profiled
    before; the span's ``profile_cached`` attribute says which.

    The constraint vector is drawn randomly at ``constraint_ratio``
    exactly as in the paper's setup (Section 5.1).
    """
    check_fraction(constraint_ratio, "constraint_ratio")
    if topology.total_nodes < app.num_ranks:
        raise ValueError(
            f"topology has {topology.total_nodes} nodes for "
            f"{app.num_ranks} processes"
        )
    from ..obs import get_recorder

    with get_recorder().span(
        "build_problem",
        app=app.name,
        num_processes=app.num_ranks,
        constraint_ratio=constraint_ratio,
        profile_cached=app.profiled,
    ):
        cg, ag = app.communication_matrices()
        constraints = (
            random_constraints(
                app.num_ranks, topology.capacities, constraint_ratio, seed=seed
            )
            if constraint_ratio > 0
            else None
        )
        return MappingProblem.from_topology(cg, ag, topology, constraints=constraints)


def simulate_mapping(
    app: Application,
    problem: MappingProblem,
    assignment: np.ndarray,
    *,
    mode: str = "full",
    contention: bool = True,
) -> SimResult:
    """Simulate ``app`` under a fixed mapping.

    ``mode="full"`` keeps compute phases; ``mode="comm"`` zeroes them.
    """
    if mode not in ("full", "comm"):
        raise ValueError(f"mode must be 'full' or 'comm', got {mode!r}")
    from ..obs import get_recorder

    network = SimNetwork(problem, assignment, contention=contention)
    with get_recorder().span("simulate." + mode, app=app.name):
        return Simulator(
            app.num_ranks,
            app.program,
            network,
            compute_scale=1.0 if mode == "full" else 0.0,
        ).run()


def run_comparison(
    app: Application,
    problem: MappingProblem,
    mappers: dict[str, Mapper],
    *,
    seed: int | np.random.Generator | None = 0,
    simulate: bool = True,
) -> dict[str, RunResult]:
    """Map with every algorithm and simulate each mapping.

    Returns results keyed by the mapper dict's keys.  With
    ``simulate=False`` only the mapping (and its additive cost/overhead)
    is produced — enough for overhead studies like Fig. 4 — and the
    simulated times are NaN.
    """
    from ..obs import get_recorder

    obs = get_recorder()
    rng = as_rng(seed)
    out: dict[str, RunResult] = {}
    for key, mapper in mappers.items():
        with obs.span(
            "comparison.mapper", key=key, mapper=mapper.name, app=app.name
        ) as sp:
            mapping = mapper.map(problem, seed=rng)
            sp.set(cost=mapping.cost, map_elapsed_s=mapping.elapsed_s)
            if simulate:
                full = simulate_mapping(app, problem, mapping.assignment, mode="full")
                comm = simulate_mapping(app, problem, mapping.assignment, mode="comm")
                sp.set(total_time_s=full.makespan_s, comm_time_s=comm.makespan_s)
                out[key] = RunResult(
                    mapping=mapping,
                    total_time_s=full.makespan_s,
                    comm_time_s=comm.makespan_s,
                    sim=full,
                )
                continue
            empty = SimResult(
                makespan_s=float("nan"),
                rank_times_s=np.full(app.num_ranks, np.nan),
                total_messages=0,
                total_bytes=0,
                comm_wait_s=float("nan"),
                barriers=0,
            )
            out[key] = RunResult(
                mapping=mapping,
                total_time_s=float("nan"),
                comm_time_s=float("nan"),
                sim=empty,
            )
    return out


# --------------------------------------------------------------------------
# Resilient sweeps: timeouts, bounded retries, checkpoint/resume.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioOutcome:
    """The fate of one scenario in a resilient sweep.

    Attributes
    ----------
    key:
        The scenario's identifier in the sweep.
    status:
        ``"ok"`` (the thunk returned), ``"failed"`` (it raised on every
        attempt) or ``"timeout"`` (it overran the per-scenario budget on
        every attempt).
    attempts:
        How many times the scenario actually ran (0 when served from a
        checkpoint).
    elapsed_s:
        Wall time of the *final* attempt.
    result:
        The thunk's return value (a JSON-serializable dict by
        convention) when ``status == "ok"``, else ``None``.
    error:
        ``"ExcType: message"`` of the last failure, else ``None``.
    from_checkpoint:
        True when the outcome was replayed from the checkpoint store
        instead of executing.
    """

    key: str
    status: str
    attempts: int
    elapsed_s: float
    result: dict[str, Any] | None
    error: str | None
    from_checkpoint: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_row(self) -> dict[str, Any]:
        """The JSON row persisted to the checkpoint store."""
        return {
            "status": self.status,
            "attempts": self.attempts,
            "elapsed_s": self.elapsed_s,
            "result": self.result,
            "error": self.error,
        }


class ResilientRunner:
    """Run a sweep of scenario thunks, surviving crashes and hangs.

    Each scenario is a zero-argument callable returning a JSON-friendly
    dict.  The runner guards every call with a per-scenario timeout
    (executed on a worker thread; a timed-out thread is abandoned and a
    fresh executor started, so one hung simulation cannot wedge the
    sweep), retries failures a bounded number of times with
    deterministic exponential backoff, converts scenarios that never
    succeed into failure rows instead of aborting the sweep, and
    checkpoints every outcome so a killed sweep resumes without
    re-executing finished work.

    Parameters
    ----------
    timeout_s:
        Per-attempt budget in seconds; ``None`` disables the timeout
        (scenarios run inline, no worker thread).
    max_retries:
        Extra attempts after the first failure/timeout (so a scenario
        runs at most ``1 + max_retries`` times).
    backoff_base_s / backoff_factor:
        Attempt ``k`` (0-based) that fails sleeps
        ``backoff_base_s * backoff_factor**k`` before the retry — a
        deterministic schedule, no jitter, so sweeps are reproducible.
    checkpoint:
        A :class:`~repro.exp.checkpoint.CheckpointStore`, a path to
        create one at, or ``None`` to disable persistence.
    sleep:
        Injectable sleep function (tests pass a recorder; default
        :func:`time.sleep`).
    max_abandoned:
        Hard cap on abandoned hung executors per runner.  An abandoned
        thread never dies — it keeps its CPU, its memory, and anything
        it locked — so a sweep that hits this cap is leaking resources
        at a rate that will eventually take the host down.  Exceeding
        it raises :class:`AbandonedThreadLimitError` instead of limping
        on.  The real fix for hang-prone workloads is process
        isolation: :class:`repro.exp.fabric.SweepFabric` SIGKILLs a
        hung worker and actually reclaims the CPU.
    """

    def __init__(
        self,
        *,
        timeout_s: float | None = None,
        max_retries: int = 1,
        backoff_base_s: float = 0.05,
        backoff_factor: float = 2.0,
        checkpoint: CheckpointStore | str | Path | None = None,
        sleep: Callable[[float], None] | None = None,
        max_abandoned: int = 32,
    ) -> None:
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if backoff_base_s < 0 or backoff_factor < 0:
            raise ValueError("backoff parameters must be non-negative")
        if max_abandoned < 1:
            raise ValueError(f"max_abandoned must be >= 1, got {max_abandoned}")
        self.timeout_s = timeout_s
        self.max_retries = int(max_retries)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_factor = float(backoff_factor)
        self.max_abandoned = int(max_abandoned)
        self.abandoned_threads = 0
        if isinstance(checkpoint, (str, Path)):
            checkpoint = CheckpointStore(checkpoint)
        self.checkpoint = checkpoint
        self._sleep = sleep if sleep is not None else time.sleep

    # ------------------------------------------------------------ internals

    def _attempt(
        self, thunk: Callable[[], dict[str, Any]]
    ) -> tuple[str, dict[str, Any] | None, str | None]:
        """One guarded attempt: (status, result, error)."""
        if self.timeout_s is None:
            result = thunk()
            return "ok", result, None
        executor = ThreadPoolExecutor(max_workers=1)
        try:
            future = executor.submit(thunk)
            try:
                result = future.result(timeout=self.timeout_s)
            except FutureTimeoutError:
                # Abandon the hung thread; a fresh executor serves the
                # next attempt so the sweep never blocks on it.  The
                # thread itself cannot be reclaimed — count the leak
                # and refuse to accumulate them without bound.
                future.cancel()
                executor.shutdown(wait=False, cancel_futures=True)
                self.abandoned_threads += 1
                from ..obs import get_metrics

                metrics = get_metrics()
                if metrics.enabled:
                    metrics.set_gauge(
                        "runner_abandoned_threads", self.abandoned_threads
                    )
                if self.abandoned_threads > self.max_abandoned:
                    raise AbandonedThreadLimitError(
                        f"abandoned {self.abandoned_threads} hung worker "
                        f"threads (cap {self.max_abandoned}); each leaks "
                        "CPU and memory for the life of this process — "
                        "run this sweep under repro.exp.fabric."
                        "SweepFabric, which kills hung workers for real"
                    )
                return (
                    "timeout",
                    None,
                    f"TimeoutError: exceeded {self.timeout_s}s budget",
                )
            return "ok", result, None
        finally:
            executor.shutdown(wait=False, cancel_futures=True)

    def _run_one(
        self, key: str, thunk: Callable[[], dict[str, Any]]
    ) -> ScenarioOutcome:
        from ..obs import get_metrics, get_recorder

        obs = get_recorder()
        metrics = get_metrics()
        max_attempts = 1 + self.max_retries
        status: str = "failed"
        result: dict[str, Any] | None = None
        error: str | None = "never attempted"
        attempts = 0
        elapsed = 0.0
        with obs.span(
            "runner.scenario",
            key=key,
            timeout_s=self.timeout_s,
            max_retries=self.max_retries,
        ) as span:
            for attempt in range(max_attempts):
                start = time.perf_counter()
                try:
                    status, result, error = self._attempt(thunk)
                except AbandonedThreadLimitError:
                    # Resource-exhaustion guard, not a scenario failure:
                    # converting it to a failure row would hide a leak
                    # that only gets worse with every further timeout.
                    raise
                except Exception as exc:  # graceful degradation: failure row
                    status, result = "failed", None
                    error = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
                attempts = attempt + 1
                if status == "ok":
                    break
                obs.event(
                    "runner.attempt_failed",
                    attempt=attempt,
                    status=status,
                    error=error,
                )
                if attempt + 1 < max_attempts:
                    backoff = self.backoff_base_s * self.backoff_factor**attempt
                    obs.event("runner.retry", attempt=attempt, backoff_s=backoff)
                    metrics.inc("runner_retries_total")
                    self._sleep(backoff)
            span.set(status=status, attempts=attempts, elapsed_s=elapsed)
            if metrics.enabled:
                metrics.inc("runner_scenarios_total", status=status)
                metrics.observe("runner_scenario_seconds", elapsed, status=status)
        return ScenarioOutcome(
            key=key,
            status=status,
            attempts=attempts,
            elapsed_s=elapsed,
            result=result,
            error=error,
        )

    # --------------------------------------------------------------- public

    def run(
        self,
        scenarios: (
            TypingMapping[str, Callable[[], dict[str, Any]]]
            | Iterable[tuple[str, Callable[[], dict[str, Any]]]]
        ),
        *,
        resume: bool = False,
    ) -> dict[str, ScenarioOutcome]:
        """Execute every scenario, returning outcomes in input order.

        With ``resume=True`` (requires a checkpoint store) scenarios
        whose stored row has ``status == "ok"`` are replayed from the
        checkpoint instead of re-executing; failed/timed-out rows are
        retried — resuming is how a sweep heals.
        """
        if resume and self.checkpoint is None:
            raise ValueError("resume=True requires a checkpoint store")
        from ..obs import get_metrics, get_recorder

        obs = get_recorder()
        metrics = get_metrics()
        items = (
            list(scenarios.items())
            if isinstance(scenarios, TypingMapping)
            else list(scenarios)
        )
        done = (
            self.checkpoint.completed_keys()
            if (resume and self.checkpoint is not None)
            else set()
        )
        outcomes: dict[str, ScenarioOutcome] = {}
        with obs.span(
            "runner.sweep", num_scenarios=len(items), resume=resume
        ) as sweep:
            for key, thunk in items:
                if key in done and self.checkpoint is not None:
                    row = self.checkpoint.get(key) or {}
                    obs.event(
                        "runner.checkpoint_replay",
                        key=key,
                        status=str(row.get("status", "ok")),
                    )
                    metrics.inc("runner_replays_total")
                    outcomes[key] = ScenarioOutcome(
                        key=key,
                        status=str(row.get("status", "ok")),
                        attempts=0,
                        elapsed_s=float(row.get("elapsed_s", 0.0)),
                        result=row.get("result"),
                        error=row.get("error"),
                        from_checkpoint=True,
                    )
                    continue
                outcome = self._run_one(key, thunk)
                if self.checkpoint is not None:
                    self.checkpoint.record(key, outcome.to_row())
                outcomes[key] = outcome
            statuses = [o.status for o in outcomes.values()]
            sweep.set(
                ok=statuses.count("ok"),
                failed=statuses.count("failed"),
                timeout=statuses.count("timeout"),
                replayed=sum(1 for o in outcomes.values() if o.from_checkpoint),
            )
        return outcomes
