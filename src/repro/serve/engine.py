"""The placement engine: caching, coalescing, backpressure, degradation.

:class:`PlacementEngine` is the transport-independent middle of the
daemon — both the unix-socket and HTTP front ends feed decoded request
dicts into :meth:`PlacementEngine.handle` and write back whatever dict
it returns.  The engine owns every serving policy:

* **Problem memo** — each distinct ``problem`` field is decoded and
  validated once: an LRU of :data:`PROBLEM_MEMO_SIZE` validated
  problems keyed by :func:`.protocol.problem_digest` of the raw field.
  Only a payload that decoded is stored, so bytes the daemon has not
  seen always pass every check of :func:`.protocol.decode_problem`.
* **Result cache** — a fingerprint-keyed LRU (:class:`.cache.ResultCache`);
  a repeat request never reaches the pool.
* **Coalescing** — identical in-flight requests (same operation,
  problem fingerprint, effective mapper, seed) share one solve via a
  single future; only the first occupies a queue slot.
* **One pool task per solve** — a leader request submits its payload,
  the validated :class:`MappingProblem` itself (pickled, not re-encoded),
  straight to a warm ``ProcessPoolExecutor``; a done-callback caches
  the row and resolves the shared future.  The executor's own queue
  orders solves, so no dispatcher or batch sits in between.
* **Backpressure** — at most ``queue_limit`` requests may be in flight;
  the next one is rejected with a 429-style response carrying a
  ``retry_after_s`` estimate from an EWMA of recent per-solve pool
  times.
* **Degradation** — once ``degrade_at`` solves are in flight, Greedy
  serves geo-distributed and multilevel requests (multilevel is no
  cheaper rung: below its coarsest size it runs geodist, then refines).
  Degraded results are cached under the mapper that *actually* ran, so
  they can never impersonate full-quality answers later.
* **Errors** — an :class:`~repro._validation.InputError` (a malformed
  field, an unknown name, an infeasible problem) is the caller's fault
  and answers 400; any other exception is a program fault and answers
  500 with a message that starts with its exception type.

Concurrency model: everything above executes on the event loop (single-
threaded), so the cache, in-flight table, and pending counter need no
locks.  The engine owns its :class:`MetricsRegistry` (there is no
ambient one; see :mod:`repro.obs.metrics`) and holds its
:class:`SpanRecorder` as an attribute rather than reading the ambient
recorder contextvar — executor callbacks and freshly spawned tasks
would otherwise observe the NULL default.
"""

from __future__ import annotations

import asyncio
import math
import platform
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Hashable

from .. import __version__
from .._validation import InputError, coerce
from ..core import MappingProblem, available_mappers
from ..obs import (
    MetricsRegistry,
    SpanRecorder,
    TelemetryStore,
    TraceContext,
    graft_trace,
    new_trace_id,
    trace_to_dict,
)
from .cache import ResultCache
from .protocol import (
    OPS,
    ProtocolError,
    decode_problem,
    error_response,
    problem_digest,
)
from .solver import solve_one

__all__ = ["EngineConfig", "PlacementEngine", "OverloadedError"]

#: Mappers that Greedy serves once ``degrade_at`` solves are in flight.
#: A request that names no mapper gets the first.
DEGRADABLE = ("geo-distributed", "multilevel")

#: Validated problems the engine keeps by wire digest, least recent
#: dropped.  Clients re-send a handful of problems, and each entry holds
#: a whole decoded problem, so the bound stays small.
PROBLEM_MEMO_SIZE = 16

#: The row every unsettled request gets when the engine stops.
_SHUTDOWN_ROW: dict[str, Any] = {
    "ok": False, "code": 503, "error": "daemon shutting down"
}



def _pool_failure(exc: BaseException | None) -> dict[str, Any]:
    """The row for a solve the pool itself failed (not the solver)."""
    return {"ok": False, "code": 500, "error": f"pool failure: {exc}"}


class OverloadedError(RuntimeError):
    """Queue full: the request was rejected, retry after ``retry_after_s``."""

    def __init__(self, retry_after_s: float) -> None:
        super().__init__(f"placement queue full; retry after {retry_after_s:.3f}s")
        self.retry_after_s = retry_after_s


@dataclass(frozen=True)
class EngineConfig:
    """Serving policy knobs (the ``repro serve`` CLI flags)."""

    pool_workers: int = 2
    queue_limit: int = 64
    cache_size: int = 256
    #: Queue depth at which geo-distributed and multilevel requests
    #: are served by Greedy.
    degrade_at: int | None = None
    #: Keep at most this many request span trees (oldest dropped); also
    #: bounds the by-trace-id document map behind ``GET /v1/trace/<id>``.
    span_keep: int = 256
    #: Telemetry store directory; ``None`` disables run-record appends.
    store_dir: str | None = None

    def __post_init__(self) -> None:
        if self.pool_workers < 1:
            raise InputError(f"pool_workers must be >= 1, got {self.pool_workers}")
        if self.queue_limit < 1:
            raise InputError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.cache_size < 0:
            raise InputError(f"cache_size must be >= 0, got {self.cache_size}")
        if self.degrade_at is not None and self.degrade_at < 0:
            raise InputError(f"degrade_at must be >= 0, got {self.degrade_at}")
        if self.span_keep < 0:
            raise InputError(f"span_keep must be >= 0, got {self.span_keep}")


class PlacementEngine:
    """Transport-independent request broker over a warm process pool."""

    def __init__(self, config: EngineConfig | None = None) -> None:
        self.config = config or EngineConfig()
        self.cache = ResultCache(self.config.cache_size)
        self.problems = ResultCache(PROBLEM_MEMO_SIZE)
        self.metrics = MetricsRegistry()
        self.recorder = SpanRecorder()
        self._pool: ProcessPoolExecutor | None = None
        self._in_flight: dict[Hashable, asyncio.Future[dict[str, Any]]] = {}
        self._pending = 0
        self._ewma_solve_s = 0.05
        self._started_at = time.monotonic()
        #: Closed request trace documents by trace id (bounded LRU-ish).
        self._traces: "OrderedDict[str, dict[str, Any]]" = OrderedDict()
        self._store: TelemetryStore | None = (
            TelemetryStore(self.config.store_dir)
            if self.config.store_dir
            else None
        )
        self._declare_metrics()
        self.metrics.set_gauge(
            "serve_build_info",
            1.0,
            version=__version__,
            python=platform.python_version(),
        )

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Spin up the warm solver pool, every worker forked up front."""
        if self._pool is not None:
            return
        workers = self.config.pool_workers
        # Workers inherit this process's modules.  Reading the mapper
        # registry imports the comparison mappers, so do it before the
        # fork, not in each worker's first solve.
        available_mappers()
        self._pool = ProcessPoolExecutor(max_workers=workers, initializer=_pool_init)
        # The pool forks lazily inside submit.  Forked there, a worker
        # would inherit the submitting request's open span (misparenting
        # its solve spans) and the client sockets open at that moment
        # (holding those connections open until the pool shuts down).
        # One concurrent no-op per worker forks them all here instead.
        loop = asyncio.get_running_loop()
        await asyncio.gather(
            *(loop.run_in_executor(self._pool, _pool_init) for _ in range(workers))
        )
        self._started_at = time.monotonic()

    async def stop(self) -> None:
        """Drain nothing: fail queued and running work with 503, join the pool."""
        for key, future in list(self._in_flight.items()):
            self._settle(key, future, _SHUTDOWN_ROW)
        pool, self._pool = self._pool, None
        if pool is not None:
            # Blocks until running solves finish and workers exit; run
            # off-loop so the event loop (which may still be answering
            # health checks) stays live.
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: pool.shutdown(wait=True, cancel_futures=True)
            )

    @property
    def pending(self) -> int:
        """In-flight solves (queued in the pool or executing)."""
        return self._pending

    # ------------------------------------------------------------- metrics

    def _declare_metrics(self) -> None:
        m = self.metrics
        m.counter("serve_requests_total", "Requests handled, by op and status.")
        m.counter("serve_cache_hits_total", "Requests answered from the LRU cache.")
        m.counter(
            "serve_problem_memo_hits_total",
            "Problem fields found already decoded in the problem memo.",
        )
        m.counter(
            "serve_problem_memo_misses_total",
            "Problem fields decoded and validated afresh.",
        )
        m.counter("serve_coalesced_total", "Requests that joined an in-flight solve.")
        m.counter("serve_rejected_total", "Requests rejected with 429 backpressure.")
        m.counter(
            "serve_degraded_total",
            "Requests served by a cheaper mapper than requested.",
        )
        m.histogram("serve_request_seconds", "End-to-end request latency.")
        m.histogram("serve_solve_seconds", "Pool round-trip time per solve.")
        m.gauge("serve_queue_depth", "In-flight solves (queued or executing).")
        m.gauge(
            "serve_build_info",
            "Constant 1; labels carry the repro version and Python version.",
        )
        m.gauge("serve_uptime_seconds", "Seconds since the engine started.")

    def refresh_runtime_gauges(self) -> None:
        """Re-stamp gauges that decay with time (called before scrapes)."""
        self.metrics.set_gauge(
            "serve_uptime_seconds", round(time.monotonic() - self._started_at, 3)
        )

    # ------------------------------------------------------------ dispatch

    def _on_solved(
        self,
        key: Hashable,
        future: "asyncio.Future[dict[str, Any]]",
        started: float,
        solve: "asyncio.Future[dict[str, Any]]",
    ) -> None:
        """Done-callback of one pool task: turn its outcome into a row."""
        if solve.cancelled():
            row = _SHUTDOWN_ROW
        elif solve.exception() is not None:  # broken pool etc.
            row = _pool_failure(solve.exception())
        else:
            elapsed = time.monotonic() - started
            self._ewma_solve_s = 0.8 * self._ewma_solve_s + 0.2 * elapsed
            self.metrics.observe("serve_solve_seconds", elapsed)
            row = solve.result()
        self._settle(key, future, row)

    def _settle(
        self,
        key: Hashable,
        future: "asyncio.Future[dict[str, Any]]",
        row: dict[str, Any],
    ) -> None:
        # stop() settles early; the pool task's callback then finds the
        # future done and must not release the slot a second time.
        if future.done():
            return
        self._pending -= 1
        self.metrics.set_gauge("serve_queue_depth", float(self._pending))
        self._in_flight.pop(key, None)
        if row.get("ok"):
            self.cache.put(key, row["result"])
        future.set_result(row)

    # ----------------------------------------------------------- policies

    def _effective_mapper(self, requested: str) -> str:
        """The mapper that serves ``requested`` at the current queue depth."""
        degrade_at = self.config.degrade_at
        if requested in DEGRADABLE and degrade_at is not None and self._pending >= degrade_at:
            return "greedy"
        return requested

    def _retry_after(self) -> float:
        """Rough time until a queue slot frees, from the per-solve EWMA."""
        waves = self._pending / self.config.pool_workers
        return max(0.05, waves * self._ewma_solve_s)

    async def _submit(
        self, key: Hashable, kind: str, params: dict[str, Any]
    ) -> tuple[dict[str, Any], bool]:
        """Coalesce onto an in-flight solve or submit a new pool task.

        Returns ``(row, coalesced)``; raises :class:`OverloadedError`
        when a fresh slot would exceed ``queue_limit``.
        """
        existing = self._in_flight.get(key)
        if existing is not None:
            return await asyncio.shield(existing), True
        if self._pool is None:
            return _SHUTDOWN_ROW, False
        if self._pending >= self.config.queue_limit:
            raise OverloadedError(self._retry_after())
        loop = asyncio.get_running_loop()
        future: asyncio.Future[dict[str, Any]] = loop.create_future()
        self._in_flight[key] = future
        self._pending += 1
        self.metrics.set_gauge("serve_queue_depth", float(self._pending))
        payload: dict[str, Any] = {"kind": kind, "params": params}
        # Wire-form trace context naming the leader's request span, so
        # the pool worker's solve spans parent under it.
        traceparent = self._request_traceparent()
        if traceparent is not None:
            payload["traceparent"] = traceparent
        started = time.monotonic()
        try:
            solve = loop.run_in_executor(self._pool, solve_one, payload)
        except Exception as exc:  # noqa: BLE001 - broken pool
            self._settle(key, future, _pool_failure(exc))
        else:
            solve.add_done_callback(
                lambda done: self._on_solved(key, future, started, done)
            )
        # shield(): a disconnecting client cancels its handler task, which
        # must not cancel the shared future other waiters may join.
        return await asyncio.shield(future), False

    # ------------------------------------------------------------ handlers

    async def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        """One decoded request dict in, one wire-ready response dict out."""
        request_id = request.get("id")
        op = request.get("op")
        start = time.monotonic()
        status = "error"
        # Distributed-trace identity: adopt the caller's trace id (and
        # parent span) from an injected traceparent, else mint our own.
        client_ctx = TraceContext.extract(request)
        trace_id = (
            client_ctx.trace_id if client_ctx is not None else new_trace_id()
        )
        with self.recorder.span("serve.request", op=str(op)) as span:
            span.parent_span_id = (
                client_ctx.span_id if client_ctx is not None else None
            )
            span.set(trace_id=trace_id)
            try:
                if op == "map":
                    response = await self._handle_map(request)
                elif op == "repair":
                    response = await self._handle_repair(request)
                elif op == "compare":
                    response = await self._handle_compare(request)
                elif op == "health":
                    response = {"id": request_id, "ok": True, "result": self.health()}
                elif op == "metrics":
                    self.refresh_runtime_gauges()
                    snap = self.metrics.snapshot()
                    response = {
                        "id": request_id,
                        "ok": True,
                        "result": {
                            "prometheus": snap.render_prom(),
                            "json": snap.to_dict(),
                        },
                    }
                elif op == "trace":
                    response = self._handle_trace(request)
                else:
                    response = error_response(
                        request_id, 400, f"unknown op {op!r}; expected one of {OPS}"
                    )
            except OverloadedError as exc:
                self.metrics.inc("serve_rejected_total", op=str(op))
                response = error_response(
                    request_id, 429, str(exc), retry_after_s=exc.retry_after_s
                )
            except InputError as exc:
                response = error_response(request_id, 400, str(exc))
            except Exception as exc:  # noqa: BLE001 - daemon must answer
                response = error_response(
                    request_id, 500, f"{type(exc).__name__}: {exc}"
                )
            response.setdefault("id", request_id)
            response["trace_id"] = trace_id
            code = response.get("code")
            status = "ok" if response.get("ok") else (
                "rejected" if code == 429 else "error"
            )
            span.set(
                status=status,
                cache_hit=bool(response.get("cache_hit", False)),
                coalesced=bool(response.get("coalesced", False)),
                degraded=bool(response.get("degraded", False)),
            )
        elapsed = time.monotonic() - start
        self.metrics.inc("serve_requests_total", op=str(op), status=status)
        self.metrics.observe("serve_request_seconds", elapsed, op=str(op))
        if op in ("map", "repair", "compare"):
            self._retain_trace(trace_id, span, op=str(op), status=status,
                               elapsed=elapsed, response=response)
        self.recorder.trim(self.config.span_keep)
        return response

    def _request_traceparent(self) -> str | None:
        """Wire context naming the open request span (for pool payloads)."""
        span = self.recorder.current_span()
        if span is None or span.span_id is None:
            return None
        trace_id = span.attrs.get("trace_id")
        if not isinstance(trace_id, str):
            return None
        try:
            ctx = TraceContext(trace_id=trace_id, span_id=span.span_id)
        except ValueError:
            return None
        return ctx.to_traceparent()

    def _retain_trace(
        self,
        trace_id: str,
        span: Any,
        *,
        op: str,
        status: str,
        elapsed: float,
        response: dict[str, Any],
    ) -> None:
        """Keep the closed request trace queryable; append a run record."""
        doc = trace_to_dict([span], trace_id=trace_id, anchor=self.recorder.anchor)
        self._traces[trace_id] = doc
        while len(self._traces) > self.config.span_keep:
            self._traces.popitem(last=False)
        if self._store is None:
            return
        try:
            self._store.append(
                {
                    "kind": "serve",
                    "op": op,
                    "trace_id": trace_id,
                    "status": status,
                    "seconds": elapsed,
                    "cache_hit": bool(response.get("cache_hit", False)),
                    "coalesced": bool(response.get("coalesced", False)),
                    "degraded": bool(response.get("degraded", False)),
                    "mapper": response.get("mapper"),
                }
            )
            self._store.save_trace(doc)
        except OSError:
            pass  # a full or read-only disk must not fail the request

    def get_trace(self, trace_id: str) -> dict[str, Any] | None:
        """The stored trace document for ``trace_id``, or ``None``."""
        return self._traces.get(trace_id)

    def _handle_trace(self, request: dict[str, Any]) -> dict[str, Any]:
        request_id = request.get("id")
        wanted = request.get("trace_id")
        if not isinstance(wanted, str) or not wanted:
            raise ProtocolError("trace needs a 'trace_id' string")
        doc = self.get_trace(wanted)
        if doc is None:
            return error_response(request_id, 404, f"no trace {wanted!r}")
        return {"id": request_id, "ok": True, "result": doc}

    def _decorate(
        self,
        request_id: Any,
        result: dict[str, Any],
        *,
        fingerprint: str,
        mapper: str | None = None,
        cache_hit: bool = False,
        coalesced: bool = False,
        degraded: bool = False,
    ) -> dict[str, Any]:
        response: dict[str, Any] = {
            "id": request_id,
            "ok": True,
            "result": result,
            "cache_hit": cache_hit,
            "coalesced": coalesced,
            "degraded": degraded,
            "fingerprint": fingerprint,
        }
        if mapper is not None:
            response["mapper"] = mapper
        return response

    async def _serve(
        self,
        op: str,
        request_id: Any,
        problem: MappingProblem,
        key: Hashable,
        params: dict[str, Any],
        *,
        fingerprint: str,
        mapper: str | None = None,
        degraded: bool = False,
    ) -> dict[str, Any]:
        """The shared solve path: cache, then coalesce-or-submit, then reply."""
        decor: dict[str, Any] = {
            "fingerprint": fingerprint, "mapper": mapper, "degraded": degraded
        }
        cached = self.cache.get(key)
        if cached is not None:
            self.metrics.inc("serve_cache_hits_total", op=op)
            return self._decorate(request_id, cached, cache_hit=True, **decor)
        params = {"problem": problem, **params}
        row, coalesced = await self._submit(key, f"serve-{op}", params)
        if coalesced:
            self.metrics.inc("serve_coalesced_total", op=op)
        elif row.get("trace") is not None:
            # Only the leader grafts — coalesced followers share the same
            # row and their request spans did not cause the solve.
            # A malformed document is dropped: tracing must never fail a
            # request.
            parent = self.recorder.current_span()
            if parent is not None:
                graft_trace(parent, row["trace"], self.recorder.anchor)
        if not row.get("ok"):
            return error_response(
                request_id, int(row.get("code", 500)), str(row.get("error"))
            )
        return self._decorate(
            request_id, row["result"], coalesced=coalesced, **decor
        )

    def _problem(self, request: dict[str, Any]) -> MappingProblem:
        """The request's validated problem, decoded once per distinct field."""
        raw = request.get("problem")
        digest = problem_digest(raw)
        problem = None if digest is None else self.problems.get(digest)
        if problem is not None:
            self.metrics.inc("serve_problem_memo_hits_total")
            return problem
        self.metrics.inc("serve_problem_memo_misses_total")
        problem = decode_problem(raw)
        if digest is not None:
            self.problems.put(digest, problem)
        return problem

    async def _handle_map(self, request: dict[str, Any]) -> dict[str, Any]:
        request_id = request.get("id")
        problem = self._problem(request)
        fingerprint = problem.fingerprint()
        requested = str(request.get("mapper") or DEGRADABLE[0])
        mapper_kwargs = coerce("mapper_kwargs", dict, request.get("mapper_kwargs") or {})
        seed = coerce("seed", int, request.get("seed", 0))
        sleep_s = coerce("sleep_s", float, request.get("sleep_s", 0.0))
        # inf would overflow the worker's sleep; NaN would enter the
        # cache key and never match again.
        if not math.isfinite(sleep_s) or sleep_s < 0:
            raise ProtocolError(f"sleep_s must be finite and >= 0, got {sleep_s}")
        kwargs_key = tuple(sorted((str(k), repr(v)) for k, v in mapper_kwargs.items()))

        def key_for(mapper: str) -> Hashable:
            return ("map", fingerprint, mapper, kwargs_key, seed, sleep_s)

        effective = self._effective_mapper(requested)
        degraded = effective != requested
        if degraded:
            # A full-quality cached answer beats running anything
            # degraded — check the *requested* mapper's key first.
            cached = self.cache.get(key_for(requested))
            if cached is not None:
                self.metrics.inc("serve_cache_hits_total", op="map")
                return self._decorate(
                    request_id, cached, fingerprint=fingerprint,
                    mapper=requested, cache_hit=True,
                )
            self.metrics.inc(
                "serve_degraded_total", requested=requested, effective=effective
            )
        params: dict[str, Any] = {
            "mapper": effective,
            "mapper_kwargs": mapper_kwargs,
            "seed": seed,
        }
        if sleep_s > 0:
            params["sleep_s"] = sleep_s
        return await self._serve(
            "map", request_id, problem, key_for(effective), params,
            fingerprint=fingerprint, mapper=effective, degraded=degraded,
        )

    async def _handle_repair(self, request: dict[str, Any]) -> dict[str, Any]:
        problem = self._problem(request)
        fingerprint = problem.fingerprint()
        partial = request.get("partial")
        if not isinstance(partial, (list, tuple)):
            raise ProtocolError("repair needs a 'partial' assignment list")
        partial = coerce("partial", lambda v: [int(p) for p in v], partial)
        refine_rounds = coerce("refine_rounds", int, request.get("refine_rounds", 2))
        extra_moves = coerce("extra_moves", int, request.get("extra_moves", 0))
        key = ("repair", fingerprint, tuple(partial), refine_rounds, extra_moves)
        params = {
            "partial": partial,
            "refine_rounds": refine_rounds,
            "extra_moves": extra_moves,
        }
        return await self._serve(
            "repair", request.get("id"), problem, key, params,
            fingerprint=fingerprint,
        )

    async def _handle_compare(self, request: dict[str, Any]) -> dict[str, Any]:
        problem = self._problem(request)
        fingerprint = problem.fingerprint()
        mappers = request.get("mappers")
        if not isinstance(mappers, (list, tuple)) or not mappers:
            raise ProtocolError("compare needs a non-empty 'mappers' list")
        names = tuple(str(m) for m in mappers)
        seed = coerce("seed", int, request.get("seed", 0))
        key = ("compare", fingerprint, names, seed)
        params = {"mappers": list(names), "seed": seed}
        return await self._serve(
            "compare", request.get("id"), problem, key, params,
            fingerprint=fingerprint,
        )

    def health(self) -> dict[str, Any]:
        """The ``health`` op's payload (also the HTTP ``/health`` body)."""
        self.refresh_runtime_gauges()
        return {
            "status": "ok" if self._pool is not None else "stopped",
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "pending": self._pending,
            "queue_limit": self.config.queue_limit,
            "pool_workers": self.config.pool_workers,
            "degrade_at": self.config.degrade_at,
            "cache": self.cache.stats(),
            "problem_memo": self.problems.stats(),
        }


def _pool_init() -> None:
    """Pool worker initializer: make the serve task kinds importable.

    Under the ``spawn`` start method workers begin with a blank module
    table; importing :mod:`repro.serve.solver` re-registers the serve
    kinds.  A forked worker inherits them, and the mappers that
    :meth:`PlacementEngine.start` resolved before the fork, so there the
    import is a no-op.  ``start`` also submits it once per worker as the
    no-op task that forks the pool up front.
    """
    from . import solver  # noqa: F401
