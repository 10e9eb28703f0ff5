"""Pool-worker side of the placement daemon: the actual solves.

The daemon's event loop never touches a solver — it ships each payload
as one task to a warm ``ProcessPoolExecutor`` whose workers run
:func:`solve_one`.  Each payload is a fabric-style ``{"kind", "params"}``
pair resolved through :mod:`repro.exp.fabric.tasks`'s registry, so the
serve stack reuses the fabric's task contract instead of inventing a
second task dispatch: importing this module (which the pool initializer
does) registers the three serve kinds.

Params carry the validated :class:`~repro.core.MappingProblem` itself:
the daemon decoded it once and the pool hop pickles it, so no task
decodes or re-validates anything.  A problem does not survive JSON, so
these kinds run only where params travel by pickle, as on the daemon's
pool, and not in a fabric sweep, whose params are JSON.

``serve-map``
    One placement solve: params carry the problem, a mapper
    registry name (+ kwargs), and a seed.  Each request builds its
    mapper with :func:`repro.core.get_mapper`; construction holds only
    configuration and costs about a microsecond, far below any solve.
``serve-repair``
    Incremental repair of a partial assignment
    (:func:`repro.core.repair_mapping`).
``serve-compare``
    One problem through several mappers, returning every mapping.

Like the fabric's demo task, ``serve-map`` accepts a ``sleep_s`` param —
a test-only stall injected *before* the solve so coalescing and
backpressure tests can deterministically hold a request in flight
(natural solves at test sizes finish in single-digit milliseconds).
"""

from __future__ import annotations

import time
from typing import Any

from .._validation import InputError
from ..core import MappingProblem, get_mapper, repair_mapping
from ..exp.fabric.tasks import register_task
from .protocol import encode_mapping

__all__ = ["solve_one", "serve_map_task", "serve_repair_task", "serve_compare_task"]


def _problem(params: dict[str, Any]) -> MappingProblem:
    problem = params.get("problem")
    if not isinstance(problem, MappingProblem):
        raise InputError(f"problem must be a MappingProblem, got {type(problem).__name__}")
    return problem


@register_task("serve-map")
def serve_map_task(params: dict[str, Any]) -> dict[str, Any]:
    """Solve one problem with one mapper."""
    sleep_s = float(params.get("sleep_s", 0.0))
    if sleep_s > 0:
        time.sleep(sleep_s)
    problem = _problem(params)
    kwargs = params.get("mapper_kwargs") or {}
    mapper = get_mapper(str(params.get("mapper", "geo-distributed")), **kwargs)
    mapping = mapper.map(problem, seed=int(params.get("seed", 0)))
    return encode_mapping(mapping)


@register_task("serve-repair")
def serve_repair_task(params: dict[str, Any]) -> dict[str, Any]:
    """Repair a partial assignment against the problem."""
    import numpy as np

    problem = _problem(params)
    partial = np.asarray(params["partial"], dtype=np.int64)
    result = repair_mapping(
        problem,
        partial,
        refine_rounds=int(params.get("refine_rounds", 2)),
        extra_moves=int(params.get("extra_moves", 0)),
    )
    return {
        "mapping": encode_mapping(result.mapping),
        "displaced": result.displaced.tolist(),
        "migrated": result.migrated.tolist(),
    }


@register_task("serve-compare")
def serve_compare_task(params: dict[str, Any]) -> dict[str, Any]:
    """One problem through several mappers; a mapping per registry name."""
    problem = _problem(params)
    seed = int(params.get("seed", 0))
    results: dict[str, Any] = {}
    for name in params.get("mappers", ()):
        mapper = get_mapper(str(name))
        results[str(name)] = encode_mapping(mapper.map(problem, seed=seed))
    return {"mappings": results}


def solve_one(payload: dict[str, Any]) -> dict[str, Any]:
    """Run one ``{"kind", "params"}`` payload in-process; one pool task.

    Failures are captured, not raised — a worker must answer, not die —
    and reported as an ``{"ok": False, ...}`` row the engine turns into
    a response: 400 for an :class:`~repro._validation.InputError`, 500
    (its text starting with the exception type) for anything else.

    A payload carrying a ``"traceparent"`` runs under a fresh
    :class:`~repro.obs.SpanRecorder` bound to that context, and its row
    gains a ``"trace"`` document (spans + this process's clock anchor)
    the engine grafts under the originating request span.
    """
    from ..exp.fabric.tasks import get_task
    from ..obs import SpanRecorder, TraceContext, trace_to_dict, using_recorder

    context: TraceContext | None = None
    raw_tp = payload.get("traceparent")
    if isinstance(raw_tp, str):
        try:
            context = TraceContext.from_traceparent(raw_tp)
        except ValueError:
            context = None  # a bad header must not fail the solve
    try:
        fn = get_task(str(payload["kind"]))
        params = dict(payload["params"])
        if context is None:
            return {"ok": True, "result": fn(params)}
        recorder = SpanRecorder(context=context)
        with using_recorder(recorder):
            with recorder.span("serve.solve", kind=str(payload["kind"])):
                result = fn(params)
        return {
            "ok": True,
            "result": result,
            "trace": trace_to_dict(
                recorder.roots,
                trace_id=recorder.trace_id,
                anchor=recorder.anchor,
            ),
        }
    except InputError as exc:
        return {"ok": False, "code": 400, "error": str(exc)}
    except Exception as exc:  # noqa: BLE001 - worker must answer, not die
        return {"ok": False, "code": 500, "error": f"{type(exc).__name__}: {exc}"}
