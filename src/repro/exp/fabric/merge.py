"""n:1 merge: shard files -> one deterministic, input-ordered table.

The merged table's row order is the *manifest* order, never the order
tasks happened to finish in, so two sweeps over the same spec set are
directly comparable.  Shards carry two kinds of data:

* the **payload** — ``key``, ``status``, ``degraded``, and the task's
  ``result`` minus its ``timing`` sub-dict; deterministic in the spec;
* the **envelope** — ``attempts``, ``elapsed_s``, ``worker``, and any
  ``result["timing"]``; these depend on scheduling, load, and chaos.

:func:`comparable_rows` strips the envelope, which is what lets a
chaotic sweep assert bit-identity against a fault-free run: chaos may
change *how many tries* a task took, never *what it computed*.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Sequence

from .io import atomic_write_json, read_json
from .spec import (
    RESULT_FORMAT,
    FabricError,
    SweepLayout,
    load_manifest,
    load_shard,
)

__all__ = [
    "MergeResult",
    "merge_shards",
    "comparable_rows",
    "results_equivalent",
    "diff_results",
    "stitch_worker_traces",
]

#: Envelope fields on each shard row that scheduling/chaos may change.
ENVELOPE_FIELDS = ("attempts", "elapsed_s", "worker")


class MergeResult:
    """Outcome of one merge pass."""

    def __init__(
        self,
        rows: list[dict[str, Any]],
        missing: list[str],
        corrupt: list[str],
        path: Path | None,
    ) -> None:
        self.rows = rows
        self.missing = missing
        self.corrupt = corrupt
        self.path = path

    @property
    def complete(self) -> bool:
        return not self.missing and not self.corrupt

    def summary(self) -> str:
        counts: dict[str, int] = {}
        for row in self.rows:
            counts[row["status"]] = counts.get(row["status"], 0) + 1
        parts = [f"{len(self.rows)} rows"]
        parts += [f"{s}={n}" for s, n in sorted(counts.items())]
        if self.missing:
            parts.append(f"missing={len(self.missing)}")
        if self.corrupt:
            parts.append(f"corrupt={len(self.corrupt)}")
        return "merge: " + ", ".join(parts)


def merge_shards(
    root: str | Path, *, strict: bool = True, write: bool = True
) -> MergeResult:
    """Merge every shard into the input-ordered result table.

    ``strict=True`` raises :class:`FabricError` when any manifest key
    has no valid shard — the mode CI uses, where "every scenario
    accounted for" is the contract.  ``strict=False`` reports the gaps
    in :attr:`MergeResult.missing` / ``corrupt`` instead, for peeking
    at a sweep that is still running or partially lost.
    """
    layout = SweepLayout(root)
    keys = load_manifest(root)
    rows: list[dict[str, Any]] = []
    missing: list[str] = []
    corrupt: list[str] = []
    for key in keys:
        shard = load_shard(root, key)
        if shard is None:
            # Distinguish "never ran" from "file exists but unreadable"
            # purely for the error message; both mean no result.
            if layout.shard_path(key).exists():
                corrupt.append(key)
            else:
                missing.append(key)
            continue
        rows.append(shard)
    if strict and (missing or corrupt):
        raise FabricError(
            f"merge incomplete: {len(missing)} task(s) have no shard "
            f"{missing[:5]}, {len(corrupt)} unreadable {corrupt[:5]} — "
            "resume the sweep to heal"
        )
    path: Path | None = None
    if write and not missing and not corrupt:
        path = layout.result_path
        atomic_write_json(path, {"format": RESULT_FORMAT, "rows": rows})
    return MergeResult(rows, missing, corrupt, path)


def comparable_rows(rows: Sequence[dict[str, Any]]) -> list[dict[str, Any]]:
    """Rows with the scheduling envelope stripped — the payload view."""
    out: list[dict[str, Any]] = []
    for row in rows:
        clean = {k: v for k, v in row.items() if k not in ENVELOPE_FIELDS}
        result = clean.get("result")
        if isinstance(result, dict) and "timing" in result:
            clean["result"] = {
                k: v for k, v in result.items() if k != "timing"
            }
        out.append(clean)
    return out


def _canonical(rows: Sequence[dict[str, Any]]) -> str:
    return json.dumps(comparable_rows(rows), sort_keys=True)


def results_equivalent(
    a: Sequence[dict[str, Any]], b: Sequence[dict[str, Any]]
) -> bool:
    """True when two result tables carry the identical payload."""
    return _canonical(a) == _canonical(b)


def diff_results(
    a: Sequence[dict[str, Any]], b: Sequence[dict[str, Any]]
) -> list[str]:
    """Human-readable payload differences (empty when equivalent)."""
    left = {r["key"]: r for r in comparable_rows(a)}
    right = {r["key"]: r for r in comparable_rows(b)}
    out: list[str] = []
    for key in sorted(set(left) | set(right)):
        if key not in left:
            out.append(f"{key}: only in second table")
        elif key not in right:
            out.append(f"{key}: only in first table")
        elif json.dumps(left[key], sort_keys=True) != json.dumps(
            right[key], sort_keys=True
        ):
            out.append(
                f"{key}: payload differs "
                f"({json.dumps(left[key], sort_keys=True)[:120]} != "
                f"{json.dumps(right[key], sort_keys=True)[:120]})"
            )
    return out


def stitch_worker_traces(
    root: str | Path, out: str | Path | None = None
) -> dict[str, Any]:
    """Merge per-process span files into one single-rooted trace document.

    Workers write their traces independently (shared-nothing), so the
    sweep's execution history is scattered across
    ``traces/<worker>.<seq>.trace.json`` files (one per finished task)
    plus the supervisor's own
    ``traces/supervisor.trace.json`` (the ``fabric.sweep`` root span).
    Stitching walks them in filename order (stable across runs) and:

    * validates every file against the trace schema — truncated or
      malformed files (killed workers) are counted in the returned
      document's ``skipped_sources`` instead of being silently dropped;
    * rebases each worker's ``perf_counter`` timestamps onto the
      supervisor's clock via the documents' :class:`ClockAnchor` pairs;
    * parents each worker root span under the supervisor's sweep span
      using its propagated ``parent_span_id``.  Spans that cannot be
      causally attached (pre-context traces, or a worker that lost its
      context) are still kept, attached under the root with a
      ``stitch_orphan`` attribute.

    The result is one causally-parented tree carrying the sweep's
    ``trace_id`` and anchor — :func:`repro.obs.validate_causal_trace`
    material, not a concatenation.  When the supervisor document is
    missing (a pre-upgrade sweep directory), the worker spans are merged
    flat, without rebasing, exactly as before.
    """
    from ...obs import (
        Span,
        TraceSchemaError,
        shift_spans,
        span_from_dict,
        trace_anchor,
        trace_to_dict,
        validate_trace,
    )

    layout = SweepLayout(root)
    sources: list[str] = []
    skipped: list[str] = []

    def _load(path: Path) -> tuple[list[Span], Any] | None:
        """(spans, anchor) from one trace file, or None when invalid."""
        data = read_json(path)
        if not isinstance(data, dict):
            return None
        try:
            validate_trace(data)
            spans = [span_from_dict(s) for s in data.get("spans", [])]
        except (TraceSchemaError, ValueError, TypeError):
            return None
        return spans, trace_anchor(data)

    # The supervisor document roots the tree and fixes the target clock.
    sup_root: Span | None = None
    trace_id: str | None = None
    base_anchor = None
    sup_path = layout.supervisor_trace_path
    if sup_path.exists():
        loaded = _load(sup_path)
        sup_doc = read_json(sup_path) if loaded is not None else None
        if (
            loaded is not None
            and len(loaded[0]) == 1
            and loaded[1] is not None
            and isinstance(sup_doc, dict)
            and isinstance(sup_doc.get("trace_id"), str)
        ):
            sup_root = loaded[0][0]
            base_anchor = loaded[1]
            trace_id = sup_doc["trace_id"]
            sources.append(sup_path.name)
        else:
            skipped.append(sup_path.name)

    worker_spans: list[Span] = []
    if layout.traces_dir.is_dir():
        for path in sorted(layout.traces_dir.glob("*.trace.json")):
            if path.name == sup_path.name:
                continue
            loaded = _load(path)
            if loaded is None:
                skipped.append(path.name)
                continue
            spans, anchor = loaded
            if sup_root is not None:
                if anchor is None:
                    # No anchor means no way to place these spans on the
                    # supervisor's clock — unusable in a rooted trace.
                    skipped.append(path.name)
                    continue
                shift_spans(spans, anchor.offset_to(base_anchor))
            sources.append(path.name)
            worker_spans.extend(spans)

    if sup_root is not None:
        for span in worker_spans:
            if span.parent_span_id != sup_root.span_id:
                # Keep the span (it happened) but mark the broken edge.
                span.attrs["stitch_orphan"] = True
                if span.parent_span_id is not None:
                    span.attrs["stitch_orphan_parent"] = span.parent_span_id
                span.parent_span_id = sup_root.span_id
        sup_root.children.extend(worker_spans)
        sup_root.children.sort(key=lambda s: s.t_start)
        roots = [sup_root]
    else:
        roots = sorted(worker_spans, key=lambda s: s.t_start)

    doc = trace_to_dict(roots, trace_id=trace_id, anchor=base_anchor)
    doc["sources"] = sources
    doc["skipped_sources"] = skipped
    if out is not None:
        atomic_write_json(out, doc)
    return doc
