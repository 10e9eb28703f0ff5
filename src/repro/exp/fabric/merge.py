"""n:1 merge: shard files -> one deterministic, input-ordered table.

The merged table's row order is the *manifest* order, never the order
tasks happened to finish in, so two sweeps over the same spec set are
directly comparable.  Shards carry two kinds of data:

* the **payload** — ``key``, ``status``, and the task's
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

from .io import atomic_write_json
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
    keys = [spec.key for spec in load_manifest(root)]
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
