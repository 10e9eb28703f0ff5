"""Unit tests for the persistent telemetry store (repro.obs.store)."""

import math

import pytest

from repro.obs import (
    STORE_ENV,
    STORE_SCHEMA,
    QueryResult,
    StoreError,
    TelemetryStore,
    default_store_dir,
    new_trace_id,
    percentiles_of,
    resolve_store_dir,
)


@pytest.fixture
def store(tmp_path):
    return TelemetryStore(tmp_path / "store")


# ------------------------------------------------------------- resolution


def test_resolve_store_dir_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv(STORE_ENV, raising=False)
    assert resolve_store_dir() is None
    monkeypatch.setenv(STORE_ENV, str(tmp_path / "env"))
    assert resolve_store_dir() == tmp_path / "env"
    # An explicit flag beats the environment.
    assert resolve_store_dir(tmp_path / "flag") == tmp_path / "flag"
    monkeypatch.setenv(STORE_ENV, "   ")
    assert resolve_store_dir() is None
    assert default_store_dir().name == ".repro"


# ----------------------------------------------------------------- append


def test_append_stamps_schema_and_ts(store):
    rec = store.append({"kind": "bench", "bench": "cost", "seconds": 0.5})
    assert rec["schema"] == STORE_SCHEMA
    assert rec["ts"] > 0
    line = store.runs_path.read_text().strip()
    assert '"kind":"bench"' in line


def test_append_rejects_bad_records(store):
    with pytest.raises(StoreError):
        store.append({"bench": "no-kind"})
    with pytest.raises(StoreError):
        store.append({"kind": "weird"})
    with pytest.raises(StoreError):
        store.append({"kind": "bench", "ts": "yesterday"})


# ------------------------------------------------------------------ query


def test_query_filters_are_conjunctive(store):
    store.append({"kind": "bench", "bench": "a", "seconds": 1.0, "ts": 10.0})
    store.append({"kind": "bench", "bench": "b", "seconds": 2.0, "ts": 20.0})
    store.append({"kind": "serve", "op": "map", "seconds": 0.1, "ts": 30.0})
    assert len(store.query().rows) == 3
    assert len(store.query(kind="bench").rows) == 2
    assert len(store.query(kind="bench", bench="a").rows) == 1
    assert len(store.query(op="map").rows) == 1
    assert len(store.query(since=15.0).rows) == 2
    assert len(store.query(since=15.0, until=25.0).rows) == 1
    assert store.query(kind="sweep").rows == ()


def test_query_limit_keeps_latest(store):
    for i in range(5):
        store.append({"kind": "run", "command": "map", "ts": float(i)})
    result = store.query(limit=2)
    assert [r["ts"] for r in result.rows] == [3.0, 4.0]
    with pytest.raises(StoreError):
        store.query(limit=0)


def test_query_counts_corrupt_lines(store):
    store.append({"kind": "run", "command": "map"})
    with store.runs_path.open("a") as fh:
        fh.write('{"torn": \n')  # a crash mid-write
        fh.write('"just a string"\n')  # parses, but not an object
    store.append({"kind": "run", "command": "compare"})
    result = store.query()
    assert len(result.rows) == 2
    assert result.corrupt_lines == 2
    assert result.scanned == 2


def test_query_on_missing_store_is_empty(store):
    result = store.query()
    assert result.rows == () and result.scanned == 0


def test_trace_id_filter(store):
    tid = new_trace_id()
    store.append({"kind": "serve", "op": "map", "trace_id": tid})
    store.append({"kind": "serve", "op": "map", "trace_id": new_trace_id()})
    rows = store.query(trace_id=tid).rows
    assert len(rows) == 1 and rows[0]["trace_id"] == tid


# ------------------------------------------------------------ percentiles


def test_samples_prefers_arrays_and_pools_scalars(store):
    rows = (
        {"samples": [0.1, 0.2, "bad", True]},
        {"seconds": 0.3},
        {"seconds": "oops"},
    )
    result = QueryResult(rows=rows, corrupt_lines=0, scanned=3)
    assert result.samples() == [0.1, 0.2, 0.3]


def test_percentiles_match_sorted_samples():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0]
    pcts = percentiles_of(samples, (0.2, 0.4, 0.5, 1.0))
    # Integral ranks (q*n whole) are exact order statistics...
    assert pcts["p20"] == pytest.approx(1.0)
    assert pcts["p40"] == pytest.approx(2.0)
    assert pcts["p100"] == pytest.approx(5.0)
    # ...fractional ranks interpolate between adjacent samples.
    assert pcts["p50"] == pytest.approx(2.5)
    assert set(pcts) == {"p20", "p40", "p50", "p100"}


def test_percentiles_label_fractional_points_and_handle_empty():
    pcts = percentiles_of([], (0.5, 0.999))
    assert math.isnan(pcts["p50"]) and math.isnan(pcts["p99.9"])


# ----------------------------------------------------------------- traces


def test_trace_save_load_round_trip(store):
    tid = new_trace_id()
    doc = {"version": 2, "trace_id": tid, "spans": []}
    path = store.save_trace(doc)
    assert path == store.trace_path(tid)
    assert store.load_trace_doc(tid) == doc
    assert store.trace_ids() == [tid]


def test_trace_errors(store):
    with pytest.raises(StoreError):
        store.save_trace({"spans": []})  # no trace_id
    with pytest.raises(StoreError):
        store.trace_path("../evil")  # not 32-hex: no path traversal
    with pytest.raises(StoreError):
        store.load_trace_doc(new_trace_id())  # absent
    tid = new_trace_id()
    store.save_trace({"trace_id": tid, "spans": []})
    store.trace_path(tid).write_text("{nope")
    with pytest.raises(StoreError, match="corrupt"):
        store.load_trace_doc(tid)
