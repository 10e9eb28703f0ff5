"""Unit tests for the perf-regression gate (repro.obs.benchgate)."""

import json
import sys
from pathlib import Path

import pytest

from repro.obs.benchgate import (
    BENCH_SCHEMA_VERSION,
    bench_key,
    compare_bench_records,
    find_benchmarks_dir,
    load_bench_records,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def rec(bench, seconds, n=64, m=4, **extra):
    return {"schema": BENCH_SCHEMA_VERSION, "bench": bench, "n": n, "m": m,
            "seconds": seconds, **extra}


def _bench_common():
    """benchmarks/_common.py, deliberately importable without repro."""
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        import _common
    finally:
        sys.path.pop(0)
    return _common


# ------------------------------------------------------------------ loading


def test_load_bench_records_round_trip(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps([rec("core", 0.5), rec("geo", 1.0, n=128)]))
    records = load_bench_records(path)
    assert [bench_key(r) for r in records] == [("core", 64, 4), ("geo", 128, 4)]


def test_load_bench_records_rejects_garbage(tmp_path):
    cases = {
        "not_json.json": "{nope",
        "not_list.json": '{"bench": "x"}',
        "not_object.json": "[1, 2]",
        "missing_field.json": '[{"schema": 2, "bench": "x", "n": 1, "m": 1}]',
        "bad_seconds.json": '[{"schema": 2, "bench": "x", "n": 1, "m": 1, "seconds": true}]',
        "bad_schema.json": '[{"schema": 99, "bench": "x", "n": 1, "m": 1, "seconds": 1}]',
        "versionless.json": '[{"schema": 2, "bench": "x", "n": 1, "m": 1, "seconds": 1},'
                            ' {"bench": "old", "n": 8, "m": 2, "seconds": 0.1}]',
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError):
            load_bench_records(path)
    # A record without a schema version is named by its index.
    with pytest.raises(ValueError, match=r"record \[1\] missing 'schema'"):
        load_bench_records(tmp_path / "versionless.json")


def test_schema_version_matches_benchmarks_common():
    # benchmarks/_common.py must stamp the same version the gate expects.
    assert _bench_common().BENCH_SCHEMA_VERSION == BENCH_SCHEMA_VERSION


def test_update_bench_json_stamps_schema_and_strips_host_fields(tmp_path):
    _common = _bench_common()
    out = tmp_path / "out.json"
    _common.update_bench_json(
        [{"bench": "x", "n": 1, "m": 1, "seconds": 0.5,
          "hostname": "laptop", "platform": "linux"}],
        path=out,
    )
    (written,) = load_bench_records(out)
    assert written["schema"] == BENCH_SCHEMA_VERSION
    assert "hostname" not in written and "platform" not in written


def test_emit_follows_bench_json_redirect(tmp_path, monkeypatch):
    _common = _bench_common()
    results_dir = tmp_path / "results"
    monkeypatch.setattr(_common, "RESULTS_DIR", results_dir)
    monkeypatch.setenv("REPRO_BENCH_JSON", str(tmp_path / "gate" / "current.json"))
    _common.emit("bench_x", "row")
    assert (tmp_path / "gate" / "bench_x.txt").read_text() == "row\n"
    assert not results_dir.exists()


def test_checked_in_baseline_is_schema_v2():
    records = load_bench_records(REPO_ROOT / "BENCH_perf.json")
    assert records, "baseline must not be empty"
    assert all(r.get("schema") == BENCH_SCHEMA_VERSION for r in records)


# --------------------------------------------------------------- comparison


def test_compare_grades_ok_warn_fail():
    baseline = [rec("steady", 1.0), rec("warned", 1.0, n=1), rec("failed", 1.0, n=2)]
    current = [rec("steady", 1.1), rec("warned", 1.5, n=1), rec("failed", 2.5, n=2)]
    report = compare_bench_records(baseline, current)
    by_name = {d.bench: d for d in report.deltas}
    assert by_name["steady"].status == "ok"
    assert by_name["warned"].status == "warn"
    assert by_name["failed"].status == "fail"
    assert [d.bench for d in report.warnings] == ["warned"]
    assert [d.bench for d in report.failures] == ["failed"]
    assert not report.ok  # failures block; warnings alone would not


def test_compare_noise_floor_forgives_tiny_benches():
    baseline = [rec("kernel", 0.00002)]
    current = [rec("kernel", 0.00006)]  # 3x, but microseconds
    report = compare_bench_records(baseline, current)
    (delta,) = report.deltas
    assert delta.status == "ok" and delta.below_floor
    # Above the floor, the same ratio fails.
    strict = compare_bench_records(baseline, current, noise_floor_s=1e-6)
    assert strict.deltas[0].status == "fail"


def test_compare_join_reports_missing_keys():
    baseline = [rec("both", 1.0), rec("gone", 1.0, n=1)]
    current = [rec("both", 1.0), rec("new", 1.0, n=2)]
    report = compare_bench_records(baseline, current)
    assert [d.bench for d in report.deltas] == ["both"]
    assert report.missing_in_current == (("gone", 1, 4),)
    assert report.missing_in_baseline == (("new", 2, 4),)
    assert report.ok  # ungraded keys never fail the gate


def test_compare_validates_thresholds_and_zero_baseline():
    with pytest.raises(ValueError):
        compare_bench_records([], [], warn_ratio=0.5)
    with pytest.raises(ValueError):
        compare_bench_records([], [], warn_ratio=3.0, fail_ratio=2.0)
    report = compare_bench_records([rec("z", 0.0)], [rec("z", 1.0)])
    assert report.deltas[0].ratio == float("inf")
    assert report.deltas[0].status == "fail"


def test_report_render_mentions_every_row():
    baseline = [rec("steady", 1.0), rec("gone", 1.0, n=1)]
    current = [rec("steady", 2.5), rec("new", 1.0, n=2)]
    text = compare_bench_records(baseline, current).render()
    assert "steady" in text and "fail" in text
    assert "not re-run" in text and "new (no baseline)" in text
    assert "compared 1 bench(es)" in text


# ---------------------------------------------------------------- discovery


def test_find_benchmarks_dir_from_repo_and_missing(tmp_path):
    found = find_benchmarks_dir(REPO_ROOT / "src" / "repro")
    assert found == REPO_ROOT / "benchmarks"
    with pytest.raises(FileNotFoundError):
        find_benchmarks_dir(tmp_path)
