"""Sweep layout: the manifest, shards, and atomic IO."""

from __future__ import annotations

import json
import os
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._validation import InputError

from repro.exp.fabric import (
    FabricError,
    SweepLayout,
    TaskSpec,
    load_manifest,
    load_shard,
    merge_shards,
    write_shard,
    write_sweep,
)
from repro.exp.fabric.io import atomic_write_json, read_json, sweep_stale_tmp
from repro.exp.fabric.spec import MANIFEST_FORMAT, SHARD_FORMAT, SpecError


def _write_manifest(root, tasks):
    """Write a hand-edited manifest, bypassing write_sweep's checks."""
    atomic_write_json(
        SweepLayout(root).manifest_path,
        {"format": MANIFEST_FORMAT, "tasks": tasks},
    )


class TestTaskSpec:
    def test_round_trip(self):
        spec = TaskSpec(key="a/b", kind="demo", params={"x": 1})
        assert spec.to_dict() == {"key": "a/b", "kind": "demo", "params": {"x": 1}}
        again = TaskSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec

    def test_rejects_empty_key_and_kind(self):
        with pytest.raises(ValueError):
            TaskSpec(key="", kind="demo")
        with pytest.raises(ValueError):
            TaskSpec(key="k", kind="")


class TestSweepLayout:
    def test_keys_with_slashes_stay_flat(self, tmp_path):
        layout = SweepLayout(tmp_path)
        p = layout.shard_path("fig7/LU/n64/greedy/s0")
        assert p.parent == layout.shards_dir  # no nested directories
        assert "/" not in p.name.replace("%2F", "")

    def test_distinct_keys_distinct_files(self, tmp_path):
        layout = SweepLayout(tmp_path)
        keys = ["a/b", "a%2Fb", "a b", "a+b", "a.b", "a"]
        paths = {layout.shard_path(k) for k in keys}
        assert len(paths) == len(keys)


class TestWriteSweep:
    def test_round_trip(self, tmp_path):
        specs = [
            TaskSpec(key=f"t/{i}", kind="demo", params={"i": i})
            for i in range(4)
        ]
        write_sweep(tmp_path, specs)
        assert load_manifest(tmp_path) == specs
        # The manifest is the sweep's only input file.
        assert sorted(os.listdir(tmp_path)) == ["manifest.json"]

    def test_duplicate_keys_rejected(self, tmp_path):
        specs = [TaskSpec(key="x", kind="demo")] * 2
        with pytest.raises(FabricError, match="duplicate"):
            write_sweep(tmp_path, specs)

    def test_empty_sweep_rejected(self, tmp_path):
        with pytest.raises(FabricError, match="at least one"):
            write_sweep(tmp_path, [])

    def test_existing_manifest_needs_overwrite(self, tmp_path):
        specs = [TaskSpec(key="x", kind="demo")]
        write_sweep(tmp_path, specs)
        with pytest.raises(FabricError, match="already exists"):
            write_sweep(tmp_path, specs)
        write_sweep(tmp_path, specs, overwrite=True)

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FabricError, match="initialize"):
            load_manifest(tmp_path)

    @pytest.mark.parametrize(
        "body, field",
        [
            ({"kind": "demo"}, "'key'"),
            ({"key": "good", "kind": "demo", "params": [1, 2]}, "'params'"),
            ([1, 2, 3], "JSON object"),
            ({"key": "", "kind": "demo"}, "key must be non-empty"),
        ],
        ids=["missing-key", "list-params", "non-dict", "empty-key"],
    )
    def test_malformed_spec_body_is_a_fabric_error(self, tmp_path, body, field):
        _write_manifest(tmp_path, [{"key": "good", "kind": "demo"}, body])
        with pytest.raises(FabricError, match=field) as info:
            load_manifest(tmp_path)
        assert "tasks[1]" in str(info.value)


class TestManifest:
    def test_duplicate_keys_rejected_when_loaded(self, tmp_path):
        entry = TaskSpec(key="twice", kind="demo").to_dict()
        _write_manifest(tmp_path, [entry, entry])
        with pytest.raises(FabricError, match="duplicate.*'twice'"):
            load_manifest(tmp_path)

    def test_v1_sweep_dir_is_refused_by_name(self, tmp_path, capsys):
        from repro.cli import main

        layout = SweepLayout(tmp_path)
        atomic_write_json(
            layout.manifest_path,
            {"format": "repro-fabric-manifest-v1", "keys": ["demo/0000"]},
        )
        with pytest.raises(FabricError, match="repro-fabric-manifest-v1"):
            load_manifest(tmp_path)
        rc = main(["sweep", "--sweep-dir", str(tmp_path), "--resume"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "repro-fabric-manifest-v1" in err
        assert not layout.shards_dir.exists()

    def test_empty_task_list_rejected(self, tmp_path):
        _write_manifest(tmp_path, [])
        with pytest.raises(FabricError, match="'tasks'"):
            load_manifest(tmp_path)


class TestShards:
    def test_round_trip(self, tmp_path):
        write_shard(
            tmp_path, "k", status="ok", result={"v": 1}, error=None,
            attempts=2, elapsed_s=0.5, worker="w0-0",
        )
        shard = load_shard(tmp_path, "k")
        assert shard["status"] == "ok"
        assert shard["result"] == {"v": 1}
        assert shard["attempts"] == 2
        assert shard["format"] == "repro-fabric-shard-v2"
        assert "degraded" not in shard

    def test_invalid_status_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="status"):
            write_shard(
                tmp_path, "k", status="meh", result=None, error=None,
                attempts=1, elapsed_s=0.0, worker="w",
            )

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(format="nope"),
            lambda d: d.update(key="other"),
            lambda d: d.update(status="weird"),
        ],
    )
    def test_tampered_shard_reads_as_absent(self, tmp_path, mutate):
        path = write_shard(
            tmp_path, "k", status="ok", result=None, error=None,
            attempts=1, elapsed_s=0.0, worker="w",
        )
        data = json.loads(path.read_text())
        mutate(data)
        path.write_text(json.dumps(data))
        assert load_shard(tmp_path, "k") is None

    def test_truncated_shard_reads_as_absent(self, tmp_path):
        path = write_shard(
            tmp_path, "k", status="ok", result=None, error=None,
            attempts=1, elapsed_s=0.0, worker="w",
        )
        path.write_text(path.read_text()[:10])
        assert load_shard(tmp_path, "k") is None


class TestAtomicIO:
    def test_write_and_read(self, tmp_path):
        p = tmp_path / "f.json"
        atomic_write_json(p, {"a": 1})
        assert read_json(p) == {"a": 1}

    def test_overwrite_is_atomic_replacement(self, tmp_path):
        p = tmp_path / "f.json"
        atomic_write_json(p, {"v": 1})
        atomic_write_json(p, {"v": 2})
        assert read_json(p) == {"v": 2}

    def test_before_replace_runs_between_sync_and_rename(self, tmp_path):
        p = tmp_path / "f.json"
        seen = {}

        def probe():
            # At hook time the temp file exists but the target does not.
            seen["target_exists"] = p.exists()
            seen["tmp_files"] = [
                f for f in os.listdir(tmp_path) if f.endswith(".tmp")
            ]

        atomic_write_json(p, {"v": 1}, before_replace=probe)
        assert seen["target_exists"] is False
        assert len(seen["tmp_files"]) == 1
        assert read_json(p) == {"v": 1}

    def test_read_json_tolerates_missing_and_corrupt(self, tmp_path):
        assert read_json(tmp_path / "nope.json") is None
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert read_json(p) is None

    def test_sweep_stale_tmp(self, tmp_path):
        (tmp_path / "orphan.json.tmp").write_text("x")
        (tmp_path / "keep.json").write_text("{}")
        removed = sweep_stale_tmp(tmp_path)
        assert removed == 1
        assert not (tmp_path / "orphan.json.tmp").exists()
        assert (tmp_path / "keep.json").exists()


#: File bodies that once escaped the readers as a bare UnicodeDecodeError,
#: RecursionError or int-conversion ValueError.
_CORRUPT_BYTES = {
    "non-utf8": b"\xff\xfe",
    "non-utf8-object": b'{"format": "\xff"}',
    "deep-nesting": b"[" * 100_000,
    "huge-int": b"1" * 5000,
}


class TestCorruptBytes:
    @pytest.mark.parametrize("raw", _CORRUPT_BYTES.values(), ids=_CORRUPT_BYTES)
    def test_corrupt_shard_is_no_result(self, tmp_path, raw):
        layout = write_sweep(tmp_path, [TaskSpec(key="k", kind="demo")])
        layout.shards_dir.mkdir()
        layout.shard_path("k").write_bytes(raw)
        assert load_shard(tmp_path, "k") is None
        merged = merge_shards(tmp_path, strict=False)
        assert merged.corrupt == ["k"] and merged.rows == []
        with pytest.raises(FabricError, match="1 unreadable"):
            merge_shards(tmp_path)

    @pytest.mark.parametrize("raw", _CORRUPT_BYTES.values(), ids=_CORRUPT_BYTES)
    def test_corrupt_manifest_is_a_spec_error(self, tmp_path, raw):
        SweepLayout(tmp_path).manifest_path.write_bytes(raw)
        with pytest.raises(SpecError, match="initialize the sweep"):
            load_manifest(tmp_path)

    def test_key_without_a_utf8_form_is_a_spec_error(self, tmp_path):
        _write_manifest(tmp_path, [{"key": "bad\ud800", "kind": "demo"}])
        with pytest.raises(SpecError, match="tasks\\[0\\].*Unicode"):
            load_manifest(tmp_path)

    def test_many_duplicate_keys_are_named_quickly(self, tmp_path):
        entry = {"key": "same", "kind": "demo"}
        _write_manifest(tmp_path, [entry] * 50_000)
        start = time.monotonic()
        with pytest.raises(SpecError, match="'same'"):
            load_manifest(tmp_path)
        assert time.monotonic() - start < 5.0


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=10), inner, max_size=4),
    max_leaves=20,
)
_fields = st.sampled_from(["key", "kind", "params", "tasks", "format", "status"])


def _with_fields(values, fmt):
    """JSON objects that get past a reader's first checks: the right
    format marker plus fuzzed values for the fields it reads."""
    return st.dictionaries(_fields, values, max_size=6).map(
        lambda d: {"format": fmt, **d}
    )


#: Lone surrogates survive json.loads but have no UTF-8 form.
_keys = st.text(max_size=8) | st.sampled_from(["\ud800", "a/\udfff"])
_entries = st.one_of(
    _json_values,
    st.fixed_dictionaries(
        {"key": _keys, "kind": st.text(max_size=8)},
        optional={"params": _json_values, "retired_field": _json_values},
    ),
)
_manifests = st.one_of(
    st.binary(max_size=200),
    _json_values.map(lambda v: json.dumps(v).encode()),
    _with_fields(_json_values, MANIFEST_FORMAT).map(
        lambda d: json.dumps(d).encode()
    ),
    st.lists(_entries, max_size=6).map(
        lambda tasks: json.dumps(
            {"format": MANIFEST_FORMAT, "tasks": tasks}
        ).encode()
    ),
)
_shards = st.one_of(
    st.binary(max_size=200),
    _json_values.map(lambda v: json.dumps(v).encode()),
    _with_fields(_json_values, SHARD_FORMAT).map(
        lambda d: json.dumps({"key": "k", **d}).encode()
    ),
)


class TestFuzzedFiles:
    """Whatever bytes sit in a sweep's files, the readers answer with
    specs or an InputError (manifest) and a dict or None (shard)."""

    @settings(max_examples=300, deadline=None)
    @given(raw=_manifests)
    def test_manifest_gives_specs_or_an_input_error(self, raw):
        with tempfile.TemporaryDirectory() as root:
            SweepLayout(root).manifest_path.write_bytes(raw)
            start = time.monotonic()
            try:
                specs = load_manifest(root)
            except InputError:
                pass
            else:
                assert specs and all(isinstance(s, TaskSpec) for s in specs)
                # Every loaded key names a shard file.
                assert all(load_shard(root, s.key) is None for s in specs)
            assert time.monotonic() - start < 5.0

    @settings(max_examples=300, deadline=None)
    @given(raw=_shards)
    def test_shard_gives_a_dict_or_none(self, raw):
        with tempfile.TemporaryDirectory() as root:
            path = SweepLayout(root).shard_path("k")
            path.parent.mkdir()
            path.write_bytes(raw)
            start = time.monotonic()
            shard = load_shard(root, "k")
            assert shard is None or isinstance(shard, dict)
            assert time.monotonic() - start < 5.0
