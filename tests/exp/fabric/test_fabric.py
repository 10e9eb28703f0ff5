"""End-to-end supervisor behavior with real worker processes.

These tests spawn genuine subprocesses and inject genuine SIGKILLs;
they are the fabric's contract tests.  Timings are kept tight (tiny
demo tasks, short backoffs) so the whole module stays in CI-smoke
territory.
"""

from __future__ import annotations

import json

import pytest

from repro.exp.fabric import (
    ChaosConfig,
    FabricConfig,
    FabricError,
    SweepFabric,
    TaskSpec,
    comparable_rows,
    demo_specs,
    load_shard,
    merge_shards,
    results_equivalent,
    stitch_worker_traces,
    write_sweep,
)

FAST = dict(backoff_base_s=0.01, heartbeat_interval_s=0.1)


def _fabric(tmp_path, **kw):
    merged = {**FAST, **kw}
    return SweepFabric(tmp_path, config=FabricConfig(**merged))


class TestHappyPath:
    def test_all_ok_and_merge(self, tmp_path):
        write_sweep(tmp_path, demo_specs(6, work=2))
        report = _fabric(tmp_path, workers=2).run()
        assert report.ok
        assert report.total == 6
        assert report.worker_restarts == 0
        merged = merge_shards(tmp_path)
        assert merged.complete
        assert [r["key"] for r in merged.rows] == [
            f"demo/{i:04d}" for i in range(6)
        ]

    def test_result_rows_carry_payload(self, tmp_path):
        write_sweep(tmp_path, demo_specs(2, work=2))
        _fabric(tmp_path, workers=1).run()
        merged = merge_shards(tmp_path)
        for row in merged.rows:
            assert row["status"] == "ok"
            assert "digest" in row["result"]

    def test_trace_stitching(self, tmp_path):
        write_sweep(tmp_path, demo_specs(3, work=2))
        _fabric(tmp_path, workers=2).run()
        doc = stitch_worker_traces(tmp_path, out=tmp_path / "trace.json")
        # One causally-parented tree: the sweep span roots the document
        # and every task span hangs under it.
        assert len(doc["spans"]) == 1
        root = doc["spans"][0]
        assert root["name"] == "fabric.sweep"
        tasks = [c for c in root["children"] if c["name"] == "fabric.task"]
        assert len(tasks) == 3
        assert all(t["parent_span_id"] == root["span_id"] for t in tasks)
        assert doc["trace_id"]  # the sweep's 32-hex identity survived
        assert doc["skipped_sources"] == []
        assert json.loads((tmp_path / "trace.json").read_text())["spans"]

    def test_unknown_keys_rejected(self, tmp_path):
        write_sweep(tmp_path, demo_specs(2, work=2))
        with pytest.raises(FabricError, match="not in manifest"):
            _fabric(tmp_path).run(keys=["nope"])


class TestCrashIsolation:
    def test_worker_death_fails_one_task_not_sweep(self, tmp_path):
        specs = [
            TaskSpec(key="die", kind="demo",
                     params={"die_signal": 9, "index": 0})
        ] + demo_specs(4, work=2)
        write_sweep(tmp_path, specs)
        report = _fabric(
            tmp_path, workers=2, max_retries=4, quarantine_after=2
        ).run()
        assert report.statuses["die"] == "quarantined"
        assert all(
            v == "ok" for k, v in report.statuses.items() if k != "die"
        )
        assert report.worker_restarts >= 2

    def test_quarantine_shard_is_structured(self, tmp_path):
        write_sweep(
            tmp_path,
            [TaskSpec(key="p", kind="demo", params={"die_signal": 9})],
        )
        _fabric(
            tmp_path, workers=1, max_retries=6, quarantine_after=3
        ).run()
        shard = load_shard(tmp_path, "p")
        assert shard["status"] == "quarantined"
        assert "poison" in shard["error"]
        assert shard["worker"] == "supervisor"

    def test_in_worker_exception_keeps_worker(self, tmp_path):
        specs = [
            TaskSpec(key="boom", kind="demo", params={"explode": "x"})
        ] + demo_specs(2, work=2)
        write_sweep(tmp_path, specs)
        report = _fabric(tmp_path, workers=1, max_retries=1).run()
        assert report.statuses["boom"] == "failed"
        assert report.worker_restarts == 0
        shard = load_shard(tmp_path, "boom")
        assert "RuntimeError" in shard["error"]
        assert shard["attempts"] == 2  # initial + one retry


class TestDeadlines:
    def test_hung_task_times_out(self, tmp_path):
        write_sweep(
            tmp_path,
            [TaskSpec(key="slow", kind="demo", params={"sleep_s": 60.0})],
        )
        report = _fabric(
            tmp_path, workers=1, timeout_s=0.4, max_retries=0
        ).run()
        assert report.statuses["slow"] == "timeout"
        shard = load_shard(tmp_path, "slow")
        assert shard["status"] == "timeout"
        assert "budget" in shard["error"]

    def test_degradation_after_timeouts(self, tmp_path):
        write_sweep(
            tmp_path,
            [TaskSpec(
                key="d", kind="demo",
                params={"sleep_s": 60.0, "work": 2},
                degraded_params={"sleep_s": 0.0},
            )],
        )
        report = _fabric(
            tmp_path, workers=1, timeout_s=0.4, max_retries=4,
            degrade_after_timeouts=2,
        ).run()
        assert report.statuses["d"] == "ok"
        assert report.degraded == 1
        shard = load_shard(tmp_path, "d")
        assert shard["degraded"] is True


class TestResume:
    def test_partial_then_resume(self, tmp_path):
        specs = demo_specs(6, work=2)
        write_sweep(tmp_path, specs)
        keys = [s.key for s in specs]
        r1 = _fabric(tmp_path, workers=2).run(keys=keys[:3])
        assert r1.ok and r1.total == 3
        r2 = _fabric(tmp_path, workers=2).run(resume=True)
        assert r2.ok and r2.total == 6
        assert r2.adopted == 3
        assert merge_shards(tmp_path).complete

    def test_fresh_run_refuses_existing_shards(self, tmp_path):
        specs = demo_specs(2, work=2)
        write_sweep(tmp_path, specs)
        _fabric(tmp_path, workers=1).run()
        with pytest.raises(FabricError, match="resume"):
            _fabric(tmp_path, workers=1).run()

    def test_resume_retries_failed_shards(self, tmp_path):
        write_sweep(
            tmp_path, [TaskSpec(key="t", kind="demo", params={"work": 2})]
        )
        # Simulate a prior run that failed the task.
        from repro.exp.fabric import write_shard

        write_shard(
            tmp_path, "t", status="failed", result=None, error="old",
            attempts=3, elapsed_s=0.1, worker="w0-0",
        )
        report = _fabric(tmp_path, workers=1).run(resume=True)
        assert report.statuses["t"] == "ok"
        assert report.adopted == 0


class TestChaosEndToEnd:
    def test_chaotic_sweep_converges_payload_identical(self, tmp_path):
        specs = demo_specs(24, work=2)
        clean_dir = tmp_path / "clean"
        chaos_dir = tmp_path / "chaos"
        write_sweep(clean_dir, specs)
        write_sweep(chaos_dir, specs)
        clean = _fabric(clean_dir, workers=3).run()
        assert clean.ok
        chaos = ChaosConfig(
            seed=7, kill=0.2, kill_mid_write=0.1, kill_after_write=0.1,
            delay=0.1, delay_s=0.01,
        )
        chaotic = _fabric(
            chaos_dir, workers=3, max_retries=3, timeout_s=10.0,
            chaos=chaos,
        ).run()
        assert chaotic.ok, chaotic.statuses
        a = merge_shards(clean_dir)
        b = merge_shards(chaos_dir)
        assert results_equivalent(a.rows, b.rows)
        # The chaos actually fired: some kills forced restarts.
        assert chaotic.worker_restarts > 0

    def test_chaotic_sweep_stitches_one_causal_trace(self, tmp_path):
        """Even under kill chaos the stitched trace is one causal tree.

        Workers SIGKILLed mid-task never write their trace file, so
        some incarnations' spans are simply absent — but everything
        that *was* recorded must still stitch into a single root with
        resolved parent ids and monotone sibling intervals, and any
        unreadable file must be reported in ``skipped_sources``.
        """
        from repro.obs import validate_causal_trace, validate_trace

        write_sweep(tmp_path, demo_specs(12, work=2))
        chaos = ChaosConfig(
            seed=13, kill=0.2, kill_mid_write=0.1, delay=0.1, delay_s=0.01
        )
        report = _fabric(
            tmp_path, workers=3, max_retries=3, timeout_s=10.0, chaos=chaos
        ).run()
        assert report.ok, report.statuses
        assert report.worker_restarts > 0  # the chaos actually fired

        doc = stitch_worker_traces(tmp_path)
        spans = validate_trace(doc)  # schema v2, strict
        assert len(spans) == 1
        root = spans[0]
        assert root.name == "fabric.sweep"
        # Single-rooted AND causally parented with monotone intervals.
        validate_causal_trace(spans, epsilon=0.05)
        tasks = [c for c in root.children if c.name == "fabric.task"]
        assert tasks, "no surviving worker recorded any task span"
        assert all(t.parent_span_id == root.span_id for t in tasks)
        # Losses are accounted for, never silent.
        assert isinstance(doc["skipped_sources"], list)
        assert set(doc["sources"]).isdisjoint(doc["skipped_sources"])

    def test_comparable_rows_strip_envelope(self, tmp_path):
        rows = [
            {
                "key": "k", "status": "ok", "degraded": False,
                "attempts": 3, "elapsed_s": 1.5, "worker": "w0-0",
                "result": {"v": 1, "timing": {"t": 0.2}},
            }
        ]
        clean = comparable_rows(rows)
        assert clean == [
            {
                "key": "k", "status": "ok", "degraded": False,
                "result": {"v": 1},
            }
        ]

    def test_kill_after_write_is_adopted(self, tmp_path):
        # 100% kill-after-write with zero retries: the only way the
        # sweep can succeed is by adopting the orphaned shard.
        write_sweep(
            tmp_path, [TaskSpec(key="t", kind="demo", params={"work": 2})]
        )
        report = _fabric(
            tmp_path, workers=1, max_retries=0,
            chaos=ChaosConfig(seed=1, kill_after_write=1.0),
        ).run()
        assert report.statuses["t"] == "ok"
        assert report.adopted == 1


class TestReport:
    def test_summary_mentions_counts(self, tmp_path):
        write_sweep(tmp_path, demo_specs(2, work=2))
        report = _fabric(tmp_path, workers=1).run()
        assert "ok=2" in report.summary()


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"workers": 0},
            {"timeout_s": 0},
            {"max_retries": -1},
            {"quarantine_after": 0},
            {"degrade_after_timeouts": 0},
            {"heartbeat_timeout_s": 0.1, "heartbeat_interval_s": 0.2},
            {"tick_s": 0},
        ],
    )
    def test_bad_config_rejected(self, kw):
        with pytest.raises(ValueError):
            FabricConfig(**kw)
