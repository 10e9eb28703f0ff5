"""End-to-end supervisor behavior with real worker processes.

These tests fork genuine worker processes and inject genuine SIGKILLs;
they are the fabric's contract tests.  Timings are kept tight (tiny
demo tasks, short backoffs) so the whole module stays in CI-smoke
territory.  The task kinds registered below exist only in this test
process; workers run them because they are forked from it.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from collections import Counter

import pytest

from repro.exp.fabric import (
    ChaosConfig,
    FabricConfig,
    FabricError,
    SweepFabric,
    SweepLayout,
    TaskSpec,
    atomic_write_json,
    comparable_rows,
    demo_specs,
    load_manifest,
    load_shard,
    merge_shards,
    read_json,
    register_task,
    results_equivalent,
    write_sweep,
)
from repro.exp.fabric.io import PathLock
from repro.exp.fabric.tasks import demo_task

FAST = dict(backoff_base_s=0.01, heartbeat_interval_s=0.1)


@register_task("test-introspect")
def _introspect_task(params):
    """The worker's pid and how many pipe and socket fds it holds."""
    pipes = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue  # the listing's own fd, closed by now
        pipes += target.startswith(("pipe:", "socket:"))
    return {"pid": os.getpid(), "pipes": pipes, "index": params["index"]}


@register_task("test-noisy")
def _noisy_task(params):
    os.write(1, b"fd1-from-task\n")
    print("print-from-task")
    return {}


@register_task("test-system-exit")
def _system_exit_task(params):
    raise SystemExit(3)


@register_task("test-keyboard-interrupt")
def _keyboard_interrupt_task(params):
    raise KeyboardInterrupt


def _introspect_specs(n):
    return [
        TaskSpec(key=f"i/{i:03d}", kind="test-introspect", params={"index": i})
        for i in range(n)
    ]


def _fabric(tmp_path, **kw):
    merged = {**FAST, **kw}
    return SweepFabric(tmp_path, config=FabricConfig(**merged))


def _booted_workers(supervisor, *, min_age_s):
    """How many children of ``supervisor`` run a second (heartbeat)
    thread and started at least ``min_age_s`` ago, read from /proc."""
    with open("/proc/uptime") as fh:
        uptime = float(fh.read().split()[0])
    tick = os.sysconf("SC_CLK_TCK")
    booted = 0
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[1] is the ppid, [17] the thread count, [19] the start
        # time in clock ticks since boot.
        if int(fields[1]) != supervisor or int(fields[17]) < 2:
            continue
        booted += uptime - int(fields[19]) / tick >= min_age_s
    return booted


def _sweep_trace(root):
    """The root spans of the trace a sweep wrote to its directory."""
    from repro.obs import validate_trace

    return validate_trace(read_json(SweepLayout(root).trace_path))


class TestHappyPath:
    def test_all_ok_and_merge(self, tmp_path):
        from repro.obs import recording

        write_sweep(tmp_path, demo_specs(6, work=2))
        with recording():
            report = _fabric(tmp_path, workers=2).run()
        assert report.ok
        assert report.total == 6
        assert report.worker_restarts == 0
        merged = merge_shards(tmp_path)
        assert merged.complete
        assert [r["key"] for r in merged.rows] == [
            f"demo/{i:04d}" for i in range(6)
        ]
        # Specs live in the manifest and heartbeats in memory: the
        # sweep dir keeps only its input, outputs, logs and trace.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "logs", "manifest.json", "result.json", "shards", "trace.json",
        ]

    def test_result_rows_carry_payload(self, tmp_path):
        write_sweep(tmp_path, demo_specs(2, work=2))
        _fabric(tmp_path, workers=1).run()
        merged = merge_shards(tmp_path)
        for row in merged.rows:
            assert row["status"] == "ok"
            assert "digest" in row["result"]

    def test_trace_stitching(self, tmp_path):
        from repro.obs import recording

        write_sweep(tmp_path, demo_specs(3, work=2))
        with recording():
            _fabric(tmp_path, workers=2).run()
        doc = json.loads(SweepLayout(tmp_path).trace_path.read_text())
        # One causally-parented tree: the sweep span roots the document
        # and every task span, acked by its worker, hangs under it.
        assert len(doc["spans"]) == 1
        root = doc["spans"][0]
        assert root["name"] == "fabric.sweep"
        tasks = [c for c in root["children"] if c["name"] == "fabric.task"]
        assert len(tasks) == 3
        assert all(t["parent_span_id"] == root["span_id"] for t in tasks)
        assert doc["trace_id"]  # the sweep's 32-hex identity survived
        assert root["attrs"]["dropped_traces"] == 0
        # The trace is the sweep directory's only trace file.
        assert sorted(p.name for p in tmp_path.rglob("*trace*")) == ["trace.json"]

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

    def test_unknown_kind_fails_its_task_not_the_sweep(self, tmp_path):
        specs = [TaskSpec(key="nope", kind="no-such-kind")] + demo_specs(1, work=2)
        write_sweep(tmp_path, specs)
        report = _fabric(tmp_path, workers=1, max_retries=0).run()
        assert report.statuses["nope"] == "failed"
        assert report.statuses["demo/0000"] == "ok"
        shard = load_shard(tmp_path, "nope")
        assert shard["error"].startswith("InputError: unknown task kind 'no-such-kind'")


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

    def test_timed_out_cell_resumes_as_itself(self, tmp_path):
        # A cell that keeps timing out ends as a timeout shard once its
        # retries are spent; a resume with a longer deadline re-runs it
        # with the same params, so its result is the task its key names.
        write_sweep(
            tmp_path,
            [TaskSpec(key="d", kind="demo", params={"sleep_s": 1.0, "work": 2})],
        )
        report = _fabric(
            tmp_path, workers=1, timeout_s=0.3, max_retries=1
        ).run()
        assert report.statuses["d"] == "timeout"
        assert load_shard(tmp_path, "d")["attempts"] == 2
        report = _fabric(tmp_path, workers=1, timeout_s=30.0).run(resume=True)
        assert report.statuses["d"] == "ok"
        assert report.adopted == 0
        assert load_shard(tmp_path, "d")["result"] == demo_task({"work": 2})


class TestHeartbeatLiveness:
    def test_frozen_workers_are_replaced(self, tmp_path):
        """SIGSTOPped workers stop beating and the heartbeat check
        reclaims them long before the backstop deadline would."""
        from repro.obs import recording

        write_sweep(tmp_path, demo_specs(8, work=2))
        with recording() as rec:
            report = _fabric(
                tmp_path, workers=2, max_retries=3, timeout_s=60.0,
                heartbeat_timeout_s=1.0, chaos=ChaosConfig(seed=11, freeze=0.3),
            ).run()
        assert report.ok, report.statuses
        assert report.worker_restarts >= 1
        (sweep,) = rec.roots
        errors = [
            e.attrs["error"] for e in sweep.events
            if e.name == "fabric.attempt_failed"
        ]
        assert errors and all("unresponsive" in e for e in errors), errors


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

    def test_pre_v2_shard_is_rerun_on_resume(self, tmp_path):
        # A sweep dir from before shards dropped their "degraded" key:
        # its manifest entries carry a field this version does not read
        # and one of its shards is repro-fabric-shard-v1.  Resume adopts
        # the v2 shards, re-runs the v1 one, and merges rows of one shape.
        specs = demo_specs(3, work=2)
        layout = SweepLayout(tmp_path)
        atomic_write_json(layout.manifest_path, {
            "format": "repro-fabric-manifest-v2",
            "tasks": [
                {**s.to_dict(), "retired_field": {"work": 1}} for s in specs
            ],
        })
        assert load_manifest(tmp_path) == specs
        _fabric(tmp_path, workers=1).run()
        old_key = specs[1].key
        old = load_shard(tmp_path, old_key)
        atomic_write_json(layout.shard_path(old_key), {
            **old, "format": "repro-fabric-shard-v1", "degraded": False,
        })
        assert load_shard(tmp_path, old_key) is None
        report = _fabric(tmp_path, workers=1).run(resume=True)
        assert report.ok and report.adopted == 2
        merged = merge_shards(tmp_path)
        assert merged.complete and len(merged.rows) == 3
        assert not any("degraded" in row for row in merged.rows)
        assert {row["format"] for row in merged.rows} == {"repro-fabric-shard-v2"}
        fresh = tmp_path / "fresh"
        write_sweep(fresh, specs)
        _fabric(fresh, workers=1).run()
        assert results_equivalent(merged.rows, merge_shards(fresh).rows)


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
        """Even under kill chaos the sweep trace is one causal tree.

        Workers SIGKILLed mid-task never ack, so those attempts' spans
        are simply absent — but every acked attempt's spans must graft
        into a single root with resolved parent ids and monotone
        sibling intervals, and a worker document the supervisor could
        not graft must be counted on the sweep span.
        """
        from repro.obs import recording, validate_causal_trace

        write_sweep(tmp_path, demo_specs(12, work=2))
        chaos = ChaosConfig(
            seed=13, kill=0.2, kill_mid_write=0.1, delay=0.1, delay_s=0.01
        )
        with recording():
            report = _fabric(
                tmp_path, workers=3, max_retries=3, timeout_s=10.0, chaos=chaos
            ).run()
        assert report.ok, report.statuses
        assert report.worker_restarts > 0  # the chaos actually fired

        spans = _sweep_trace(tmp_path)  # schema v2, strict
        assert len(spans) == 1
        root = spans[0]
        assert root.name == "fabric.sweep"
        # Single-rooted AND causally parented with monotone intervals.
        validate_causal_trace(spans, epsilon=0.05)
        tasks = [c for c in root.children if c.name == "fabric.task"]
        assert tasks, "no surviving worker recorded any task span"
        assert all(t.parent_span_id == root.span_id for t in tasks)
        assert root.attrs["dropped_traces"] == 0

    def test_comparable_rows_strip_envelope(self, tmp_path):
        rows = [
            {
                "key": "k", "status": "ok",
                "attempts": 3, "elapsed_s": 1.5, "worker": "w0-0",
                "result": {"v": 1, "timing": {"t": 0.2}},
            }
        ]
        clean = comparable_rows(rows)
        assert clean == [
            {"key": "k", "status": "ok", "result": {"v": 1}}
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
            {"backoff_base_s": -1.0},
            {"heartbeat_timeout_s": 0.1, "heartbeat_interval_s": 0.2},
        ],
    )
    def test_bad_config_rejected(self, kw):
        with pytest.raises(ValueError):
            FabricConfig(**kw)


class TestForkedWorkers:
    def test_kind_registered_in_this_process_runs_in_a_worker(self, tmp_path):
        write_sweep(tmp_path, _introspect_specs(2))
        report = _fabric(tmp_path, workers=1).run()
        assert report.ok, report.statuses
        for row in merge_shards(tmp_path).rows:
            assert row["result"]["pid"] != os.getpid()

    @pytest.mark.parametrize(
        "kind", ["test-system-exit", "test-keyboard-interrupt"]
    )
    def test_base_exception_in_task_stays_in_the_worker(
        self, tmp_path, monkeypatch, kind
    ):
        # Every call records the calling pid in a file, so a forked
        # worker that unwound into the supervisor's frames would show.
        calls = tmp_path / "calls.txt"

        def recording(fn, what):
            def wrapper(*args, **kwargs):
                with open(calls, "a") as fh:
                    fh.write(f"{what} {os.getpid()}\n")
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            PathLock, "release", recording(PathLock.release, "release")
        )
        monkeypatch.setattr(
            SweepFabric,
            "_write_sweep_trace",
            recording(SweepFabric._write_sweep_trace, "trace"),
        )
        sweep = tmp_path / "sweep"
        write_sweep(
            sweep,
            [TaskSpec(key="bad", kind=kind, params={})] + demo_specs(3, work=2),
        )
        report = _fabric(
            sweep, workers=2, max_retries=2, quarantine_after=2
        ).run()
        assert report.statuses["bad"] in ("failed", "quarantined")
        assert all(
            v == "ok" for k, v in report.statuses.items() if k != "bad"
        )
        assert calls.read_text().splitlines() == [
            f"trace {os.getpid()}",
            f"release {os.getpid()}",
        ]
        assert not SweepLayout(sweep).lock_path.exists()

    def test_unflushed_stdout_is_written_once(self, tmp_path, capfd):
        write_sweep(tmp_path, demo_specs(4, work=2))
        buffered = open(os.dup(1), "w")  # block-buffered: not a tty
        real = sys.stdout
        sys.stdout = buffered
        try:
            buffered.write("unflushed-before-fork\n")
            report = _fabric(tmp_path, workers=2).run()
        finally:
            sys.stdout = real
            buffered.close()
        assert report.ok
        assert capfd.readouterr().out.count("unflushed-before-fork") == 1

    def test_task_output_goes_to_the_worker_log(self, tmp_path, capfd):
        write_sweep(tmp_path, [TaskSpec(key="n", kind="test-noisy", params={})])
        assert _fabric(tmp_path, workers=1).run().ok
        out, err = capfd.readouterr()
        assert "from-task" not in out + err
        log = (SweepLayout(tmp_path).logs_dir / "w0-0.log").read_text()
        assert "fd1-from-task" in log and "print-from-task" in log

    def test_worker_fds_do_not_grow_with_earlier_forks(self, tmp_path):
        write_sweep(tmp_path, _introspect_specs(18))
        report = _fabric(
            tmp_path, workers=3, max_retries=3,
            chaos=ChaosConfig(seed=3, kill=0.3),
        ).run()
        assert report.ok, report.statuses
        assert report.worker_restarts > 0  # respawns forked mid-sweep
        rows = merge_shards(tmp_path).rows
        assert len({r["result"]["pid"] for r in rows}) > 3
        assert len({r["result"]["pipes"] for r in rows}) == 1

    def test_workers_are_reaped_when_run_returns(self, tmp_path):
        write_sweep(tmp_path, _introspect_specs(6))
        report = _fabric(
            tmp_path, workers=2, max_retries=3,
            chaos=ChaosConfig(seed=5, kill=0.3),
        ).run()
        assert report.ok, report.statuses
        assert multiprocessing.active_children() == []
        for row in merge_shards(tmp_path).rows:
            pid = row["result"]["pid"]
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except FileNotFoundError:
                continue  # reaped
            # The pid may have been reused, but never by our zombie.
            assert not (fields[0] == "Z" and int(fields[1]) == os.getpid())

    @pytest.mark.parametrize(
        "chaos, started",
        [
            # Killed between tasks: two shards are already written.
            (
                "seed=1,delay=1.0,delay-s=0.2",
                lambda sweep, pid: len(list(sweep.glob("shards/*.json"))) >= 2,
            ),
            # Killed while every worker is stuck in a task that never
            # returns: a worker takes its first task within a supervisor
            # tick of booting, so two that have run their heartbeat
            # thread for three intervals are both inside that task.
            (
                "seed=1,hang=1.0",
                lambda sweep, pid: _booted_workers(pid, min_age_s=0.6) >= 2,
            ),
        ],
        ids=["delay", "hang"],
    )
    def test_workers_exit_when_the_supervisor_is_killed(
        self, tmp_path, chaos, started
    ):
        """Forked workers share the supervisor's command line; none may
        outlive it, and --resume finishes the sweep from its shards."""
        import signal
        import subprocess
        import time

        killed = tmp_path / "killed"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep", "--sweep-dir", str(killed),
             "--grid", "demo", "--tasks", "16", "--workers", "2",
             "--chaos", chaos],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and proc.poll() is None:
            if started(killed, proc.pid):
                break
            time.sleep(0.05)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

        def survivors():
            found = []
            for pid in filter(str.isdigit, os.listdir("/proc")):
                try:
                    with open(f"/proc/{pid}/cmdline", "rb") as fh:
                        if str(killed).encode() in fh.read():
                            found.append(pid)
                except OSError:
                    pass
            return found

        deadline = time.monotonic() + 5
        while survivors() and time.monotonic() < deadline:
            time.sleep(0.05)
        left = survivors()
        for pid in left:
            os.kill(int(pid), signal.SIGKILL)
        assert left == []

        clean = tmp_path / "clean"
        write_sweep(clean, demo_specs(16))
        assert _fabric(clean, workers=2).run().ok
        assert _fabric(killed, workers=2).run(resume=True).ok
        assert results_equivalent(
            merge_shards(killed).rows, merge_shards(clean).rows
        )


class TestPerTaskTraces:
    def test_one_task_span_per_acked_attempt(self, tmp_path, monkeypatch):
        from repro import obs
        from repro.obs import validate_causal_trace

        acked = []
        on_done = SweepFabric._on_done

        def recording(self, worker, msg):
            if worker.task is not None:
                acked.append((msg["key"], worker.task.attempts - 1))
            on_done(self, worker, msg)

        monkeypatch.setattr(SweepFabric, "_on_done", recording)
        write_sweep(tmp_path, demo_specs(16, work=2))
        chaos = ChaosConfig(
            seed=7, kill=0.2, kill_mid_write=0.1, kill_after_write=0.1,
            delay=0.1, delay_s=0.01,
        )
        with obs.recording():
            report = _fabric(
                tmp_path, workers=3, max_retries=3, timeout_s=10.0, chaos=chaos
            ).run()
        assert report.ok, report.statuses
        assert report.worker_restarts > 0

        roots = _sweep_trace(tmp_path)
        assert roots[0].attrs["dropped_traces"] == 0
        validate_causal_trace(roots, epsilon=0.05)
        spans = Counter(
            (t.attrs["key"], t.attrs["attempt"])
            for t in roots[0].children
            if t.name == "fabric.task"
        )
        assert max(spans.values()) == 1  # no span in two acks
        assert sorted(spans) == sorted(acked)

    def test_killed_worker_keeps_one_span_per_finished_task(self, tmp_path):
        from repro.obs import recording

        k = 3
        specs = demo_specs(k, work=2) + [
            TaskSpec(key="die", kind="demo", params={"die_signal": 9})
        ]
        write_sweep(tmp_path, specs)
        with recording():
            report = _fabric(
                tmp_path, workers=1, max_retries=0, quarantine_after=1
            ).run()
        assert report.statuses["die"] == "quarantined"
        (root,) = _sweep_trace(tmp_path)
        tasks = [c for c in root.children if c.name == "fabric.task"]
        assert [t.attrs["key"] for t in tasks] == [s.key for s in specs[:k]]
        assert {t.attrs["worker"] for t in tasks} == {"w0-0"}
        assert root.attrs["dropped_traces"] == 0

    def test_traced_sweep_joins_the_ambient_trace(self, tmp_path):
        from repro.obs import recording, validate_causal_trace

        write_sweep(tmp_path, demo_specs(4, work=2))
        with recording() as rec:
            assert _fabric(tmp_path, workers=2).run().ok
        doc = read_json(SweepLayout(tmp_path).trace_path)
        assert doc["trace_id"] == rec.trace_id
        (sweep,) = rec.roots
        assert sweep.name == "fabric.sweep"
        assert len(sweep.find_all("fabric.task")) == 4
        validate_causal_trace(_sweep_trace(tmp_path), epsilon=0.05)


class TestUntraced:
    """With the null recorder ambient, the fabric records no spans."""

    def test_no_trace_file_and_a_stale_one_is_removed(self, tmp_path):
        write_sweep(tmp_path, demo_specs(4, work=2))
        SweepLayout(tmp_path).trace_path.write_text("{}")  # an earlier run's
        assert _fabric(tmp_path, workers=2).run().ok
        assert not SweepLayout(tmp_path).trace_path.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "logs", "manifest.json", "shards",
        ]

    def test_acks_carry_no_trace(self, tmp_path, monkeypatch):
        acks = []
        on_done = SweepFabric._on_done

        def spy(self, worker, msg):
            acks.append(msg)
            on_done(self, worker, msg)

        monkeypatch.setattr(SweepFabric, "_on_done", spy)
        write_sweep(tmp_path, demo_specs(4, work=2))
        assert _fabric(tmp_path, workers=2).run().ok
        assert sorted(a["key"] for a in acks) == [f"demo/{i:04d}" for i in range(4)]
        assert all("trace" not in a for a in acks)
