"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


def test_regions_command(capsys):
    assert main(["regions", "--provider", "ec2"]) == 0
    out = capsys.readouterr().out
    assert "us-east-1" in out and "Singapore" in out


def test_regions_azure(capsys):
    assert main(["regions", "--provider", "azure"]) == 0
    assert "west-europe" in capsys.readouterr().out


def test_calibrate_command(capsys):
    rc = main(
        ["calibrate", "--regions", "us-east-1", "eu-west-1", "--nodes", "2"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "LT: latency (ms)" in out
    assert "BT: bandwidth (MB/s)" in out
    assert "eu-west-1" in out


def test_map_command(capsys):
    rc = main(
        [
            "map",
            "--app", "LU",
            "--regions", "us-east-1", "eu-west-1",
            "--nodes", "8",
            "--mapper", "greedy",
            "--constraint-ratio", "0.0",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "mapped by greedy" in out
    assert "assignment:" in out


def test_compare_command(capsys):
    rc = main(
        [
            "compare",
            "--app", "DNN",
            "--regions", "us-east-1", "ap-southeast-1",
            "--nodes", "4",
            "--constraint-ratio", "0.25",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("Baseline", "Greedy", "MPIPP", "Geo-distributed"):
        assert name in out


def test_unknown_mapper_fails(capsys, monkeypatch):
    from repro.apps import Application

    def no_profile(self):
        raise AssertionError("profiled before the mapper name was checked")

    monkeypatch.setattr(Application, "profile", no_profile)
    rc = main(["map", "--mapper", "nonsense", "--nodes", "2",
               "--regions", "us-east-1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown mapper 'nonsense'; available: [")
    assert "'geo-distributed'" in err and "'greedy'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["map", "--nodes", "0"], "nodes_per_site must be positive, got 0"),
        (["compare", "--nodes", "-1"], "nodes_per_site must be positive, got -1"),
        (["map", "--constraint-ratio", "2"], "constraint_ratio must be in [0, 1], got 2.0"),
        (["calibrate", "--regions", "nowhere"], "unknown ec2 region 'nowhere'; choose from ["),
    ],
    ids=["map-nodes-0", "compare-nodes-negative", "map-ratio-2", "calibrate-unknown-region"],
)
def test_bad_arguments_exit_2_with_an_error_line(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["robustness", "--processes", "0", "--limit", "1"],
         "processes must be >= 1, got 0"),
        (["robustness", "--slack", "0"], "slack must be >= 1, got 0.0"),
        (["robustness", "--sites", "5"], "sites must be in 1..4, got 5"),
        (["sweep", "--grid", "robustness", "--processes", "0"],
         "processes must be >= 1, got 0"),
        (["sweep", "--grid", "robustness", "--slack", "0"],
         "slack must be >= 1, got 0.0"),
        (["sweep", "--grid", "fig7", "--scales", "0"],
         "scales must be positive multiples of sites (4), got 0"),
        (["sweep", "--grid", "fig7", "--scales", "64", "6"],
         "scales must be positive multiples of sites (4), got 6"),
        (["sweep", "--grid", "fig7", "--sites", "5", "--scales", "5"],
         "sites must be in 1..4, got 5"),
        (["sweep", "--grid", "fig7", "--scales", "8", "--mappers", "greedy", "nonsense"],
         "unknown mappers ['nonsense']; available: ['baseline', "),
        (["sweep", "--grid", "demo", "--tasks", "3", "--limit", "0"],
         "limit must be >= 1, got 0"),
        (["sweep", "--grid", "demo", "--tasks", "3", "--limit", "-1"],
         "limit must be >= 1, got -1"),
        (["robustness", "--limit", "0"], "limit must be >= 1, got 0"),
    ],
    ids=["robustness-processes-0", "robustness-slack-0", "robustness-sites-5",
         "sweep-processes-0", "sweep-slack-0", "sweep-scales-0",
         "sweep-scales-uneven", "sweep-sites-5", "sweep-unknown-mapper",
         "sweep-limit-0", "sweep-limit-negative", "robustness-limit-0"],
)
def test_bad_sweep_arguments_exit_2_before_any_cell_runs(
    argv, message, tmp_path, capsys, monkeypatch
):
    from repro.exp import fabric

    def no_run(self, *args, **kwargs):
        raise AssertionError("the sweep ran before its arguments were checked")

    monkeypatch.setattr(fabric.SweepFabric, "run", no_run)
    sweep_dir = tmp_path / "sweep"
    assert main([*argv, "--sweep-dir", str(sweep_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not sweep_dir.exists()


def test_missing_command_errors():
    with pytest.raises(SystemExit):
        main([])


def test_robustness_command(capsys):
    rc = main(
        [
            "robustness",
            "--app", "LU",
            "--processes", "8",
            "--sites", "2",
            "--limit", "3",
            "--seed", "0",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "Robustness" in out
    assert "3 cells" in out
    assert "0 failed" in out


def test_robustness_resume_requires_sweep_dir(capsys):
    rc = main(["robustness", "--resume", "--processes", "4", "--sites", "2"])
    assert rc == 2
    assert "--resume requires --sweep-dir" in capsys.readouterr().err


def test_robustness_rejects_unknown_fault(capsys):
    rc = main(
        ["robustness", "--processes", "4", "--sites", "2",
         "--faults", "nonsense"]
    )
    assert rc == 2
    assert "unknown faults" in capsys.readouterr().err


def test_robustness_sweep_dir_resume_adopts(tmp_path, capsys):
    args = [
        "robustness",
        "--app", "LU",
        "--processes", "8",
        "--sites", "2",
        "--limit", "2",
        "--sweep-dir", str(tmp_path / "sweep"),
    ]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args + ["--resume"]) == 0
    assert "2 cells, 2 adopted, 0 failed" in capsys.readouterr().out


def test_map_trace_round_trips(tmp_path, capsys):
    """--trace writes a schema-valid JSON trace of the whole map run."""
    from repro.obs import load_trace

    trace = tmp_path / "trace.json"
    rc = main(
        [
            "map",
            "--app", "LU",
            "--regions", "us-east-1", "eu-west-1",
            "--nodes", "4",
            "--mapper", "geo-distributed",
            "--trace", str(trace),
        ]
    )
    assert rc == 0
    assert "trace written to" in capsys.readouterr().err
    spans = load_trace(trace)  # validates against the span schema
    names = [s.name for s in spans]
    assert "mapper.map" in names
    root = spans[names.index("mapper.map")]
    assert [c.name for c in root.children] == [
        "feasibility", "solve", "validate", "cost",
    ]
    orders = root.find("solve").find_all("geodist.order")
    assert len(orders) == 2  # 2 sites -> 2! group orders
    assert root.attrs["mapper"] == "geo-distributed"


def test_robustness_trace_holds_every_cell_under_the_sweep(tmp_path, capsys):
    """The cells run in fabric workers; their spans join the --trace."""
    from repro.obs import load_trace, validate_causal_trace

    trace = tmp_path / "trace.json"
    rc = main(
        ["robustness", "--app", "LU", "--processes", "16", "--sites", "4",
         "--faults", "outage", "--trace", str(trace)]
    )
    assert rc == 0
    assert "3 cells" in capsys.readouterr().out
    spans = load_trace(trace)
    validate_causal_trace(spans, epsilon=0.05)
    (sweep,) = spans
    assert sweep.name == "fabric.sweep"
    tasks = [c for c in sweep.children if c.name == "fabric.task"]
    assert sorted(t.attrs["key"] for t in tasks) == [
        f"robustness/outage/{m}" for m in ("baseline", "geo-distributed", "greedy")
    ]
    assert all(t.find("mapper.map") is not None for t in tasks)


def test_compare_trace_and_report(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    rc = main(
        [
            "compare",
            "--app", "LU",
            "--regions", "us-east-1", "ap-southeast-1",
            "--nodes", "4",
            "--trace", str(trace),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    assert main(["trace-report", str(trace), "--max-depth", "2"]) == 0
    out = capsys.readouterr().out
    assert "comparison.mapper" in out
    assert "build_problem" in out


def test_trace_report_rejects_bad_input(tmp_path, capsys):
    missing = main(["trace-report", str(tmp_path / "nope.json")])
    assert missing == 2
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 99, "clock": "x", "spans": []}')
    assert main(["trace-report", str(bad)]) == 2
    assert "invalid trace" in capsys.readouterr().err


# ----------------------------------------------------- metrics & analytics


def _write_fixture_trace(path, *, extra_attrs=None):
    """A deterministic two-level trace written through the obs schema."""
    from repro.obs import Span, write_trace

    attrs = {"mapper": "geo-distributed", **(extra_attrs or {})}
    root = Span(
        "mapper.map",
        t_start=0.0,
        t_end=1.5,
        attrs=attrs,
        children=[Span("solve", t_start=0.0, t_end=1.0)],
    )
    write_trace(path, [root])
    return path


def test_metrics_command_prom_and_json(tmp_path, capsys):
    import json

    trace = _write_fixture_trace(tmp_path / "t.json")
    assert main(["metrics", str(trace)]) == 0
    prom = capsys.readouterr().out
    assert "# TYPE trace_spans_total counter" in prom
    assert 'span_self_seconds_total{span="solve"} 1' in prom
    assert main(["metrics", str(trace), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == 1
    assert "span_seconds_total" in doc["counters"]


def test_metrics_command_rejects_bad_trace(tmp_path, capsys):
    assert main(["metrics", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_trace_diff_identical(tmp_path, capsys):
    a = _write_fixture_trace(tmp_path / "a.json")
    b = _write_fixture_trace(tmp_path / "b.json")
    assert main(["trace-diff", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "structure: identical" in out
    assert "mapper.map" in out and "solve" in out


def test_trace_diff_reports_structure_and_attr_changes(tmp_path, capsys):
    from repro.obs import Span, write_trace

    a = _write_fixture_trace(tmp_path / "a.json", extra_attrs={"n": 64})
    b = _write_fixture_trace(tmp_path / "b.json", extra_attrs={"n": 128})
    assert main(["trace-diff", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "attr changed on mapper.map: n: 64 -> 128" in out
    other = tmp_path / "other.json"
    write_trace(other, [Span("different.root", t_start=0.0, t_end=1.0)])
    assert main(["trace-diff", str(a), str(other)]) == 0
    out = capsys.readouterr().out
    assert "structure: differs" in out
    assert "only in A: mapper.map" in out
    assert "only in B: different.root" in out


def test_trace_export_chrome(tmp_path, capsys):
    import json

    trace = _write_fixture_trace(tmp_path / "t.json")
    assert main(["trace-export", str(trace), "--chrome"]) == 0
    out_msg = capsys.readouterr().out
    default_out = tmp_path / "t.chrome.json"
    assert str(default_out) in out_msg
    doc = json.loads(default_out.read_text())
    assert {e["name"] for e in doc["traceEvents"]} == {"mapper.map", "solve"}
    explicit = tmp_path / "custom.json"
    assert main(["trace-export", str(trace), "--chrome", "-o", str(explicit)]) == 0
    assert explicit.is_file()


def test_trace_export_requires_format(tmp_path, capsys):
    trace = _write_fixture_trace(tmp_path / "t.json")
    assert main(["trace-export", str(trace)]) == 2
    assert "--chrome" in capsys.readouterr().err


def test_bench_check_with_record_files(tmp_path, capsys):
    import json

    def write_records(name, seconds):
        path = tmp_path / name
        path.write_text(
            json.dumps(
                [{"schema": 2, "bench": "core", "n": 64, "m": 4, "seconds": seconds}]
            )
        )
        return path

    baseline = write_records("base.json", 1.0)
    steady = write_records("steady.json", 1.1)
    rc = main(
        ["bench-check", "--baseline", str(baseline), "--current", str(steady)]
    )
    assert rc == 0
    assert "0 fail" in capsys.readouterr().out
    slow = write_records("slow.json", 3.0)
    rc = main(["bench-check", "--baseline", str(baseline), "--current", str(slow)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "FAIL core" in captured.err
    # A slowdown between warn and fail thresholds warns but passes.
    warm = write_records("warm.json", 1.5)
    rc = main(["bench-check", "--baseline", str(baseline), "--current", str(warm)])
    assert rc == 0
    assert "WARN core" in capsys.readouterr().err


def test_bench_check_rejects_bad_baseline(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    ok = tmp_path / "ok.json"
    ok.write_text("[]")
    rc = main(["bench-check", "--baseline", str(bad), "--current", str(ok)])
    assert rc == 2
    assert "error: baseline" in capsys.readouterr().err


def test_sweep_demo_end_to_end(tmp_path, capsys):
    d = str(tmp_path / "sweep")
    rc = main(
        ["sweep", "--sweep-dir", d, "--grid", "demo", "--tasks", "6",
         "--workers", "2"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "initialized sweep: 6 specs" in out
    assert "ok=6" in out
    assert "merge: 6 rows" in out
    assert (tmp_path / "sweep" / "result.json").exists()


def test_sweep_requires_grid_for_empty_dir(tmp_path, capsys):
    rc = main(["sweep", "--sweep-dir", str(tmp_path / "empty")])
    assert rc == 2
    assert "--grid" in capsys.readouterr().err


def test_sweep_chaos_verify_against_clean(tmp_path, capsys):
    clean = str(tmp_path / "clean")
    chaos = str(tmp_path / "chaos")
    assert main(
        ["sweep", "--sweep-dir", clean, "--grid", "demo", "--tasks", "6",
         "--workers", "2"]
    ) == 0
    rc = main(
        ["sweep", "--sweep-dir", chaos, "--grid", "demo", "--tasks", "6",
         "--workers", "2", "--timeout-s", "10",
         "--chaos", "seed=7,kill=0.3,kill-mid-write=0.2",
         "--verify-against", clean]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "ok=6" in out
    assert "verified: payload-identical" in out


def test_sweep_rejects_dir_built_from_other_grid(tmp_path, capsys):
    from repro.exp.fabric import demo_specs, write_sweep

    d = str(tmp_path / "sweep")
    write_sweep(d, demo_specs(4))
    rc = main(["sweep", "--sweep-dir", d, "--grid", "demo", "--tasks", "6"])
    assert rc == 2
    assert "'demo/0004'" in capsys.readouterr().err
    rc = main(["sweep", "--sweep-dir", d, "--grid", "demo", "--tasks", "4",
               "--seed", "1", "--resume"])
    assert rc == 2
    assert "'demo/0000'" in capsys.readouterr().err


def test_sweep_resume_and_merge_only(tmp_path, capsys):
    d = str(tmp_path / "sweep")
    assert main(
        ["sweep", "--sweep-dir", d, "--grid", "demo", "--tasks", "4",
         "--workers", "2"]
    ) == 0
    capsys.readouterr()
    # resume over a finished sweep: everything adopted, still ok
    assert main(["sweep", "--sweep-dir", d, "--resume"]) == 0
    assert "adopted=4" in capsys.readouterr().out
    # merge-only touches no workers
    assert main(["sweep", "--sweep-dir", d, "--merge-only"]) == 0
    assert "merge: 4 rows" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command",
    [
        ["sweep", "--grid", "demo", "--tasks", "2"],
        ["robustness", "--processes", "4", "--sites", "2", "--limit", "1"],
    ],
    ids=["sweep", "robustness"],
)
def test_sweep_dir_locked_by_live_process_exits_2(tmp_path, capsys, command):
    import os

    from repro.exp.fabric import SweepLayout

    d = tmp_path / "sweep"
    lock = SweepLayout(d).lock_path
    lock.parent.mkdir(parents=True, exist_ok=True)
    # The parent of this test process is alive and is not this process,
    # so the lockfile reads as held by a live concurrent supervisor.
    lock.write_text(str(os.getppid()))
    rc = main([*command, "--sweep-dir", str(d)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"locked by live process {os.getppid()}" in err
    assert "Traceback" not in err


def test_sweep_rejects_bad_chaos_spec(tmp_path, capsys):
    rc = main(
        ["sweep", "--sweep-dir", str(tmp_path / "s"), "--grid", "demo",
         "--tasks", "2", "--chaos", "frobnicate=1"]
    )
    assert rc == 2
    assert "error" in capsys.readouterr().err


# -------------------------------------------------------------------- serve


def _serve_args(regions=("us-east-1", "eu-west-1"), nodes=4):
    return [
        "--app", "LU",
        "--regions", *regions,
        "--nodes", str(nodes),
        "--constraint-ratio", "0.0",
    ]


def _start_daemon_thread(socket_path):
    """Run a placement daemon in a thread; returns (thread, stop)."""
    import asyncio
    import threading
    import time as _time

    from repro.serve.daemon import PlacementDaemon
    from repro.serve.engine import EngineConfig

    loop_box = {}

    def serve():
        async def amain():
            daemon = PlacementDaemon(
                socket_path, config=EngineConfig(pool_workers=1)
            )
            await daemon.start()
            loop_box["daemon"] = daemon
            loop_box["loop"] = asyncio.get_running_loop()
            try:
                await daemon.serve_forever()
            finally:
                await daemon.stop()

        asyncio.run(amain())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    deadline = _time.monotonic() + 10
    import os as _os

    while not _os.path.exists(socket_path):
        if _time.monotonic() > deadline:  # pragma: no cover
            raise TimeoutError("daemon did not come up")
        _time.sleep(0.02)

    def stop():
        loop_box["loop"].call_soon_threadsafe(loop_box["daemon"].request_shutdown)
        thread.join(timeout=10)

    return thread, stop


def test_map_remote_round_trips_through_daemon(tmp_path, capsys):
    socket_path = str(tmp_path / "placement.sock")
    _, stop = _start_daemon_thread(socket_path)
    try:
        argv = ["map", *_serve_args(), "--mapper", "greedy", "--remote", socket_path]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "mapped remotely by greedy" in out
        assert "assignment:" in out
        # same invocation again: served from the daemon's cache
        assert main(argv) == 0
        assert "[cache_hit]" in capsys.readouterr().out
        # the remote answer matches the local solve bit-for-bit
        assert main(["map", *_serve_args(), "--mapper", "greedy"]) == 0
        local = capsys.readouterr().out
        assert main(argv) == 0
        remote = capsys.readouterr().out
        local_assignment = local.split("assignment:")[1].strip()
        remote_assignment = remote.split("assignment:")[1].strip()
        assert local_assignment == remote_assignment
    finally:
        stop()


def test_compare_remote(tmp_path, capsys):
    socket_path = str(tmp_path / "placement.sock")
    _, stop = _start_daemon_thread(socket_path)
    try:
        rc = main(["compare", *_serve_args(), "--remote", socket_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "via daemon" in out
        for name in ("baseline", "greedy", "geo-distributed"):
            assert name in out
    finally:
        stop()


def test_map_remote_without_daemon_fails_cleanly(tmp_path, capsys):
    rc = main(
        ["map", *_serve_args(), "--remote", str(tmp_path / "nope.sock")]
    )
    assert rc == 1
    assert "placement daemon" in capsys.readouterr().err


def test_serve_cli_flags_validate():
    with pytest.raises(SystemExit):
        main(["serve", "--pool-workers"])  # missing value


@pytest.mark.parametrize("flag", ["--pool-workers", "--queue-limit"])
def test_serve_rejects_non_positive_sizes_before_binding(tmp_path, capsys, flag):
    socket_path = tmp_path / "placement.sock"
    rc = main(["serve", "--socket", str(socket_path), flag, "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "must be >= 1" in err
    assert not socket_path.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--http-port", "70000"], "http port must be in 0..65535, got 70000"),
        (["--http-port", "-1"], "http port must be in 0..65535, got -1"),
        (["--socket", "{tmp}/missing/placement.sock"],
         "socket directory {tmp}/missing does not exist"),
    ],
    ids=["port-70000", "port-negative", "socket-dir-missing"],
)
def test_serve_rejects_bad_address_before_binding(
    flags, message, tmp_path, capsys, monkeypatch
):
    from repro.serve import daemon

    def no_daemon(*args, **kwargs):
        raise AssertionError("the daemon started before its arguments were checked")

    monkeypatch.setattr(daemon, "run", no_daemon)
    socket_path = tmp_path / "placement.sock"
    argv = ["serve", "--socket", str(socket_path)]
    argv += [flag.format(tmp=tmp_path) for flag in flags]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message.format(tmp=tmp_path)}\n"
    assert not socket_path.exists()


def test_serve_reports_a_taken_port_and_leaves_nothing_behind(tmp_path, capsys):
    import multiprocessing
    import socket

    before = {p.pid for p in multiprocessing.active_children()}
    socket_path = tmp_path / "placement.sock"
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen(1)
        port = held.getsockname()[1]
        rc = main(["serve", "--socket", str(socket_path), "--http-port", str(port),
                   "--pool-workers", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "address already in use" in err
    assert "listening" not in err
    assert not socket_path.exists()
    assert {p.pid for p in multiprocessing.active_children()} <= before


# ---------------------------------------------------------------------- obs


def test_sweep_with_store_feeds_obs_query_and_show(tmp_path, capsys):
    import json

    d = str(tmp_path / "sweep")
    store = str(tmp_path / "store")
    rc = main(
        ["sweep", "--sweep-dir", d, "--grid", "demo", "--tasks", "4",
         "--workers", "2", "--store", store]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "trace: 4 task span(s), 0 dropped" in out

    # The sweep appended a queryable record carrying its trace id.
    assert main(
        ["obs", "query", "--store", store, "--kind", "sweep", "--json"]
    ) == 0
    out = capsys.readouterr().out
    assert "1 records matched" in out
    rec = json.loads(out.splitlines()[0])
    assert rec["tasks"] == 4 and rec["ok"] == 4
    trace_id = rec["trace_id"]

    # ...and persisted the sweep's trace under that id for obs show.
    assert main(["obs", "show", "--store", store, trace_id]) == 0
    out = capsys.readouterr().out
    assert f"trace {trace_id}" in out
    assert "fabric.sweep" in out and "fabric.task" in out

    # The CLI invocation itself also left a run record.
    assert main(
        ["obs", "query", "--store", store, "--kind", "run", "--json"]
    ) == 0
    run_rec = json.loads(capsys.readouterr().out.splitlines()[0])
    assert run_rec["command"] == "sweep" and run_rec["status"] == 0


def test_sweep_without_store_records_no_trace(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    d = tmp_path / "sweep"
    args = ["sweep", "--sweep-dir", str(d), "--grid", "demo", "--tasks", "4",
            "--workers", "2"]
    # A stored run leaves its trace; an untraced rerun removes it.
    assert main(args + ["--store", str(tmp_path / "store")]) == 0
    assert "trace: 4 task span(s)" in capsys.readouterr().out
    assert (d / "trace.json").exists()
    # --merge-only runs nothing, so it reports no (earlier) trace.
    assert main(["sweep", "--sweep-dir", str(d), "--merge-only"]) == 0
    assert "trace:" not in capsys.readouterr().out
    assert main(args + ["--resume"]) == 0
    assert "trace:" not in capsys.readouterr().out
    assert not (d / "trace.json").exists()


def test_obs_query_empty_store_and_bad_show(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert main(["obs", "query", "--store", store]) == 1
    assert "0 records matched" in capsys.readouterr().out
    assert main(["obs", "show", "--store", store, "f" * 32]) == 2
    assert "error" in capsys.readouterr().err


def test_obs_query_percentiles_over_samples(tmp_path, capsys):
    from repro.obs import TelemetryStore

    store_dir = tmp_path / "store"
    store = TelemetryStore(store_dir)
    store.append(
        {"kind": "serve", "op": "map", "bench": "serve_cold",
         "samples": [0.010, 0.020, 0.030, 0.040]}
    )
    rc = main(
        ["obs", "query", "--store", str(store_dir), "--bench", "serve_cold",
         "--percentiles", "0.5", "1.0"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "latency over 4 samples" in out
    assert "p50=20.000 ms" in out
    assert "p100=40.000 ms" in out


def test_obs_store_env_fallback(tmp_path, capsys, monkeypatch):
    from repro.obs import STORE_ENV, TelemetryStore

    store_dir = tmp_path / "envstore"
    TelemetryStore(store_dir).append({"kind": "run", "command": "x"})
    monkeypatch.setenv(STORE_ENV, str(store_dir))
    assert main(["obs", "query"]) == 0
    assert "1 records matched" in capsys.readouterr().out
