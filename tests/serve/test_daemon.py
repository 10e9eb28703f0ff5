"""Daemon end-to-end over the real transports (the acceptance scenario).

Drives a live :class:`PlacementDaemon` — unix socket and localhost HTTP
— with real :class:`PlacementClient` connections running in executor
threads, exactly as external callers would.  The ISSUE's acceptance
criteria live here: two identical concurrent map requests produce one
solve (coalesced), a repeat request is a cache hit, responses are
bit-identical to a direct ``Mapper.map``, and saturating the queue
triggers backpressure plus Greedy degradation.  Clean shutdown (no
orphaned pool workers) is asserted on every teardown.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import socket
import sys
import urllib.request
import warnings

import pytest

from repro.core import get_mapper
from repro.serve import (
    EngineConfig,
    OverloadedRemoteError,
    PlacementClient,
    PlacementDaemon,
    RemoteError,
)
from tests.conftest import make_problem


@pytest.fixture(scope="module")
def problem(topo2):
    return make_problem(8, topo2, seed=3, constraint_ratio=0.25)


@pytest.fixture(scope="module")
def problems(topo2):
    return [make_problem(8, topo2, seed=s) for s in range(10, 16)]


def _worker_pids(daemon: PlacementDaemon) -> list[int]:
    pool = daemon.engine._pool
    if pool is None or pool._processes is None:
        return []
    return list(pool._processes)


def _assert_all_dead(pids: list[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        # Still signalable: either a zombie awaiting reap (acceptable,
        # the parent is this test process) or a genuine orphan.
        status = open(f"/proc/{pid}/stat").read().split()[2]
        assert status == "Z", f"pool worker {pid} survived shutdown (state {status})"


def run_daemon_scenario(tmp_path, config, scenario, *, http_port=None):
    """Run ``scenario(daemon, socket_path, loop)`` against a live daemon.

    Returns the scenario result; asserts clean shutdown afterwards.
    """
    socket_path = str(tmp_path / "placement.sock")

    async def main():
        daemon = PlacementDaemon(socket_path, http_port=http_port, config=config)
        await daemon.start()
        pids = _worker_pids(daemon)
        try:
            result = await scenario(daemon, socket_path, asyncio.get_running_loop())
        finally:
            await daemon.stop()
        return result, pids

    result, pids = asyncio.run(main())
    assert not os.path.exists(socket_path)  # socket file cleaned up
    _assert_all_dead(pids)  # no orphaned pool workers
    return result


def test_acceptance_coalesce_cache_identity_backpressure(
    tmp_path, problem, problems
):
    """The full acceptance flow over one daemon on the unix socket."""

    config = EngineConfig(pool_workers=1, queue_limit=2, degrade_at=1)

    def one_map(socket_path, p, mapper, sleep_s=0.0):
        with PlacementClient(socket_path) as client:
            try:
                return client.map(p, mapper=mapper, seed=0, sleep_s=sleep_s)
            except OverloadedRemoteError as exc:
                return {"rejected": True, "retry_after_s": exc.retry_after_s}

    async def scenario(daemon, socket_path, loop):
        out = {}
        # --- two identical concurrent requests -> one solve, coalesced
        first = loop.run_in_executor(
            None, one_map, socket_path, problem, "greedy", 0.4
        )
        await asyncio.sleep(0.15)
        second = loop.run_in_executor(
            None, one_map, socket_path, problem, "greedy", 0.4
        )
        out["concurrent"] = await asyncio.gather(first, second)
        out["cache_stats_after_coalesce"] = daemon.engine.cache.stats()

        # --- repeat request -> cache hit
        out["repeat"] = await loop.run_in_executor(
            None, one_map, socket_path, problem, "greedy", 0.4
        )

        # --- saturate the tiny queue -> 429s and Greedy degradation
        futs = [
            loop.run_in_executor(None, one_map, socket_path, p, "geo-distributed", 0.4)
            for p in problems
        ]
        out["storm"] = await asyncio.gather(*futs)
        return out

    out = run_daemon_scenario(tmp_path, config, scenario)

    r1, r2 = out["concurrent"]
    assert r1["ok"] and r2["ok"]
    assert sorted([r1["coalesced"], r2["coalesced"]]) == [False, True]
    assert r1["result"] == r2["result"]
    # one solve total: a single cache entry was ever stored for this key
    assert out["cache_stats_after_coalesce"]["entries"] == 1

    repeat = out["repeat"]
    assert repeat["cache_hit"] and not repeat["coalesced"]

    # bit-identical to a direct in-process Mapper.map through real JSON
    direct = get_mapper("greedy").map(problem, seed=0)
    assert repeat["result"]["cost"] == direct.cost
    assert repeat["result"]["assignment"] == direct.assignment.tolist()

    storm = out["storm"]
    rejected = [r for r in storm if r.get("rejected")]
    degraded = [r for r in storm if not r.get("rejected") and r.get("degraded")]
    assert rejected, "saturating the queue must trigger 429 backpressure"
    assert all(r["retry_after_s"] > 0 for r in rejected)
    assert degraded, "load past degrade_at must degrade requests"
    assert all(r["mapper"] == "greedy" for r in degraded)


def test_sequential_requests_share_one_connection(tmp_path, problem):
    def session(socket_path):
        with PlacementClient(socket_path) as client:
            a = client.map(problem, mapper="greedy", seed=0)
            b = client.map(problem, mapper="greedy", seed=0)
            health = client.health()
            metrics = client.metrics()
        return a, b, health, metrics

    async def scenario(daemon, socket_path, loop):
        return await loop.run_in_executor(None, session, socket_path)

    a, b, health, metrics = run_daemon_scenario(
        tmp_path, EngineConfig(pool_workers=1), scenario
    )
    assert not a["cache_hit"] and b["cache_hit"]
    assert health["status"] == "ok"
    assert health["cache"]["hits"] == 1
    assert "serve_requests_total" in metrics["prometheus"]


def test_repair_and_compare_over_socket(tmp_path, problem):
    from repro.core import UNPLACED, repair_mapping
    import numpy as np

    partial = get_mapper("greedy").map(problem, seed=0).assignment.copy()
    partial[2] = UNPLACED

    def session(socket_path):
        with PlacementClient(socket_path) as client:
            rep = client.repair(problem, partial)
            cmp_ = client.compare(problem, ["greedy", "multilevel"], seed=0)
        return rep, cmp_

    async def scenario(daemon, socket_path, loop):
        return await loop.run_in_executor(None, session, socket_path)

    rep, cmp_ = run_daemon_scenario(
        tmp_path, EngineConfig(pool_workers=1), scenario
    )
    direct = repair_mapping(problem, np.asarray(partial))
    assert rep["result"]["mapping"]["cost"] == direct.mapping.cost
    assert set(cmp_["result"]["mappings"]) == {"greedy", "multilevel"}


def test_malformed_line_gets_400_and_connection_survives(tmp_path, problem):
    import socket as socketlib

    def session(socket_path):
        sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        sock.settimeout(10.0)
        sock.connect(socket_path)
        rfile = sock.makefile("rb")
        sock.sendall(b"this is not json\n")
        bad = json.loads(rfile.readline())
        sock.sendall(json.dumps({"op": "health", "id": 2}).encode() + b"\n")
        good = json.loads(rfile.readline())
        sock.close()
        return bad, good

    async def scenario(daemon, socket_path, loop):
        return await loop.run_in_executor(None, session, socket_path)

    bad, good = run_daemon_scenario(
        tmp_path, EngineConfig(pool_workers=1), scenario
    )
    assert not bad["ok"] and bad["code"] == 400
    assert good["ok"] and good["result"]["status"] == "ok"


def test_unknown_mapper_kwarg_gets_error_and_daemon_keeps_serving(tmp_path, problem):
    """MPIPP takes no ``swap_tolerance`` (its tolerance is a module constant)."""

    def session(socket_path):
        with PlacementClient(socket_path) as client:
            with pytest.raises(RemoteError) as info:
                client.map(
                    problem, mapper="mpipp", mapper_kwargs={"swap_tolerance": 1e-9}
                )
            after = client.map(problem, mapper="greedy", seed=0)
        return info.value, after

    async def scenario(daemon, socket_path, loop):
        return await loop.run_in_executor(None, session, socket_path)

    error, after = run_daemon_scenario(
        tmp_path, EngineConfig(pool_workers=1), scenario
    )
    assert error.code == 400
    assert "swap_tolerance" in str(error)
    assert after["ok"]
    assert after["result"]["cost"] == get_mapper("greedy").map(problem, seed=0).cost


def test_shutdown_op_stops_the_daemon(tmp_path, problem):
    def session(socket_path):
        with PlacementClient(socket_path) as client:
            client.map(problem, mapper="greedy", seed=0)
            return client.shutdown()

    async def scenario(daemon, socket_path, loop):
        reply = await loop.run_in_executor(None, session, socket_path)
        await asyncio.wait_for(daemon.serve_forever(), timeout=5.0)
        return reply

    reply = run_daemon_scenario(tmp_path, EngineConfig(pool_workers=1), scenario)
    assert reply["ok"] and reply["result"]["stopping"]


def test_distributed_trace_parents_worker_spans_under_request(tmp_path, problem):
    """A traced client call produces ONE causal tree across three processes.

    The client records under ``recording()`` and injects its context, so
    the daemon adopts the client's trace id, parents its request span
    under the client's span, and grafts the pool worker's solve spans
    (rebased onto the daemon's clock) under the request span.  The
    stored document is fetchable over both the socket ``trace`` op and
    the HTTP ``GET /v1/trace/<id>`` route.
    """
    from repro.obs import causal_violations, recording, validate_trace

    port = 18437

    def session(socket_path):
        with recording() as rec:
            with rec.span("cli.map") as client_span:
                with PlacementClient(socket_path) as client:
                    resp = client.map(problem, mapper="greedy", seed=0)
                    doc = client.trace(resp["trace_id"])
                    health_env = client.request("health")
        http_doc = json.load(
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/v1/trace/{resp['trace_id']}",
                timeout=10,
            )
        )
        prom = (
            urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics", timeout=10)
            .read()
            .decode()
        )
        return resp, doc, http_doc, prom, health_env, rec.trace_id, client_span.span_id

    async def scenario(daemon, socket_path, loop):
        return await loop.run_in_executor(None, session, socket_path)

    resp, doc, http_doc, prom, health_env, client_trace_id, client_span_id = (
        run_daemon_scenario(
            tmp_path, EngineConfig(pool_workers=1), scenario, http_port=port
        )
    )

    # Every response envelope names the trace it belongs to, and the
    # daemon adopted the client's identity rather than minting its own.
    assert resp["trace_id"] == client_trace_id
    assert health_env["trace_id"] == client_trace_id
    assert doc["trace_id"] == client_trace_id

    # The stored document is one schema-valid, causally-parented tree.
    spans = validate_trace(doc)
    assert len(spans) == 1
    request_span = spans[0]
    assert request_span.name == "serve.request"
    assert request_span.attrs["op"] == "map"
    # The request span hangs under the *client's* span across the wire.
    assert request_span.parent_span_id == client_span_id
    # The pool worker's solve span was grafted under the request span
    # with its propagated parent id intact.
    solves = [c for c in request_span.children if c.name == "serve.solve"]
    assert solves, "pool worker solve span missing from the request trace"
    assert all(s.parent_span_id == request_span.span_id for s in solves)
    # Clock rebasing holds up: children nest inside their parents.
    assert causal_violations(spans, epsilon=0.05) == []

    # The HTTP route serves the same document.
    assert http_doc["trace_id"] == client_trace_id
    assert http_doc["spans"] == doc["spans"]

    # Build/uptime gauges are exported alongside the serve counters.
    assert "serve_build_info" in prom
    assert "serve_uptime_seconds" in prom


def test_http_transport(tmp_path, problem):
    from repro.serve.protocol import encode_problem

    port = 18431

    def session(socket_path):
        health = json.load(
            urllib.request.urlopen(f"http://127.0.0.1:{port}/health", timeout=10)
        )
        prom = (
            urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics", timeout=10)
            .read()
            .decode()
        )
        body = json.dumps(
            {"problem": encode_problem(problem), "mapper": "greedy", "seed": 0}
        ).encode()
        req = urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/map", data=body, method="POST"
        )
        mapped = json.load(urllib.request.urlopen(req, timeout=30))
        missing = urllib.request.Request(f"http://127.0.0.1:{port}/v1/nope", data=b"{}")
        try:
            urllib.request.urlopen(missing, timeout=10)
            bad_code = 200
        except urllib.error.HTTPError as exc:
            bad_code = exc.code
        return health, prom, mapped, bad_code

    async def scenario(daemon, socket_path, loop):
        return await loop.run_in_executor(None, session, socket_path)

    health, prom, mapped, bad_code = run_daemon_scenario(
        tmp_path, EngineConfig(pool_workers=1), scenario, http_port=port
    )
    assert health["status"] == "ok"
    assert "serve_requests_total" in prom
    assert mapped["ok"] and mapped["mapper"] == "greedy"
    direct = get_mapper("greedy").map(problem, seed=0)
    assert mapped["result"]["cost"] == direct.cost
    assert bad_code == 400


def test_http_malformed_body_gets_400(tmp_path):
    """Non-UTF-8, non-object and truncated JSON bodies are the caller's fault."""
    port = 18432

    def session(socket_path):
        codes = []
        for body in (b"\xff\xfe", b"[1, 2]", b"{"):
            req = urllib.request.Request(f"http://127.0.0.1:{port}/v1/map", data=body)
            try:
                urllib.request.urlopen(req, timeout=10)
                codes.append(200)
            except urllib.error.HTTPError as exc:
                codes.append(exc.code)
        return codes

    async def scenario(daemon, socket_path, loop):
        return await loop.run_in_executor(None, session, socket_path)

    codes = run_daemon_scenario(
        tmp_path, EngineConfig(pool_workers=1), scenario, http_port=port
    )
    assert codes == [400, 400, 400]


@pytest.mark.parametrize("length", ["abc", "-5"])
def test_http_bad_content_length_gets_400_and_daemon_keeps_serving(tmp_path, length):
    port = 18433

    def session(socket_path):
        with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
            conn.sendall(
                f"POST /v1/map HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode()
            )
            reply = b""
            while chunk := conn.recv(65536):
                reply += chunk
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/health", timeout=10) as r:
            health = json.loads(r.read())
        return reply, health

    async def scenario(daemon, socket_path, loop):
        return await loop.run_in_executor(None, session, socket_path)

    reply, health = run_daemon_scenario(
        tmp_path, EngineConfig(pool_workers=1), scenario, http_port=port
    )
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 "), reply
    assert "Content-Length" in json.loads(body)["error"]
    assert health["status"] == "ok"


def test_http_body_shorter_than_content_length_gets_400(tmp_path):
    port = 18434

    def session(socket_path):
        with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
            conn.sendall(b"POST /v1/map HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}\n")
            conn.shutdown(socket.SHUT_WR)
            reply = b""
            while chunk := conn.recv(65536):
                reply += chunk
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/health", timeout=10) as r:
            health = json.loads(r.read())
        return reply, health

    async def scenario(daemon, socket_path, loop):
        return await loop.run_in_executor(None, session, socket_path)

    reply, health = run_daemon_scenario(
        tmp_path, EngineConfig(pool_workers=1), scenario, http_port=port
    )
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 "), reply
    assert json.loads(body)["error"] == "body ended after 3 of Content-Length 10 bytes"
    assert health["status"] == "ok"


def test_client_splices_each_problem_encoded_once(tmp_path, problem):
    """A request line parses to exactly the request it stands for, with the
    caller's traceparent, while a problem is encoded once per client."""
    import threading
    from unittest import mock

    import repro.serve.client as client_mod
    from repro.obs import current_trace_context, recording
    from repro.serve.protocol import encode_problem

    path = str(tmp_path / "echo.sock")
    lines = []
    server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    server.bind(path)
    server.listen(1)

    def answer_each_line():
        conn, _ = server.accept()
        with conn, conn.makefile("rb") as rfile:
            for line in rfile:
                lines.append(line)
                conn.sendall(b'{"ok": true}\n')

    thread = threading.Thread(target=answer_each_line)
    thread.start()
    encode = mock.Mock(wraps=encode_problem)
    partial = [0] * problem.num_processes
    try:
        with mock.patch.object(client_mod, "encode_problem", encode):
            with recording() as rec, rec.span("caller"):
                ctx = current_trace_context()
                with PlacementClient(path) as client:
                    client.map(problem, mapper="greedy", seed=1)
                    client.repair(problem, partial)
                    client.compare(problem, ["greedy"], seed=2)
                    client.map(encode_problem(problem), seed=3)
    finally:
        thread.join(timeout=10)
        server.close()

    wire = encode_problem(problem)
    expected = [
        {"op": "map", "id": 1, "problem": wire, "seed": 1, "mapper": "greedy"},
        {"op": "repair", "id": 2, "problem": wire, "partial": partial,
         "refine_rounds": 2, "extra_moves": 0},
        {"op": "compare", "id": 3, "problem": wire, "mappers": ["greedy"], "seed": 2},
        {"op": "map", "id": 4, "problem": wire, "seed": 3},
    ]
    for request in expected:
        ctx.inject(request)
    assert [json.loads(line) for line in lines] == expected
    assert encode.call_count == 1


def test_client_connect_failure_closes_its_socket(tmp_path, monkeypatch):
    # A warning turned error inside a finalizer is "unraisable": catch it.
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OSError):
            PlacementClient(str(tmp_path / "missing.sock"))
        gc.collect()  # an unclosed socket warns when it is collected
    assert [u.exc_value for u in unraisable] == []
