"""serve-mix: an open-loop request stream through the placement daemon.

A ``repro serve`` daemon with ``--pool-workers 1`` listens on a unix
socket, so the generator, the event loop and one solver fit on 2 cores.
One generator process sends N=512 sparse ``map`` requests
(``mapper="greedy"``) at a fixed offered rate over 2 connections, and
times each from its scheduled send time.  The stream mixes three kinds:
a fresh seed takes the cold-solve path, a repeat of an answered request
takes the cache-hit path, and one fresh request sent on both
connections at once takes the coalesced path.  Solves are cheap and
geodist is bypassed, so decode, fingerprint, cache, queue, pool and
encode set the latency.

``op_p50_s`` and ``setup_s`` are CPU time of the generator, the daemon
and its pool together, as on the other workloads: on a shared 2-vCPU
host the wall-time p50 of the same stream swung by a third between runs
with hypervisor steal, while CPU time per request moved a few percent.
The wall-time latencies stay in the table as ``req_*``.
"""

from __future__ import annotations

import contextvars
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np

from .common import (
    ROOT,
    WORK,
    Report,
    Stat,
    cpu_stat,
    geomean,
    mapping_error,
    median,
    peak_rss_mb,
    self_cpu_seconds,
    spread,
    tail_stat,
    timed,
    timing_stat,
    tree_cpu_seconds,
)
from .multilevel_sparse import make_problem

N = 512
#: Distinct problems in the stream; solve time varies by instance, so
#: more of them keep one seed's draw from setting the median.
PROBLEMS = 8
#: Offered events per second (a coalesced pair is one event, two
#: requests).  A connection serves one request at a time, so an event
#: due while its connection still waits on a cold solve (~60-100 ms on
#: a busy 2-core host) is sent late, and that wait lands in its latency.
#: At 5 events/s a connection sees an event every ~200 ms, so this
#: head-of-line wait is rare and latency tracks the daemon, not the
#: schedule's collisions; the pool stays well below saturation.
RATE = 5.0
#: Kinds in every block of 10 consecutive events, shuffled per block.
#: A stream is whole blocks: exact proportions, so the p50 sits at the
#: same place in the mix, and CPU per request weighs the kinds alike,
#: whatever the seed.
BLOCK = ("cold",) * 4 + ("hit",) * 4 + ("coalesced",) * 2
#: A request slower than this, refused, or failed counts as a miss.
LATENCY_LIMIT_S = 0.25
#: A hit repeats a request scheduled at least this long before it, so
#: its first answer has arrived and it cannot coalesce instead.
HIT_AGE_S = 1.0
SETUP_REPEATS = 3
#: Every n-th distinct solved request is re-solved in-process to check
#: the daemon's answer bit for bit.
VERIFY_EVERY = 5
SPAN_KEEP = 256  # the daemon's default bound on retained request traces


@dataclass
class Event:
    t: float  # scheduled send time, seconds from stream start
    kind: str
    problem: int
    seed: int
    conns: tuple[int, ...]


@dataclass
class Sent:
    event: Event
    conn: int
    lag: float = 0.0
    latency: float = float("inf")
    reply: dict | None = None
    error: str = ""


def blocks_for(seconds: float, daemons: int) -> int:
    """Whole blocks per daemon that fill about ``seconds`` at ``RATE``."""
    return max(1, int(seconds * RATE / (len(BLOCK) * daemons) + 0.5))


def schedule(seed: int, segment: int, blocks: int, first_seed: int) -> list[Event]:
    """One daemon's share of the stream; fresh seeds follow ``first_seed``."""
    rng = np.random.default_rng([seed, 7, segment])
    kinds = [str(kind) for _ in range(blocks) for kind in rng.permutation(BLOCK)]
    events: list[Event] = []
    answered: list[tuple[float, int, int]] = [(-HIT_AGE_S, p, 0) for p in range(PROBLEMS)]
    fresh = first_seed
    for k, kind in enumerate(kinds):
        t = k / RATE
        if kind == "hit":
            old = [a for a in answered if a[0] <= t - HIT_AGE_S]
            _, problem, req_seed = old[rng.integers(len(old))]
            events.append(Event(t, kind, problem, req_seed, (k % 2,)))
            continue
        problem = int(rng.integers(PROBLEMS))
        fresh += 1
        conns = (0, 1) if kind == "coalesced" else (k % 2,)
        events.append(Event(t, kind, problem, fresh, conns))
        answered.append((t, problem, fresh))
    return events


class Daemon:
    """A ``repro serve`` child process on a socket inside the checkout."""

    def __init__(self, where: Path) -> None:
        where.mkdir(parents=True, exist_ok=True)
        self.where = where
        self.socket = str((where / "d.sock").relative_to(ROOT))
        self.log = open(where / "daemon.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.socket,
             "--pool-workers", "1", "--queue-limit", "64", "--batch-max", "4",
             "--cache-size", "1024"],
            cwd=ROOT,
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )

    def client(self):
        from repro.serve.client import PlacementClient

        # Relative: an absolute path inside a deep checkout can exceed
        # the ~107-byte limit on unix socket addresses.
        return PlacementClient(os.path.relpath(ROOT / self.socket))

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited {self.proc.returncode}: {self._log_tail()}")
            try:
                with self.client() as c:
                    c.health()
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError("daemon did not come up") from None
                time.sleep(0.01)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                with self.client() as c:
                    c.shutdown()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.log.close()

    def _log_tail(self) -> str:
        self.log.flush()
        return (self.where / "daemon.log").read_text()[-400:]


def _boot(where: Path, payloads: list[dict]) -> Daemon:
    """Start a daemon and warm its pool with each problem at seed 0."""
    daemon = Daemon(where)
    try:
        daemon.wait_ready()
        with daemon.client() as c:
            for payload in payloads:
                c.map(payload, mapper="greedy", seed=0)
    except BaseException:
        daemon.stop()
        raise
    return daemon


def _stream(daemon: Daemon, problems: list, events: list[Event]) -> list[Sent]:
    """Send ``events`` open-loop on 2 connections; time from schedule."""
    from repro.obs import get_recorder

    lanes: list[list[Sent]] = [[], []]
    for ev in events:
        for conn in ev.conns:
            lanes[conn].append(Sent(ev, conn))
    start = time.perf_counter() + 0.05

    def lane(sends: list[Sent]) -> None:
        obs = get_recorder()
        with daemon.client() as c:
            for s in sends:
                due = start + s.event.t
                now = time.perf_counter()
                if due > now:
                    time.sleep(due - now)
                sent_at = time.perf_counter()
                s.lag = sent_at - due
                try:
                    with obs.span("bench.request", kind=s.event.kind):
                        s.reply = c.map(problems[s.event.problem], mapper="greedy",
                                        seed=s.event.seed)
                except Exception as exc:  # noqa: BLE001 - a failed request is data
                    s.error = f"{type(exc).__name__}: {exc}"
                    continue
                s.latency = time.perf_counter() - due

    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(lane, sends))
        for sends in lanes
    ]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    return sorted(lanes[0] + lanes[1], key=lambda s: (s.event.t, s.conn))


def _check(rep: Report, sent: list[Sent], problems: list, answers: dict) -> None:
    """Every reply feasible and costed right; repeats and pairs identical;
    a sample bit-identical to an in-process ``Mapper.map``."""
    from repro.core import get_mapper
    from repro.serve.protocol import decode_problem, encode_problem

    fresh: list[tuple] = []
    for s in sent:
        if s.reply is None:
            rep.op(False, f"request failed: {s.error}")
            continue
        result = s.reply["result"]
        key = (s.event.problem, s.event.seed)
        error = mapping_error(problems[key[0]], result["assignment"], result["cost"])
        seen = (tuple(result["assignment"]), result["cost"])
        if key not in answers:
            answers[key] = seen
            fresh.append(key)
        elif not error and answers[key] != seen:
            error = "reply differs from an earlier reply to the same request"
        rep.op(not error, f"request {key}: {error}")
    for key in fresh[::VERIFY_EVERY]:
        wire = json.loads(json.dumps(encode_problem(problems[key[0]])))
        mapping = get_mapper("greedy").map(decode_problem(wire), seed=key[1])
        if answers[key] != (tuple(mapping.assignment.tolist()), mapping.cost):
            rep.fail(f"request {key}: daemon answer differs from in-process Mapper.map")


def _latencies(sent: list[Sent]) -> list[float]:
    return [s.latency for s in sent]


def run(seed: int, seconds: float, trace: bool) -> Report:
    from repro.serve.protocol import encode_problem

    rep = Report("serve-mix")
    problems = [make_problem(seed, i, n=N) for i in range(PROBLEMS)]
    payloads = [encode_problem(p) for p in problems]
    where = WORK / "tmp" / f"serve-{seed}-{time.time_ns()}"
    setups, setup_walls = [], []
    cpus: list[float] = []  # CPU seconds per request, one per daemon
    stream_cpu = 0.0
    sent: list[Sent] = []
    answers: dict = {}
    daemon = None
    fresh = 0
    window = seconds / 2 if trace else seconds
    blocks = blocks_for(window, SETUP_REPEATS)
    try:
        # Each boot serves an equal share of the stream, so set-up is
        # measured several times in a run.
        for i in range(SETUP_REPEATS):
            c0 = self_cpu_seconds()
            elapsed, daemon = timed(lambda: _boot(where / str(i), payloads))
            setup_walls.append(elapsed)
            # A fresh daemon's whole CPU time so far is its boot.
            setups.append(self_cpu_seconds() - c0 + tree_cpu_seconds(daemon.proc.pid))
            events = schedule(seed, i, blocks, first_seed=fresh)
            c0 = self_cpu_seconds() + tree_cpu_seconds(daemon.proc.pid)
            part = _stream(daemon, problems, events)
            used = self_cpu_seconds() + tree_cpu_seconds(daemon.proc.pid) - c0
            cpus.append(used / len(part))
            stream_cpu += used
            sent += part
            fresh = max(ev.seed for ev in events)
            if i < SETUP_REPEATS - 1 or not trace:
                daemon.stop()
                daemon = None
        _check(rep, sent, problems, answers)
        lat = _latencies(sent)
        rep.e2e["setup_s"] = cpu_stat(setups, setup_walls, "daemon boot + pool warm-up")
        # Whole blocks on every daemon: the run's total over its request
        # count weighs cold, hit and coalesced requests in fixed shares.
        rep.e2e["op_p50_s"] = Stat(
            stream_cpu / len(sent), "s", len(sent), spread(cpus),
            f"CPU time per map request, generator + daemon + pool; "
            f"wall p50 {median(lat):.4g} s at {RATE:g} events/s offered",
        )
        rep.e2e["req_p50_s"] = timing_stat(lat)
        rep.e2e["req_tail_s"] = tail_stat(lat)
        misses = sum(1 for x in lat if not x <= LATENCY_LIMIT_S)
        rep.e2e["req_miss_frac"] = Stat(misses / len(lat), "ratio", len(lat), None,
                                       f"limit {LATENCY_LIMIT_S} s")
        costs = [answers[k][1] for k in sorted(answers)]
        rep.e2e["mapping_cost"] = Stat(geomean(costs), "alpha-beta_s", len(costs))
        if trace:
            _traced(rep, daemon, problems, payloads, seed, window, fresh, answers,
                    median(lat))
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(where, ignore_errors=True)
    rep.e2e["peak_rss_mb"] = Stat(peak_rss_mb(), "MB")
    return rep


def _counts(client) -> dict[str, float]:
    """Cumulative daemon counters the per-layer serve metrics need."""
    snap = client.metrics()["json"]

    def total(kind: str, name: str, field_: str = "value") -> float:
        return sum(s[field_] for s in snap[kind].get(name, []))

    return {
        "requests": sum(s["value"] for s in snap["counters"].get("serve_requests_total", [])
                        if s["labels"].get("op") == "map"),
        "hits": total("counters", "serve_cache_hits_total"),
        "coalesced": total("counters", "serve_coalesced_total"),
        "rejected": total("counters", "serve_rejected_total"),
        "degraded": total("counters", "serve_degraded_total"),
        "batch_items": total("histograms", "serve_batch_size", "sum"),
        "batches": total("histograms", "serve_batch_size", "count"),
        "batch_seconds": total("histograms", "serve_batch_seconds", "sum"),
    }


def _traced(rep, daemon, problems, payloads, seed, seconds, fresh, answers,
            untraced_p50) -> None:
    import repro.serve.client as client_mod
    from repro.obs import recording, validate_trace
    from repro.serve.protocol import decode_problem

    from .tracing import SpanTotals, save_trace, spanned

    with daemon.client() as c:
        before = _counts(c)
    events = schedule(seed, SETUP_REPEATS, blocks_for(seconds, 1), first_seed=fresh)
    with ExitStack() as stack:
        rec = stack.enter_context(recording())
        stack.enter_context(spanned(client_mod, "encode_problem", "bench.encode"))
        # The daemon keys retained traces by trace id.  Propagating this
        # recording's one trace id would file every request under the same
        # key, so the daemon mints a fresh id per request instead.
        stack.enter_context(mock.patch.object(client_mod, "current_trace_context", lambda: None))
        sent = _stream(daemon, problems, events)
    with daemon.client() as c:
        after = _counts(c)
        docs = []
        for s in sent[-SPAN_KEEP:]:
            if s.reply is not None:
                docs.append(c.trace(s.reply["trace_id"]))
    _check(rep, sent, problems, answers)
    d = {k: after[k] - before[k] for k in after}

    daemon_roots = [root for doc in docs for root in validate_trace(doc)]
    requests, waits, solves = [], [], []
    for root in daemon_roots:
        for req in root.iter():
            if req.name != "serve.request":
                continue
            requests.append(req.duration_s)
            for child in req.children:
                if child.name == "serve.solve":
                    solves.append(child.duration_s)
                    waits.append(req.duration_s - child.duration_s)
    spans = SpanTotals(rec.roots)
    n = len(sent)
    wire = [json.loads(json.dumps(p)) for p in payloads]
    decode = median([timed(lambda w=w: decode_problem(w))[0] for w in wire * 5])
    fingerprint = median(
        [timed(decode_problem(w).fingerprint)[0] for w in wire * 5]
    )

    def p50(kind_filter) -> float:
        xs = [s.latency for s in sent if s.reply is not None and kind_filter(s.reply)]
        return median(xs) if xs else 0.0

    lat = _latencies(sent)
    lags = sorted(s.lag for s in sent)
    rep.layers = {
        "serve.encode_s": spans.total("bench.encode") / n,
        "serve.decode_s": decode,
        "serve.fingerprint_s": fingerprint,
        "serve.cold_p50_s": p50(lambda r: not r["cache_hit"] and not r["coalesced"]),
        "serve.hit_p50_s": p50(lambda r: r["cache_hit"]),
        "serve.coalesced_p50_s": p50(lambda r: r["coalesced"]),
        "serve.queue_wait_s": sum(waits) / len(waits) if waits else 0.0,
        "serve.solve_s": sum(solves) / len(solves) if solves else 0.0,
        "serve.batch_size_mean": d["batch_items"] / d["batches"] if d["batches"] else 0.0,
        "serve.batch_s": d["batch_seconds"] / d["batches"] if d["batches"] else 0.0,
        "serve.cache_hit_ratio": d["hits"] / d["requests"],
        "serve.coalesced_ratio": d["coalesced"] / d["requests"],
        "serve.rejected": d["rejected"],
        "serve.degraded": d["degraded"],
        "serve.gen_lag_s": lags[min(len(lags) - 1, int(0.99 * len(lags)))],
        "obs.trace_overhead_frac": median(lat) / untraced_p50 - 1.0,
    }
    total = sum(x for x in lat if x != float("inf"))
    # Daemon-side spans exist for the fetched requests only; scale them
    # to the whole stream.
    scale = n / max(1, len(requests))
    in_daemon = sum(requests) * scale
    pool = sum(solves) * scale
    decode_all = decode * n
    fingerprint_all = fingerprint * n
    encode_all = spans.total("bench.encode")
    rep.stages = [
        ("encode (client)", encode_all),
        ("decode (daemon)", decode_all),
        ("fingerprint (daemon)", fingerprint_all),
        ("queue + dispatch + cache", in_daemon - pool - decode_all - fingerprint_all),
        ("pool solve", pool),
        ("socket, client JSON, send lag", total - in_daemon - encode_all),
    ]
    rep.stage_total_s = total
    rep.stage_total_name = "summed request latency"
    rep.trace_path = save_trace("serve-mix", seed, rec.roots + daemon_roots)
