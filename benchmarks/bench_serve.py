"""Perf bench: serving latency of the placement daemon.

Boots a real :class:`PlacementDaemon` on a unix socket and measures the
round-trip latency an external caller sees for the three serving paths
the daemon distinguishes — a cold solve, a fingerprint cache hit, and a
request coalesced onto an in-flight solve — plus sustained throughput
under concurrent clients.  N=512 on a 16-site topology, Greedy solves,
so the numbers isolate serving overhead rather than solver depth.

Appends p50/p99 records to ``BENCH_perf.json`` (schema
``{bench, n, m, seconds, cost}``) so later PRs gate against a serving
regression baseline.

Run directly::

    PYTHONPATH=src python benchmarks/bench_serve.py [--quick]

``--quick`` trims sample counts to a CI-smoke footprint.
"""

from __future__ import annotations

import argparse
import asyncio
import statistics
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import emit, store_records, update_bench_json  # noqa: E402
from bench_perf_core import make_bench_problem  # noqa: E402

from repro.serve.client import PlacementClient  # noqa: E402
from repro.serve.daemon import PlacementDaemon  # noqa: E402
from repro.serve.engine import EngineConfig  # noqa: E402

N = 512
M = 16


class DaemonHarness:
    """A placement daemon on a temp socket, run in a background thread."""

    def __init__(self) -> None:
        self._dir = tempfile.TemporaryDirectory(prefix="bench_serve_")
        self.socket_path = str(Path(self._dir.name) / "placement.sock")
        self._box: dict = {}
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self) -> None:
        async def amain() -> None:
            daemon = PlacementDaemon(
                self.socket_path,
                config=EngineConfig(pool_workers=2, queue_limit=256),
            )
            await daemon.start()
            self._box["daemon"] = daemon
            self._box["loop"] = asyncio.get_running_loop()
            try:
                await daemon.serve_forever()
            finally:
                await daemon.stop()

        asyncio.run(amain())

    def __enter__(self) -> "DaemonHarness":
        self._thread.start()
        deadline = time.monotonic() + 15
        while not Path(self.socket_path).exists():
            if time.monotonic() > deadline:
                raise TimeoutError("placement daemon did not come up")
            time.sleep(0.02)
        # One throwaway request absorbs pool spawn + import cost so the
        # first timed "cold" sample is not an outlier of process startup.
        with PlacementClient(self.socket_path) as client:
            client.health()
        return self

    def __exit__(self, *exc) -> None:
        self._box["loop"].call_soon_threadsafe(self._box["daemon"].request_shutdown)
        self._thread.join(timeout=30)
        self._dir.cleanup()


def _percentiles(samples: list[float]) -> tuple[float, float]:
    """(p50, p99) — p99 from the sorted tail, exact for small sets."""
    ordered = sorted(samples)
    p50 = statistics.median(ordered)
    p99 = ordered[min(len(ordered) - 1, int(round(0.99 * (len(ordered) - 1))))]
    return p50, p99


def bench_cold(harness, problem, samples: int) -> tuple[list[float], float]:
    """Distinct seeds → every request misses the cache and solves."""
    times: list[float] = []
    cost = 0.0
    with PlacementClient(harness.socket_path) as client:
        for seed in range(samples):
            t0 = time.perf_counter()
            reply = client.map(problem, mapper="greedy", seed=1000 + seed)
            times.append(time.perf_counter() - t0)
            if reply["cache_hit"] or reply["coalesced"]:
                raise RuntimeError("cold request unexpectedly served warm")
            cost = reply["result"]["cost"]
    return times, cost


def bench_cache_hit(harness, problem, samples: int) -> tuple[list[float], float]:
    times: list[float] = []
    with PlacementClient(harness.socket_path) as client:
        warm = client.map(problem, mapper="greedy", seed=0)  # populate
        cost = warm["result"]["cost"]
        for _ in range(samples):
            t0 = time.perf_counter()
            reply = client.map(problem, mapper="greedy", seed=0)
            times.append(time.perf_counter() - t0)
            if not reply["cache_hit"]:
                raise RuntimeError("expected a cache hit")
    return times, cost


def bench_coalesced(harness, problem, pairs: int) -> tuple[list[float], float]:
    """Two clients race the same fresh request; time the coalesced one.

    Pairs where the second request lands after the first completes (a
    cache hit instead of a coalesce) are skipped, not counted.
    """
    times: list[float] = []
    cost = 0.0
    seed = 5000
    with ThreadPoolExecutor(max_workers=2) as pool:
        while len(times) < pairs:
            seed += 1
            barrier = threading.Barrier(2)

            def one(s=seed):
                with PlacementClient(harness.socket_path) as client:
                    barrier.wait()
                    t0 = time.perf_counter()
                    reply = client.map(problem, mapper="greedy", seed=s)
                    return time.perf_counter() - t0, reply

            (ta, ra), (tb, rb) = [f.result() for f in
                                  [pool.submit(one), pool.submit(one)]]
            for elapsed, reply in ((ta, ra), (tb, rb)):
                if reply["coalesced"]:
                    times.append(elapsed)
                    cost = reply["result"]["cost"]
    return times, cost


def bench_throughput(harness, problem, requests: int, clients: int = 4) -> float:
    """Sustained requests/s with concurrent clients over fresh seeds."""

    def worker(base: int, count: int) -> None:
        with PlacementClient(harness.socket_path) as client:
            for i in range(count):
                client.map(problem, mapper="greedy", seed=base + i)

    per = requests // clients
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=clients) as pool:
        for f in [pool.submit(worker, 9000 + c * per, per) for c in range(clients)]:
            f.result()
    elapsed = time.perf_counter() - t0
    return (per * clients) / elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI-smoke footprint")
    args = parser.parse_args(argv)

    cold_n = 8 if args.quick else 30
    hit_n = 30 if args.quick else 200
    pair_n = 4 if args.quick else 10
    tput_n = 16 if args.quick else 64

    # Sparse CG/AG: realistic comm graphs at this scale, and the CSR wire
    # path keeps request parsing from drowning out the serving paths.
    problem = make_bench_problem(N, M, seed=0, sparse=True)

    with DaemonHarness() as harness:
        cold, cold_cost = bench_cold(harness, problem, cold_n)
        hits, hit_cost = bench_cache_hit(harness, problem, hit_n)
        coalesced, co_cost = bench_coalesced(harness, problem, pair_n)
        tput = bench_throughput(harness, problem, tput_n)

    cold_p50, cold_p99 = _percentiles(cold)
    hit_p50, hit_p99 = _percentiles(hits)
    co_p50, _ = _percentiles(coalesced)

    rows = [
        ("cold solve", cold_p50, cold_p99, len(cold)),
        ("cache hit", hit_p50, hit_p99, len(hits)),
        ("coalesced", co_p50, float("nan"), len(coalesced)),
    ]
    lines = [
        f"serving latency, N={N} on {M} sites (greedy), seconds round-trip",
        f"{'path':<12} {'p50':>10} {'p99':>10} {'samples':>8}",
    ]
    for name, p50, p99, count in rows:
        lines.append(f"{name:<12} {p50:>10.6f} {p99:>10.6f} {count:>8}")
    lines.append(f"throughput: {tput:.1f} req/s with 4 concurrent clients")
    emit("bench_serve", "\n".join(lines))

    update_bench_json(
        [
            {"bench": "serve_cold_p50", "n": N, "m": M,
             "seconds": cold_p50, "cost": cold_cost},
            {"bench": "serve_cold_p99", "n": N, "m": M,
             "seconds": cold_p99, "cost": cold_cost},
            {"bench": "serve_cache_hit_p50", "n": N, "m": M,
             "seconds": hit_p50, "cost": hit_cost},
            {"bench": "serve_cache_hit_p99", "n": N, "m": M,
             "seconds": hit_p99, "cost": hit_cost},
            {"bench": "serve_coalesced_p50", "n": N, "m": M,
             "seconds": co_p50, "cost": co_cost},
            # seconds-per-request so the gate's lower-is-better holds.
            {"bench": "serve_throughput_per_req", "n": N, "m": M,
             "seconds": 1.0 / tput, "cost": cold_cost},
        ]
    )
    # With $REPRO_STORE set, the raw samples go to the telemetry store
    # so `repro obs query --bench serve_cold` computes exact percentiles
    # over pooled history instead of trusting this run's summary.
    store_records(
        [
            {"bench": "serve_cold", "op": "map", "n": N, "m": M,
             "samples": cold, "seconds": cold_p50},
            {"bench": "serve_cache_hit", "op": "map", "n": N, "m": M,
             "samples": hits, "seconds": hit_p50},
            {"bench": "serve_coalesced", "op": "map", "n": N, "m": M,
             "samples": coalesced, "seconds": co_p50},
        ],
        kind="serve",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
