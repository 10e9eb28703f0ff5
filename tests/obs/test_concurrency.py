"""Concurrent-handler safety of the obs layer (the serving-daemon audit).

The placement daemon shares one :class:`MetricsRegistry` and one
:class:`SpanRecorder` across every connection handler, dispatcher task,
and executor callback.  These tests pin the contract documented in
``repro.obs.metrics`` / ``repro.obs.recorder``:

* counter/gauge/histogram mutation AND reads are exact under thread
  contention (no lost updates, no torn reads);
* there is no ambient registry: a registry works from any thread that
  holds a reference to it;
* the ambient recorder ContextVar does **not** propagate to executor
  workers — they silently get the null recorder — unless the callback
  runs inside ``contextvars.copy_context``;
* asyncio tasks get disjoint span trees on one shared recorder;
* :meth:`SpanRecorder.trim` bounds the root forest for long-lived use.
"""

from __future__ import annotations

import asyncio
import contextvars
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import (
    MetricsRegistry,
    NullRecorder,
    SpanRecorder,
    get_recorder,
    using_recorder,
)

N_THREADS = 8
N_INCS = 2_000


def _hammer(fn, n_threads=N_THREADS):
    barrier = threading.Barrier(n_threads)

    def run(i):
        barrier.wait()
        fn(i)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestMetricsThreadSafety:
    def test_counter_incs_are_exact_under_contention(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total")
        _hammer(lambda i: [counter.inc(op="map") for _ in range(N_INCS)])
        assert counter.value(op="map") == N_THREADS * N_INCS

    def test_concurrent_reads_while_writing(self):
        """value() holds the lock, so mixed read/write never tears."""
        registry = MetricsRegistry()
        counter = registry.counter("ops_total")
        seen = []

        def work(i):
            if i % 2:
                for _ in range(N_INCS):
                    counter.inc()
            else:
                seen.extend(counter.total() for _ in range(N_INCS))

        _hammer(work)
        assert counter.total() == (N_THREADS // 2) * N_INCS
        assert all(0 <= v <= (N_THREADS // 2) * N_INCS for v in seen)

    def test_gauge_inc_dec_balance(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")

        def work(i):
            for _ in range(N_INCS):
                gauge.inc()
                gauge.dec()

        _hammer(work)
        assert gauge.value() == 0

    def test_histogram_observation_count_is_exact(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_seconds", buckets=(0.1, 1.0))
        _hammer(lambda i: [hist.observe(0.05) for _ in range(N_INCS)])
        assert hist.value().count == N_THREADS * N_INCS

    def test_same_family_from_many_threads_is_one_object(self):
        """Registry getters are locked: no duplicate families under a race."""
        registry = MetricsRegistry()
        got = []
        _hammer(lambda i: got.append(registry.counter("shared_total")))
        first = got[0]
        assert all(c is first for c in got)


class TestAmbientContextIsolation:
    def test_executor_callback_sees_null_recorder(self):
        recorder = SpanRecorder()
        with using_recorder(recorder):
            with ThreadPoolExecutor(max_workers=1) as pool:
                ambient = pool.submit(get_recorder).result()
        assert isinstance(ambient, NullRecorder)

    def test_captured_registry_object_works_from_any_thread(self):
        """The daemon engine's pattern: hold the registry object."""
        registry = MetricsRegistry()
        counter = registry.counter("captured_total")
        with ThreadPoolExecutor(max_workers=2) as pool:
            for f in [pool.submit(counter.inc) for _ in range(10)]:
                f.result()
        assert counter.total() == 10

    def test_copy_context_carries_ambient_across_threads(self):
        """The workaround for the ambient recorder: a copied context."""
        recorder = SpanRecorder()
        with using_recorder(recorder):
            ctx = contextvars.copy_context()
        result = []
        t = threading.Thread(target=lambda: result.append(ctx.run(get_recorder)))
        t.start()
        t.join()
        assert result[0] is recorder


class TestSpanRecorderAsyncio:
    def test_sibling_tasks_get_disjoint_root_spans(self):
        """Tasks copy context at creation: no cross-task span nesting."""
        recorder = SpanRecorder()

        async def handler(name):
            with recorder.span(name):
                await asyncio.sleep(0.01)
                with recorder.span(f"{name}.child"):
                    await asyncio.sleep(0.01)

        async def main():
            with using_recorder(recorder):
                await asyncio.gather(*(handler(f"req{i}") for i in range(4)))

        asyncio.run(main())
        assert sorted(root.name for root in recorder.roots) == [
            f"req{i}" for i in range(4)
        ]
        for root in recorder.roots:
            assert [c.name for c in root.children] == [f"{root.name}.child"]

    def test_threaded_span_creation_is_safe(self):
        recorder = SpanRecorder()

        def work(i):
            for j in range(200):
                with recorder.span(f"t{i}"):
                    pass

        _hammer(work, n_threads=4)
        assert len(recorder.roots) == 4 * 200


class TestTrim:
    def test_trim_keeps_newest_roots(self):
        recorder = SpanRecorder()
        for i in range(10):
            with recorder.span(f"s{i}"):
                pass
        dropped = recorder.trim(3)
        assert dropped == 7
        assert [r.name for r in recorder.roots] == ["s7", "s8", "s9"]

    def test_trim_noop_when_under_limit(self):
        recorder = SpanRecorder()
        with recorder.span("only"):
            pass
        assert recorder.trim(5) == 0
        assert len(recorder.roots) == 1

    def test_trim_rejects_negative(self):
        with pytest.raises(ValueError):
            SpanRecorder().trim(-1)

    def test_trim_under_concurrent_span_creation(self):
        recorder = SpanRecorder()
        stop = threading.Event()

        def trimmer():
            while not stop.is_set():
                recorder.trim(50)

        def producer(i):
            for j in range(300):
                with recorder.span(f"t{i}.{j}"):
                    pass

        t = threading.Thread(target=trimmer)
        t.start()
        try:
            _hammer(producer, n_threads=4)
        finally:
            stop.set()
            t.join()
        recorder.trim(50)
        assert len(recorder.roots) <= 50
