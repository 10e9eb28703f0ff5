"""repro.obs — the structured observability layer.

One instrumentation spine for the whole reproduction: hierarchical
:class:`~repro.obs.spans.Span` trees with typed counters and events,
recorded through a context-local ambient recorder, exported as JSON (the
``--trace`` file format) or rendered as text (``trace-report``).

Spans are the only instrumentation the library emits; there is no
ambient metrics registry.  Typed metrics (:class:`MetricsRegistry`) come
from :func:`aggregate_trace`, which rolls a trace up into a fresh
registry (``repro metrics``), and from the placement daemon, which owns
one registry explicitly (``/metrics``).

Zero dependencies (stdlib only) and a no-op default: until a
:class:`SpanRecorder` is installed, every instrumented call site hits
:data:`NULL_RECORDER` and does essentially nothing, which is what keeps
the mapper/simulator hot paths at full speed (``benchmarks/bench_obs.py``
guards this).

Typical use::

    from repro.obs import recording, render_trace

    with recording() as rec:
        mapper.map(problem)
    print(render_trace(rec.roots))

Re-exports load on first use, so the recorder a sweep supervisor or
worker needs pulls in neither the analytics, the store nor the bench
gate.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".spans": ("JSONValue", "Span", "SpanEvent"),
    ".recorder": (
        "Recorder", "NullRecorder", "NullSpan", "SpanRecorder", "NULL_RECORDER",
        "get_recorder", "set_recorder", "using_recorder", "recording",
        "current_trace_context",
    ),
    ".export": (
        "TRACE_VERSION", "SUPPORTED_TRACE_VERSIONS", "TraceSchemaError",
        "span_to_dict", "span_from_dict", "trace_to_dict", "validate_trace",
        "trace_anchor", "graft_trace", "causal_violations", "validate_causal_trace",
        "write_trace", "load_trace", "render_trace",
    ),
    ".tracectx": (
        "TRACEPARENT_KEY", "ClockAnchor", "TraceContext", "new_trace_id",
        "new_span_id", "shift_spans",
    ),
    ".store": (
        "STORE_SCHEMA", "STORE_ENV", "StoreError", "QueryResult", "TelemetryStore",
        "default_store_dir", "resolve_store_dir", "percentiles_of",
    ),
    ".metrics": (
        "Labels", "labelset", "Counter", "Gauge", "Histogram", "HistogramValue",
        "DEFAULT_BUCKETS", "MetricsSnapshot", "MetricsRegistry",
    ),
    ".analytics": (
        "aggregate_trace", "SpanDelta", "TraceDiff", "diff_traces",
        "structure_signature", "trace_to_chrome", "write_chrome_trace",
    ),
    ".benchgate": (
        "BENCH_SCHEMA_VERSION", "BENCH_JSON_ENV", "BenchDelta", "BenchCheckReport",
        "compare_bench_records", "load_bench_records",
    ),
})

# The same names as imports, for type checkers and repro-lint's call graph.
# ruff reads neither the lazy table nor the __all__ it builds, so it
# would call these imports unused.
# ruff: noqa: F401
if TYPE_CHECKING:
    from .analytics import (
        SpanDelta,
        TraceDiff,
        aggregate_trace,
        diff_traces,
        structure_signature,
        trace_to_chrome,
        write_chrome_trace,
    )
    from .benchgate import (
        BENCH_JSON_ENV,
        BENCH_SCHEMA_VERSION,
        BenchCheckReport,
        BenchDelta,
        compare_bench_records,
        load_bench_records,
    )
    from .export import (
        SUPPORTED_TRACE_VERSIONS,
        TRACE_VERSION,
        TraceSchemaError,
        causal_violations,
        graft_trace,
        load_trace,
        render_trace,
        span_from_dict,
        span_to_dict,
        trace_anchor,
        trace_to_dict,
        validate_causal_trace,
        validate_trace,
        write_trace,
    )
    from .metrics import (
        DEFAULT_BUCKETS,
        Counter,
        Gauge,
        Histogram,
        HistogramValue,
        Labels,
        MetricsRegistry,
        MetricsSnapshot,
        labelset,
    )
    from .recorder import (
        NULL_RECORDER,
        NullRecorder,
        NullSpan,
        Recorder,
        SpanRecorder,
        current_trace_context,
        get_recorder,
        recording,
        set_recorder,
        using_recorder,
    )
    from .spans import JSONValue, Span, SpanEvent
    from .store import (
        STORE_ENV,
        STORE_SCHEMA,
        QueryResult,
        StoreError,
        TelemetryStore,
        default_store_dir,
        percentiles_of,
        resolve_store_dir,
    )
    from .tracectx import (
        TRACEPARENT_KEY,
        ClockAnchor,
        TraceContext,
        new_span_id,
        new_trace_id,
        shift_spans,
    )
