"""Unit tests for trace analytics (repro.obs.analytics).

Fixture traces are built two ways: directly from Span/SpanEvent
dataclasses (tests may; library code outside repro.obs may not — rule
RPR006), and through a SpanRecorder with a fake deterministic clock so
timing-sensitive identities (self-time reconciliation) are exact.
"""

import json

import pytest

from repro.obs import (
    Span,
    SpanEvent,
    SpanRecorder,
    aggregate_trace,
    diff_traces,
    structure_signature,
    trace_to_chrome,
    write_chrome_trace,
)


class FakeClock:
    """A clock that returns queued readings, then keeps ticking by 1."""

    def __init__(self, *readings):
        self.readings = list(readings)
        self.last = readings[-1] if readings else 0.0

    def __call__(self):
        if self.readings:
            self.last = self.readings.pop(0)
            return self.last
        self.last += 1.0
        return self.last


def pipeline_trace():
    """mapper.map(10s) -> solve(6s) + validate(2s), with a link event.

    Clock readings, in call order: root enter, solve enter, the
    network.link event, solve exit, validate enter, validate exit,
    root exit.
    """
    clock = FakeClock(0.0, 1.0, 6.5, 7.0, 7.5, 9.5, 10.0)
    rec = SpanRecorder(clock=clock)
    with rec.span("mapper.map", mapper="geo", n=64) as root:
        with rec.span("solve"):
            rec.event(
                "network.link",
                src_site=0,
                dst_site=1,
                bytes=1000,
                transfers=4,
                stall_s=0.5,
            )
        with rec.span("validate") as v:
            v.add("checks", 3)
        root.set(cost=12.5)
    return rec.roots


# -------------------------------------------------------------- aggregation


def test_aggregate_empty_trace_is_structurally_sound():
    snap = aggregate_trace([])
    assert snap.counter_total("trace_spans_total") == 0.0
    assert snap.counter_total("span_seconds_total") == 0.0
    # Families exist (rendered output is stable even on empty traces).
    assert "trace_spans_total" in snap.counters


def test_aggregate_single_span():
    snap = aggregate_trace([Span("solo", t_start=1.0, t_end=3.0)])
    assert snap.counter_value("trace_spans_total", span="solo") == 1.0
    assert snap.counter_value("span_seconds_total", span="solo") == pytest.approx(2.0)
    assert snap.counter_value("span_self_seconds_total", span="solo") == pytest.approx(2.0)
    assert snap.histogram_value("span_duration_seconds", span="solo").count == 1


def test_aggregate_pipeline_self_times_reconcile_exactly():
    trace = pipeline_trace()
    snap = aggregate_trace(trace)
    root_duration = trace[0].duration_s
    self_sum = snap.counter_total("span_self_seconds_total")
    # The acceptance identity: self times over a closed root's subtree
    # sum to exactly the root duration.
    assert self_sum == pytest.approx(root_duration, abs=1e-12)
    assert snap.counter_value("span_self_seconds_total", span="mapper.map") == (
        pytest.approx(10.0 - 6.0 - 2.0)
    )
    assert snap.counter_value("span_seconds_total", span="solve") == pytest.approx(6.0)


def test_aggregate_links_events_and_counters():
    snap = aggregate_trace(pipeline_trace())
    assert snap.counter_value("link_bytes_total", src_site="0", dst_site="1") == 1000.0
    assert snap.counter_value("link_transfers_total", src_site="0", dst_site="1") == 4.0
    assert snap.counter_value(
        "link_stall_seconds_total", src_site="0", dst_site="1"
    ) == pytest.approx(0.5)
    assert snap.counter_value("trace_events_total", event="network.link") == 1.0
    assert snap.counter_value(
        "span_counter_total", span="validate", counter="checks"
    ) == 3.0


def test_aggregate_open_spans_and_errors():
    open_span = Span("hung", t_start=0.0)  # never closed
    bad = Span("cell", t_start=0.0, t_end=1.0, attrs={"error": "TimeoutError"})
    snap = aggregate_trace([open_span, bad])
    assert snap.counter_value("trace_open_spans_total", span="hung") == 1.0
    assert snap.counter_value("trace_errors_total", span="cell") == 1.0
    # Open spans contribute no time.
    assert snap.counter_value("span_seconds_total", span="hung") == 0.0


def test_aggregate_memo_hit_ratio():
    orders = [
        Span(
            "geodist.order",
            t_start=0.0,
            t_end=0.1,
            attrs={"resumed_depth": 3, "groups_filled": 1},
        ),
        Span(
            "geodist.order",
            t_start=0.1,
            t_end=0.2,
            attrs={"resumed_depth": 1, "groups_filled": 3},
        ),
    ]
    snap = aggregate_trace(orders)
    assert snap.counter_total("memo_hits_total") == 4.0
    assert snap.counter_total("memo_misses_total") == 4.0
    assert snap.gauge_value("memo_hit_ratio") == pytest.approx(0.5)
    # No geodist spans -> no ratio gauge at all.
    assert aggregate_trace([Span("x", t_start=0, t_end=1)]).gauges.get("memo_hit_ratio") is None


# ----------------------------------------------------------------- diffing


def test_diff_identical_traces():
    a, b = pipeline_trace(), pipeline_trace()
    diff = diff_traces(a, b)
    assert diff.same_structure
    assert diff.only_in_a == () and diff.only_in_b == ()
    delta = diff.deltas["solve"]
    assert delta.count_a == delta.count_b == 1
    assert delta.total_delta == pytest.approx(0.0)


def test_diff_missing_span_name_on_either_side():
    a = [Span("mapper.map", t_start=0.0, t_end=1.0)]
    b = [Span("other.stage", t_start=0.0, t_end=1.0)]
    diff = diff_traces(a, b)
    assert diff.only_in_a == ("mapper.map",)
    assert diff.only_in_b == ("other.stage",)
    assert not diff.same_structure
    gone = diff.deltas["mapper.map"]
    assert gone.count_b == 0 and gone.total_b == 0.0
    new = diff.deltas["other.stage"]
    assert new.count_a == 0
    assert new.total_ratio() is None  # no time in A to divide by


def test_diff_stable_attr_changes():
    a = [Span("mapper.map", t_start=0.0, t_end=1.0, attrs={"mapper": "geo", "n": 64})]
    b = [Span("mapper.map", t_start=0.0, t_end=1.0, attrs={"mapper": "geo", "n": 128})]
    diff = diff_traces(a, b)
    assert diff.deltas["mapper.map"].attr_changes == {"n": (64, 128)}
    # Attrs with multiple values within one trace are unstable: ignored.
    many = [
        Span("geodist.order", t_start=0.0, t_end=0.1, attrs={"cost": 1.0}),
        Span("geodist.order", t_start=0.1, t_end=0.2, attrs={"cost": 2.0}),
    ]
    other = [Span("geodist.order", t_start=0.0, t_end=0.1, attrs={"cost": 9.0})]
    assert diff_traces(many, other).deltas["geodist.order"].attr_changes == {}


def test_structure_signature_ignores_time_but_not_shape():
    a = pipeline_trace()
    b = pipeline_trace()
    assert structure_signature(a) == structure_signature(b)
    reordered = [
        Span(
            "mapper.map",
            t_start=0.0,
            t_end=1.0,
            children=[Span("validate", 0, 1), Span("solve", 0, 1)],
        )
    ]
    assert structure_signature(a) != structure_signature(reordered)
    assert structure_signature([]) == structure_signature([])


# ------------------------------------------------------------ Chrome export


def test_trace_to_chrome_events():
    doc = trace_to_chrome(pipeline_trace())
    events = doc["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    assert {e["name"] for e in complete} == {"mapper.map", "solve", "validate"}
    assert [e["name"] for e in instants] == ["network.link"]
    root = next(e for e in complete if e["name"] == "mapper.map")
    assert root["ts"] == 0.0  # normalized to the earliest root
    assert root["dur"] == pytest.approx(10.0 * 1e6)
    assert root["args"]["cost"] == 12.5
    assert all(e["pid"] == 1 for e in events)


def test_trace_to_chrome_open_span_and_lanes():
    trace = [
        Span("done", t_start=0.0, t_end=1.0),
        Span("hung", t_start=0.5),
    ]
    doc = trace_to_chrome(trace)
    by_name = {e["name"]: e for e in doc["traceEvents"]}
    assert by_name["hung"]["dur"] == 0.0
    assert by_name["hung"]["args"]["open"] is True
    assert by_name["done"]["tid"] == 1 and by_name["hung"]["tid"] == 2
    assert trace_to_chrome([]) == {"traceEvents": [], "displayTimeUnit": "ms"}


def test_write_chrome_trace(tmp_path):
    out = write_chrome_trace(tmp_path / "t.chrome.json", pipeline_trace())
    doc = json.loads(out.read_text())
    assert doc["displayTimeUnit"] == "ms"
    assert len(doc["traceEvents"]) == 4
