"""Unit tests for trace-context propagation (repro.obs.tracectx)."""

import pytest

from repro.obs import (
    TRACEPARENT_KEY,
    ClockAnchor,
    Span,
    TraceContext,
    new_span_id,
    new_trace_id,
    shift_spans,
)

# ------------------------------------------------------------------- ids


def test_new_ids_are_well_formed_and_distinct():
    tid, sid = new_trace_id(), new_span_id()
    assert len(tid) == 32 and int(tid, 16) != 0
    assert len(sid) == 16 and int(sid, 16) != 0
    assert new_trace_id() != tid
    assert new_span_id() != sid


# ----------------------------------------------------------- wire format


def test_traceparent_round_trip():
    ctx = TraceContext.new().child(new_span_id())
    wire = ctx.to_traceparent()
    assert wire == f"00-{ctx.trace_id}-{ctx.span_id}-01"
    back = TraceContext.from_traceparent(wire)
    assert back == ctx


def test_rootless_context_uses_zero_span_id_on_wire():
    ctx = TraceContext.new()
    assert ctx.span_id is None
    wire = ctx.to_traceparent()
    assert "-0000000000000000-" in wire
    assert TraceContext.from_traceparent(wire).span_id is None


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "nonsense",
        "01-" + "a" * 32 + "-" + "b" * 16 + "-01",  # wrong version
        "00-" + "0" * 32 + "-" + "b" * 16 + "-01",  # all-zero trace id
        "00-" + "a" * 31 + "-" + "b" * 16 + "-01",  # short trace id
        "00-" + "a" * 32 + "-" + "b" * 15 + "-01",  # short span id
    ],
)
def test_malformed_traceparent_raises(bad):
    with pytest.raises(ValueError):
        TraceContext.from_traceparent(bad)


def test_context_constructor_validates_ids():
    with pytest.raises(ValueError):
        TraceContext(trace_id="xyz")
    with pytest.raises(ValueError):
        TraceContext(trace_id="0" * 32)
    with pytest.raises(ValueError):
        TraceContext(trace_id="a" * 32, span_id="0" * 16)


def test_inject_extract_round_trip_and_tolerance():
    ctx = TraceContext.new().child(new_span_id())
    carrier: dict = {"op": "map"}
    ctx.inject(carrier)
    assert carrier[TRACEPARENT_KEY] == ctx.to_traceparent()
    assert TraceContext.extract(carrier) == ctx
    # Malformed or absent headers degrade to None, never raise.
    assert TraceContext.extract({}) is None
    assert TraceContext.extract({TRACEPARENT_KEY: "garbage"}) is None
    assert TraceContext.extract({TRACEPARENT_KEY: 42}) is None


# ------------------------------------------------------------ clock math


def test_anchor_offset_rebases_between_clocks():
    # Process A booted so its monotonic clock reads 100 at unix t=1000;
    # process B's reads 5 at the same wall instant.
    a = ClockAnchor(monotonic=100.0, unix=1000.0)
    b = ClockAnchor(monotonic=5.0, unix=1000.0)
    # An event at A-clock 101 happened at unix 1001 == B-clock 6.
    assert 101.0 + a.offset_to(b) == pytest.approx(6.0)
    assert a.offset_to(a) == 0.0
    # offset_to is antisymmetric.
    assert a.offset_to(b) == pytest.approx(-b.offset_to(a))


def test_anchor_dict_round_trip_and_validation():
    anchor = ClockAnchor.now()
    again = ClockAnchor.from_dict(anchor.to_dict())
    assert again == anchor
    with pytest.raises(ValueError):
        ClockAnchor.from_dict({"monotonic": "nope", "unix": 1.0})
    with pytest.raises(ValueError):
        ClockAnchor.from_dict({"monotonic": 1.0})


def test_shift_spans_rebases_whole_trees():
    from repro.obs.spans import SpanEvent

    child = Span(name="c", t_start=1.5, t_end=2.0)
    root = Span(name="r", t_start=1.0, t_end=3.0, children=[child])
    root.events.append(SpanEvent(name="e", t=2.5, attrs={}))
    shift_spans([root], 10.0)
    assert root.t_start == 11.0 and root.t_end == 13.0
    assert child.t_start == 11.5 and child.t_end == 12.0
    assert root.events[0].t == 12.5
    # An open span (no t_end) shifts its start only.
    open_span = Span(name="o", t_start=4.0)
    shift_spans([open_span], -1.0)
    assert open_span.t_start == 3.0 and open_span.t_end is None


def test_graft_trace_rebases_the_clock_and_rejects_what_it_cannot_place():
    from repro.obs import graft_trace, trace_to_dict

    # The worker's clock reads 100 where the parent's reads 5.
    worker = ClockAnchor(monotonic=100.0, unix=1000.0)
    here = ClockAnchor(monotonic=5.0, unix=1000.0)
    task = Span(name="task", t_start=101.0, t_end=102.0,
                children=[Span(name="solve", t_start=101.25, t_end=101.5)])
    doc = trace_to_dict([task], anchor=worker)
    parent = Span(name="sweep", t_start=5.0, t_end=8.0)

    assert graft_trace(parent, doc, here)
    (grafted,) = parent.children
    assert (grafted.t_start, grafted.t_end) == pytest.approx((6.0, 7.0))
    assert grafted.children[0].t_start == pytest.approx(6.25)

    broken = {**doc, "spans": [{"name": "task"}]}  # no t_start
    unanchored = trace_to_dict([task])
    for bad in (broken, unanchored, None, "not a trace"):
        assert not graft_trace(parent, bad, here)
    assert len(parent.children) == 1
