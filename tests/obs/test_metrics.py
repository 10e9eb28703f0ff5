"""Unit tests for the typed metrics layer (repro.obs.metrics)."""

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    labelset,
)

# ----------------------------------------------------------------- families


def test_counter_accumulates_per_labelset():
    c = Counter("requests_total")
    c.inc()
    c.inc(2.5, mapper="geo")
    c.inc(mapper="geo")
    assert c.value() == 1.0
    assert c.value(mapper="geo") == 3.5
    assert c.total() == 4.5


def test_counter_rejects_negative_and_bad_names():
    c = Counter("requests_total")
    with pytest.raises(ValueError):
        c.inc(-1.0)
    with pytest.raises(ValueError):
        Counter("bad name")
    with pytest.raises(ValueError):
        c.inc(1.0, **{"0bad": "x"})


def test_labelset_sorts_and_stringifies():
    assert labelset({"b": 2, "a": "x"}) == (("a", "x"), ("b", "2"))
    # Stringified values mean int and str label values hit the same series.
    c = Counter("c_total")
    c.inc(src_site=3)
    c.inc(src_site="3")
    assert c.value(src_site="3") == 2.0


def test_gauge_last_write_wins_and_inc_dec():
    g = Gauge("queue_depth")
    g.set(5.0)
    g.set(2.0)
    g.inc(3.0)
    g.dec()
    assert g.value() == 4.0
    g.inc(-10.0)  # gauges may go negative
    assert g.value() == -6.0


def test_histogram_bucket_boundaries_are_le_inclusive():
    h = Histogram("latency_seconds", buckets=[0.1, 1.0, 10.0])
    # Exactly on a bound lands IN that bucket (Prometheus `le` semantics).
    for v in (0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 99.0):
        h.observe(v)
    hv = h.value()
    assert hv.counts == (2, 2, 2, 1)  # (..0.1], (0.1..1], (1..10], (10..)
    assert hv.cumulative() == (2, 4, 6, 7)  # ends at total count
    assert hv.count == 7
    assert hv.sum == pytest.approx(115.65)


def test_histogram_default_buckets_and_validation():
    h = Histogram("h_seconds")
    assert h.bounds == DEFAULT_BUCKETS
    with pytest.raises(ValueError):
        Histogram("h2", buckets=[])
    with pytest.raises(ValueError):
        Histogram("h3", buckets=[1.0, 1.0])
    with pytest.raises(ValueError):
        Histogram("h4", buckets=[1.0, float("inf")])


# ----------------------------------------------------------------- registry


def test_registry_families_are_idempotent_and_kind_checked():
    reg = MetricsRegistry()
    assert reg.counter("c_total") is reg.counter("c_total")
    with pytest.raises(TypeError):
        reg.gauge("c_total")
    with pytest.raises(TypeError):
        reg.histogram("c_total")


def test_registry_convenience_surface_and_snapshot():
    reg = MetricsRegistry()
    reg.inc("runs_total", mapper="geo")
    reg.inc("runs_total", 2.0, mapper="greedy")
    reg.set_gauge("last_cost", 12.5)
    reg.observe("map_seconds", 0.3)
    snap = reg.snapshot()
    assert snap.counter_value("runs_total", mapper="geo") == 1.0
    assert snap.counter_total("runs_total") == 3.0
    assert snap.gauge_value("last_cost") == 12.5
    assert snap.histogram_value("map_seconds").count == 1
    assert snap.histogram_value("map_seconds", absent="x") is None
    assert not snap.empty
    # Snapshots are frozen: later bumps don't bleed back.
    reg.inc("runs_total", mapper="geo")
    assert snap.counter_value("runs_total", mapper="geo") == 1.0


def test_registry_is_thread_safe():
    reg = MetricsRegistry()

    def work():
        for _ in range(1000):
            reg.inc("c_total")
            reg.observe("h_seconds", 0.001)

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    snap = reg.snapshot()
    assert snap.counter_total("c_total") == 4000.0
    assert snap.histogram_value("h_seconds").count == 4000


# ------------------------------------------------------------ serialization


def test_snapshot_to_dict_document():
    """The document ``repro metrics --format json`` and the serve
    ``metrics`` op emit: sorted families, label dicts, raw bucket counts."""
    reg = MetricsRegistry()
    reg.counter("c_total", "help text").inc(2.0, k="v")
    reg.inc("c_total", 1.0, k="a")
    reg.set_gauge("g", -1.5)
    reg.histogram("h", buckets=[0.1, 1.0]).observe(0.25)
    snap = reg.snapshot()
    assert snap.to_dict() == {
        "version": 1,
        "counters": {
            "c_total": [
                {"labels": {"k": "a"}, "value": 1.0},
                {"labels": {"k": "v"}, "value": 2.0},
            ]
        },
        "gauges": {"g": [{"labels": {}, "value": -1.5}]},
        "histograms": {
            "h": [
                {
                    "labels": {},
                    "bounds": [0.1, 1.0],
                    "counts": [0, 1, 0],
                    "sum": 0.25,
                    "count": 1,
                }
            ]
        },
        "help": {"c_total": "help text"},
    }
    assert json.loads(snap.to_json()) == snap.to_dict()


def test_render_prom_format():
    reg = MetricsRegistry()
    reg.counter("runs_total", "Total runs").inc(3, mapper="geo")
    reg.set_gauge("cost", 1.5)
    reg.histogram("lat_seconds", buckets=[0.1, 1.0]).observe(0.05)
    text = reg.render_prom()
    assert "# HELP runs_total Total runs" in text
    assert "# TYPE runs_total counter" in text
    assert 'runs_total{mapper="geo"} 3' in text
    assert "# TYPE cost gauge" in text
    assert "cost 1.5" in text
    assert 'lat_seconds_bucket{le="0.1"} 1' in text
    assert 'lat_seconds_bucket{le="+Inf"} 1' in text
    assert "lat_seconds_sum 0.05" in text
    assert "lat_seconds_count 1" in text
    assert MetricsSnapshot().render_prom() == ""


def test_render_prom_escapes_label_values():
    reg = MetricsRegistry()
    reg.inc("c_total", 1.0, site='us"east\\1')
    text = reg.render_prom()
    assert 'site="us\\"east\\\\1"' in text


# ----------------------------------------------------------------- quantile


def test_quantile_validates_and_handles_empty():
    import math

    hist = Histogram("q_seconds", buckets=[1.0, 2.0])
    assert math.isnan(hist.quantile(0.5))
    hist.observe(0.5)
    with pytest.raises(ValueError):
        hist.quantile(-0.1)
    with pytest.raises(ValueError):
        hist.quantile(1.1)


def test_quantile_interpolates_within_buckets():
    hist = Histogram("q_seconds", buckets=[1.0, 2.0, 4.0])
    for v in (0.5, 1.5, 1.5, 3.0):
        hist.observe(v)
    # rank 2 of 4: halfway through the two samples of the (1, 2] bucket.
    assert hist.quantile(0.5) == pytest.approx(1.5)
    # Everything fits under the highest finite bound.
    assert hist.quantile(1.0) == 4.0


def test_quantile_overflow_bucket_reports_highest_bound():
    hist = Histogram("q_seconds", buckets=[1.0, 2.0])
    hist.observe(10.0)  # beyond every finite bound
    assert hist.quantile(0.5) == 2.0


def _exact_quantile_histogram(samples):
    """Per-sample-bounds histogram: quantile() is an order statistic."""
    hist = Histogram("q_seconds", buckets=sorted(set(samples)))
    for s in samples:
        hist.observe(s)
    return hist


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.floats(
            min_value=1e-6,
            max_value=1e3,
            allow_nan=False,
            allow_infinity=False,
        ),
        min_size=1,
        max_size=60,
        unique=True,
    ),
    st.data(),
)
def test_quantile_matches_sorted_raw_samples(samples, data):
    """With per-sample bucket bounds and an integral rank q = k/n,
    quantile(q) is exactly the k-th smallest raw sample — the contract
    ``percentiles_of`` (and therefore ``repro obs query``) relies on."""
    hist = _exact_quantile_histogram(samples)
    k = data.draw(st.integers(min_value=1, max_value=len(samples)))
    got = hist.quantile(k / len(samples))
    expected = sorted(samples)[k - 1]
    assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.floats(
            min_value=1e-6,
            max_value=1e3,
            allow_nan=False,
            allow_infinity=False,
        ),
        min_size=2,
        max_size=40,
    )
)
def test_quantile_is_monotone_in_q(samples):
    hist = _exact_quantile_histogram(samples)
    qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
    values = [hist.quantile(q) for q in qs]
    assert values == sorted(values)
