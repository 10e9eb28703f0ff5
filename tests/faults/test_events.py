"""Fault event semantics and schedule evaluation."""

from __future__ import annotations

import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import InputError
from repro.faults import (
    EVENT_KINDS,
    FaultSchedule,
    FlappingLink,
    LatencySpike,
    LinkDegradation,
    SiteCapacityLoss,
    SiteOutage,
    event_from_dict,
    random_schedule,
)


class TestEvents:
    def test_activity_window(self):
        ev = SiteOutage(site=1, start_s=2.0, duration_s=3.0)
        assert not ev.active_at(1.9)
        assert ev.active_at(2.0)
        assert ev.active_at(4.9)
        assert not ev.active_at(5.0)

    def test_permanent_event(self):
        ev = SiteOutage(site=0, start_s=1.0)
        assert ev.end_s == float("inf")
        assert ev.active_at(1e9)

    def test_capacity_loss_rounding(self):
        ev = SiteCapacityLoss(site=0, fraction=0.5)
        assert ev.degraded_capacity(16) == 8
        assert SiteCapacityLoss(site=0, fraction=1.0).degraded_capacity(7) == 0

    def test_link_symmetry(self):
        ev = LinkDegradation(src=0, dst=2, bandwidth_factor=0.5)
        assert ev.affects(0, 2) and ev.affects(2, 0)
        one_way = LinkDegradation(src=0, dst=2, bandwidth_factor=0.5, symmetric=False)
        assert one_way.affects(0, 2) and not one_way.affects(2, 0)

    def test_flapping_phase(self):
        ev = FlappingLink(src=0, dst=1, period_s=1.0, down_fraction=0.4, start_s=0.0)
        assert ev.down_at(0.1)
        assert not ev.down_at(0.5)
        assert ev.down_at(1.2)  # periodic

    def test_dict_round_trip(self):
        events = [
            SiteOutage(site=3, start_s=1.0, duration_s=2.0),
            SiteCapacityLoss(site=0, fraction=0.25),
            LinkDegradation(src=0, dst=1, bandwidth_factor=0.1),
            LatencySpike(src=1, dst=2, extra_latency_s=0.05),
            FlappingLink(src=0, dst=3, period_s=2.0, down_fraction=0.3),
        ]
        for ev in events:
            clone = event_from_dict(ev.to_dict())
            assert clone == ev

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            event_from_dict({"kind": "meteor-strike"})


class TestSchedule:
    def test_json_round_trip(self, tmp_path):
        sched = FaultSchedule(
            events=(
                SiteOutage(site=1, start_s=5.0),
                LinkDegradation(src=0, dst=1, bandwidth_factor=0.2, start_s=1.0),
            )
        )
        path = tmp_path / "sched.json"
        sched.save(path)
        loaded = FaultSchedule.load(path)
        assert loaded == sched

    def test_capacities_and_down(self):
        caps = np.array([8, 8, 8], dtype=np.int64)
        sched = FaultSchedule(
            events=(
                SiteOutage(site=2, start_s=1.0),
                SiteCapacityLoss(site=0, fraction=0.5, start_s=1.0),
            )
        )
        before = sched.capacities_at(caps, 0.5)
        assert before.tolist() == [8, 8, 8]
        after = sched.capacities_at(caps, 2.0)
        assert after[0] == 4
        assert sched.sites_down(3, 2.0).tolist() == [False, False, True]

    def test_site_up_from(self):
        sched = FaultSchedule(
            events=(SiteOutage(site=0, start_s=1.0, duration_s=2.0),)
        )
        assert sched.site_up_from(0, 0.5) == 0.5
        assert sched.site_up_from(0, 1.5) == 3.0
        permanent = FaultSchedule(events=(SiteOutage(site=0, start_s=1.0),))
        assert permanent.site_up_from(0, 2.0) == float("inf")

    def test_link_factors_compose(self):
        sched = FaultSchedule(
            events=(
                LinkDegradation(
                    src=0, dst=1, bandwidth_factor=0.5, latency_factor=2.0
                ),
                LatencySpike(src=0, dst=1, extra_latency_s=0.1),
            )
        )
        lat_mult, lat_add, bw_mult = sched.link_factors(0, 1, 1.0)
        assert lat_mult == pytest.approx(2.0)
        assert lat_add == pytest.approx(0.1)
        assert bw_mult == pytest.approx(0.5)

    def test_validate_sites(self):
        sched = FaultSchedule(events=(SiteOutage(site=5, start_s=0.0),))
        with pytest.raises(ValueError, match="site"):
            sched.validate_sites(4)

    def test_random_schedule_deterministic(self):
        a = random_schedule(6, seed=42, num_events=5)
        b = random_schedule(6, seed=42, num_events=5)
        assert a == b
        c = random_schedule(6, seed=43, num_events=5)
        assert a != c


class TestBadScheduleText:
    """Bad schedule text is an ``InputError`` naming what is wrong, never a
    builtin ``RecursionError``/``ValueError``/``TypeError``."""

    @pytest.mark.parametrize(
        "text, match",
        [
            pytest.param("[" * 100000, "nests too deeply", id="deep-nesting"),
            pytest.param("[" + "7" * 5000 + "]", "not valid JSON", id="5000-digit-int"),
            ("[5]", "fault event must be an object, got int"),
            ('[{"kind": [1]}]', r"unknown fault kind \[1\]"),
            ('[{"kind": "site-outage", "start_s": {}}]', "start_s must be a number, got dict"),
            ('[{"kind": "site-outage", "start_s": NaN}]', "start_s must be finite, got nan"),
            ('[{"kind": "site-outage", "start_s": 1e400}]', "start_s must be finite, got inf"),
            ('[{"kind": "site-outage", "start_s": true}]', "start_s must be a number, got bool"),
            ('[{"kind": "site-outage", "duration_s": -Infinity}]', "duration_s must be finite"),
            ('[{"kind": "capacity-loss", "fraction": "0.5"}]', "fraction must be a number"),
            ('[{"kind": "link-degradation", "symmetric": 1}]', "symmetric must be a bool"),
            ('[{"kind": "latency-spike", "extra_latency_s": null}]', "extra_latency_s must be a number"),
            ('[{"kind": "flapping-link", "period_s": 1e999}]', "period_s must be finite"),
            ('[{"kind": "site-outage", "site": 1.5}]', "site must be an int"),
        ],
    )
    def test_is_an_input_error_naming_the_field(self, text, match):
        with pytest.raises(InputError, match=match):
            FaultSchedule.from_json(text)

    def test_non_utf8_file_is_an_input_error(self, tmp_path):
        path = tmp_path / "sched.json"
        path.write_bytes(b"\xff\xfe[")
        with pytest.raises(InputError, match="not valid JSON"):
            FaultSchedule.load(path)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_FIELDS = sorted({f for cls in EVENT_KINDS.values() for f in cls.__dataclass_fields__})
_EVENTS = st.lists(
    st.builds(
        lambda kind, fields: {"kind": kind, **fields},
        st.sampled_from(sorted(EVENT_KINDS)),
        st.dictionaries(st.sampled_from(_FIELDS), _JSON, max_size=4),
    ),
    max_size=3,
)


def _schedule_or_input_error(text):
    """A schedule that round-trips, or ``None`` for an ``InputError``; fast either way."""
    start = time.monotonic()
    try:
        sched = FaultSchedule.from_json(text)
    except InputError:
        sched = None
    assert time.monotonic() - start < 5.0
    if sched is not None:
        assert FaultSchedule.from_json(sched.to_json()) == sched
    return sched


class TestFuzzedScheduleText:
    @settings(max_examples=300, deadline=None)
    @given(st.text() | st.binary())
    def test_arbitrary_text(self, text):
        _schedule_or_input_error(text)

    @settings(max_examples=300, deadline=None)
    @given(_JSON)
    def test_arbitrary_json(self, doc):
        _schedule_or_input_error(json.dumps(doc))

    @settings(max_examples=300, deadline=None)
    @given(_EVENTS)
    def test_event_shaped_json(self, events):
        _schedule_or_input_error(json.dumps(events))
