"""Unit tests for trace recording (the CYPRESS-substitute profiler)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.simmpi import TraceRecorder


def test_accumulates_volumes_and_counts():
    tr = TraceRecorder(4)
    tr.record(0, 1, 100, 5)
    tr.record(0, 1, 50, 5)
    tr.record(2, 3, 10, 7)
    cg, ag = tr.communication_matrices()
    assert cg[0, 1] == 150 and ag[0, 1] == 2
    assert cg[2, 3] == 10 and ag[2, 3] == 1
    assert tr.total_messages == 3
    assert tr.total_bytes == 160
    assert tr.nonzero_pairs() == 2


def test_empty_recorder_gives_zero_matrices():
    tr = TraceRecorder(3)
    cg, ag = tr.communication_matrices()
    assert not sp.issparse(cg)
    assert cg.sum() == 0 and ag.sum() == 0


def test_dense_vs_sparse_threshold():
    tr = TraceRecorder(10)
    tr.record(0, 9, 42, 0)
    dense_cg, _ = tr.communication_matrices(dense_limit=100)
    sparse_cg, sparse_ag = tr.communication_matrices(dense_limit=5)
    assert isinstance(dense_cg, np.ndarray)
    assert sp.issparse(sparse_cg) and sp.issparse(sparse_ag)
    assert sparse_cg[0, 9] == 42


def test_sparse_empty():
    tr = TraceRecorder(300)
    cg, ag = tr.communication_matrices()
    assert sp.issparse(cg)
    assert cg.nnz == 0 and ag.nnz == 0


def test_event_streams_optional():
    tr = TraceRecorder(2, keep_events=True)
    tr.record(0, 1, 5, 9)
    tr.record(0, 1, 6, 9)
    assert tr.event_streams()[0] == [(1, 5, 9), (1, 6, 9)]
    assert tr.rank_events(0) == [(1, 5, 9), (1, 6, 9)]
    off = TraceRecorder(2)
    off.record(0, 1, 5, 9)
    assert off.event_streams()[0] == []


def test_events_attribute_removed():
    # The legacy ``events`` alias is gone; event_streams() is the one accessor.
    tr = TraceRecorder(2, keep_events=True)
    tr.record(0, 1, 5, 9)
    assert not hasattr(tr, "events")


def test_invalid_rank_count():
    with pytest.raises(ValueError):
        TraceRecorder(0)


def test_to_span_bridges_profile_onto_obs_schema():
    tr = TraceRecorder(3)
    tr.record(0, 1, 10, 0)
    tr.record(0, 1, 20, 0)
    tr.record(2, 0, 5, 1)
    span = tr.to_span()
    assert span.name == "profile.messages"
    assert span.attrs["num_ranks"] == 3
    assert span.counters == {"messages": 3, "bytes": 35, "pairs": 2}
    pairs = [e for e in span.events if e.name == "profile.pair"]
    assert [(e.attrs["src_rank"], e.attrs["dst_rank"]) for e in pairs] == [
        (0, 1),
        (2, 0),
    ]
    assert pairs[0].attrs["bytes"] == 30 and pairs[0].attrs["messages"] == 2
    # The profiler has no clock: the bridge span is closed at t == 0.
    assert span.t_start == 0.0 and span.t_end == 0.0


def test_to_span_does_not_leak_into_ambient_trace():
    from repro.obs import recording

    tr = TraceRecorder(2)
    tr.record(0, 1, 8, 0)
    with recording() as rec:
        with rec.span("outer"):
            bridged = tr.to_span()
    (outer,) = rec.roots
    assert outer.children == []  # the bridge built in its own context
    assert bridged.name == "profile.messages"


def test_write_trace_round_trips_through_obs_loader(tmp_path):
    from repro.obs import load_trace

    tr = TraceRecorder(2, keep_events=True)
    tr.record(0, 1, 16, 3)
    path = tr.write_trace(tmp_path / "profile.json")
    (root,) = load_trace(path)
    assert root.name == "profile.messages"
    assert root.counters["bytes"] == 16
    assert root.attrs["kept_events"] is True
