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


def test_events_attribute_removed():
    # The recorder keeps per-pair sums only; no per-message stream.
    tr = TraceRecorder(2)
    tr.record(0, 1, 5, 9)
    assert not hasattr(tr, "events")


def test_invalid_rank_count():
    with pytest.raises(ValueError):
        TraceRecorder(0)

