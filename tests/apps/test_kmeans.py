"""Unit tests for the parallel K-means workload."""

import numpy as np
import pytest

from repro.apps import KMeansApp


def test_iterations_measured_by_real_solver():
    app = KMeansApp(16)
    assert app.iterations >= 4
    # Explicit override wins.
    fixed = KMeansApp(16, iterations=7)
    assert fixed.iterations == 7


def test_profile_includes_hypercube_and_shuffle():
    app = KMeansApp(16, iterations=8, shuffle_every=2, shuffle_peers=4)
    cg, ag, _ = app.profile()
    partners = np.flatnonzero(cg[5] + cg[:, 5])
    # Recursive doubling gives rank 5 partners 5^1=4, 5^2=7, 5^4=1, 5^8=13.
    for p in (4, 7, 1, 13):
        assert p in partners
    # Shuffles add peers beyond the hypercube.
    assert partners.size > 4


def test_pattern_is_complex_not_diagonal():
    """Unlike LU, a large share of K-means traffic is far off-diagonal."""
    app = KMeansApp(64, iterations=12)
    cg, _, _ = app.profile()
    i, j = np.nonzero(cg)
    far = np.abs(i - j) > 8
    assert cg[i[far], j[far]].sum() / cg.sum() > 0.3


def test_shuffle_sizes_are_skewed():
    app = KMeansApp(16, shuffle_peers=6)
    sizes = app.shuffle_sizes
    assert len(sizes) == 6
    assert sizes[0] > sizes[-1]  # zipf head heavier than tail


def test_shuffle_offsets_deterministic_and_valid():
    app = KMeansApp(32, shuffle_peers=5)
    a = app._shuffle_offsets(3)
    b = app._shuffle_offsets(3)
    assert a == b
    assert all(1 <= off < 32 for off in a)
    assert len(set(a)) == len(a)
    assert app._shuffle_offsets(4) != a  # rounds differ


def test_shuffle_offsets_drawn_once_per_app(monkeypatch):
    """All ranks share the per-round offsets; profiling draws none."""
    app = KMeansApp(32, iterations=8, shuffle_every=2, shuffle_peers=5)
    assert app.shuffle_offsets == [app._shuffle_offsets(r) for r in range(4)]
    calls = []
    monkeypatch.setattr(
        KMeansApp, "_shuffle_offsets", lambda self, r: calls.append(r) or []
    )
    app.profile()
    assert calls == []


def test_every_send_has_matching_receive():
    """The shuffle relation must be closed — simulation completes."""
    app = KMeansApp(24, iterations=6, shuffle_every=2)
    cg, ag, rec = app.profile()
    assert rec.total_messages > 0  # ran to completion without deadlock


def test_single_rank_degenerates_gracefully():
    app = KMeansApp(1, iterations=3)
    cg, ag, _ = app.profile()
    assert cg.sum() == 0


def test_reduce_payload_formula():
    app = KMeansApp(8, clusters=10, dims=4)
    assert app.reduce_bytes == 10 * 4 * 8 + 10 * 8


def test_validation():
    with pytest.raises(ValueError):
        KMeansApp(8, clusters=0)
    with pytest.raises(ValueError):
        KMeansApp(8, compute_per_point=-1.0)
    with pytest.raises(ValueError):
        KMeansApp(8, iterations=0)
