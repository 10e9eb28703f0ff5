"""Unit tests for the Application base plumbing."""

import pytest
import scipy.sparse as sp

from repro._validation import InputError
from repro.apps import RingApp, grid_shape, make_paper_app, PAPER_APPS


def test_grid_shape_square_and_rectangular():
    assert grid_shape(64) == (8, 8)
    assert grid_shape(32) == (4, 8)
    assert grid_shape(12) == (3, 4)
    assert grid_shape(13) == (1, 13)
    assert grid_shape(1) == (1, 1)
    with pytest.raises(ValueError):
        grid_shape(0)


def test_profile_cache_is_reused():
    app = RingApp(8, iterations=2)
    a = app.communication_matrices()
    b = app.communication_matrices()
    assert a[0] is b[0]  # cached object identity


def test_make_paper_app_factory():
    for name in PAPER_APPS:
        app = make_paper_app(name, 16)
        assert app.num_ranks == 16
        assert app.name == name
    with pytest.raises(InputError, match="unknown paper app"):
        make_paper_app("CG")


def test_large_rank_profile_is_sparse():
    app = RingApp(300, iterations=1)
    cg, ag = app.communication_matrices()
    assert sp.issparse(cg) and sp.issparse(ag)
    assert cg.nnz == 600


@pytest.mark.parametrize("ranks", [8, 300], ids=["dense", "csr"])
def test_cached_profile_is_read_only(ranks):
    from repro.cloud import CloudTopology
    from repro.exp import build_problem

    app = RingApp(ranks, iterations=1)
    cg, ag = app.communication_matrices()
    assert sp.issparse(cg) == (ranks >= 256)
    for mat in (cg, ag):
        arrays = (mat.data, mat.indices, mat.indptr) if sp.issparse(mat) else (mat,)
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
    topology = CloudTopology.from_regions(
        ["us-east-1", "ap-southeast-1"], ranks, instance_type="m4.xlarge", seed=0
    )
    a = build_problem(app, topology, seed=3)
    b = build_problem(app, topology, seed=3)
    assert a.fingerprint() == b.fingerprint()
    for x, y in ((a.CG, b.CG), (a.AG, b.AG), (a.CG, cg), (a.AG, ag)):
        assert abs(x - y).max() == 0
