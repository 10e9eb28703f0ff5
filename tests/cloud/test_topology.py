"""Unit tests for topology realization."""

import numpy as np
import pytest

from repro.cloud import CloudTopology, Site, get_region, paper_topology


def test_paper_topology_shape(topo4):
    assert topo4.num_sites == 4
    assert topo4.total_nodes == 64
    np.testing.assert_array_equal(topo4.capacities, [16, 16, 16, 16])
    assert topo4.latency_s.shape == (4, 4)
    assert topo4.bandwidth_Bps.shape == (4, 4)
    assert topo4.instance_type.name == "m4.xlarge"


def test_matrices_are_asymmetric_with_jitter(topo4):
    # The paper notes LT/BT are asymmetric; jitter realizes that.
    assert not np.allclose(topo4.latency_s, topo4.latency_s.T)
    assert not np.allclose(topo4.bandwidth_Bps, topo4.bandwidth_Bps.T)


def test_observation1_holds_in_realized_matrices(topo4):
    bw = topo4.bandwidth_mbs
    intra = np.diagonal(bw)
    off = bw[~np.eye(4, dtype=bool)]
    assert intra.min() > off.max() * 4


def test_jitter_deterministic_and_seed_sensitive():
    a = paper_topology(seed=7)
    b = paper_topology(seed=7)
    c = paper_topology(seed=8)
    np.testing.assert_allclose(a.latency_s, b.latency_s)
    assert not np.allclose(a.latency_s, c.latency_s)


def test_zero_jitter_is_modelexact():
    t = paper_topology(seed=0, jitter=0.0)
    np.testing.assert_allclose(t.latency_s, t.latency_s.T, rtol=1e-12)


def test_repeated_regions_get_intra_links():
    t = CloudTopology.from_regions(
        ["us-east-1", "us-east-1"], 4, instance_type="m4.xlarge", jitter=0.0
    )
    # Two sites in the same region talk at intra-region performance.
    assert t.latency_s[0, 1] == pytest.approx(t.latency_s[0, 0])


def test_per_site_capacities():
    t = CloudTopology.from_regions(
        ["us-east-1", "eu-west-1"], [4, 12], instance_type="m4.xlarge"
    )
    np.testing.assert_array_equal(t.capacities, [4, 12])
    assert t.total_nodes == 16


def test_coordinates_match_catalog(topo4):
    use = get_region("us-east-1")
    np.testing.assert_allclose(
        topo4.coordinates[0], [use.location.latitude, use.location.longitude]
    )
    d = topo4.site_distances_km()
    assert d.shape == (4, 4)
    assert d[0, 1] > 1000


def test_validation_errors():
    with pytest.raises(ValueError, match="empty"):
        CloudTopology.from_regions([], 4)
    with pytest.raises(ValueError, match="entries for"):
        CloudTopology.from_regions(["us-east-1"], [1, 2])
    with pytest.raises(ValueError, match="jitter"):
        CloudTopology.from_regions(["us-east-1"], 4, jitter=1.5)
    with pytest.raises(ValueError):
        Site(index=-1, region=get_region("us-east-1"), capacity=4)
    with pytest.raises(ValueError):
        Site(index=0, region=get_region("us-east-1"), capacity=0)


def test_matrices_frozen(topo4):
    with pytest.raises(ValueError):
        topo4.latency_s[0, 0] = 1.0
