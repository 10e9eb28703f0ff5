"""Unit tests for the MPIPP baseline."""

import numpy as np
import pytest

from repro.baselines import MPIPPMapper, RandomMapper
from repro.core import validate_assignment
from repro.core.cost import total_cost
from tests.conftest import make_problem


def test_feasible_and_respects_constraints(problem64):
    m = MPIPPMapper(restarts=1).map(problem64, seed=0)
    validate_assignment(problem64, m.assignment)
    pinned = problem64.constraints >= 0
    np.testing.assert_array_equal(m.assignment[pinned], problem64.constraints[pinned])


def test_beats_random_on_structured_problem(topo4):
    p = make_problem(64, topo4, seed=20, locality=0.8)
    mpipp = MPIPPMapper().map(p, seed=0)
    rnd = [RandomMapper().map(p, seed=s).cost for s in range(10)]
    assert mpipp.cost < np.mean(rnd)


def test_refinement_never_hurts_the_coarse_view(topo4):
    """The final mapping should cost no more (on the coarse view MPIPP
    optimizes) than the raw partition it started from."""
    p = make_problem(32, topo4, seed=21, locality=0.5)
    mapper = MPIPPMapper(restarts=1)
    coarse = mapper._coarse_problem(p)
    rng = np.random.default_rng(0)
    from repro.baselines.kway import kway_partition
    from repro.baselines.mpipp import _part_sizes

    labels = kway_partition(p.CG, _part_sizes(p), seed=rng)
    refined, passes = mapper._refine(coarse, labels.astype(np.int64))
    assert total_cost(coarse, refined) <= total_cost(coarse, labels) + 1e-9
    assert 1 <= passes <= mapper.max_passes


def test_coarse_problem_is_two_level_symmetric(problem64):
    coarse = MPIPPMapper()._coarse_problem(problem64)
    lt = coarse.LT
    off = ~np.eye(4, dtype=bool)
    assert np.unique(lt[off]).size == 1
    assert np.unique(np.diagonal(lt)).size == 1
    np.testing.assert_allclose(lt, lt.T)


def test_geo_aware_variant_no_worse_on_true_cost(topo4):
    p = make_problem(48, topo4, seed=22, locality=0.7)
    plain = MPIPPMapper(restarts=2).map(p, seed=0)
    aware = MPIPPMapper(restarts=2, geo_aware=True).map(p, seed=0)
    assert aware.cost <= plain.cost * 1.10  # geo-aware should be competitive


def test_part_sizes_slack_capacity(topo4):
    """With more nodes than processes, sizes stay proportional & feasible."""
    from repro.baselines.mpipp import _part_sizes

    p = make_problem(40, topo4, seed=23)  # 64 nodes, 40 processes
    sizes = _part_sizes(p)
    assert sizes.sum() == 40
    assert np.all(sizes <= p.capacities)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        MPIPPMapper(max_passes=0)
    with pytest.raises(ValueError):
        MPIPPMapper(restarts=0)
