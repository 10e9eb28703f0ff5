"""Unit tests for the TreeMatch-style hierarchical mapper."""

import numpy as np

from repro.baselines import RandomMapper, TreeMatchMapper
from repro.core import MappingProblem, validate_assignment
from tests.conftest import make_problem


def test_feasible_and_respects_constraints(problem64):
    m = TreeMatchMapper().map(problem64, seed=0)
    validate_assignment(problem64, m.assignment)
    pinned = problem64.constraints >= 0
    np.testing.assert_array_equal(m.assignment[pinned], problem64.constraints[pinned])


def test_recovers_block_structure(topo4):
    """A block-diagonal pattern must agglomerate into one cluster per
    block, each landing on a single site."""
    n, block = 64, 16
    cg = np.zeros((n, n))
    for b in range(4):
        sl = slice(b * block, (b + 1) * block)
        cg[sl, sl] = 1e6
    np.fill_diagonal(cg, 0.0)
    ag = (cg > 0).astype(float)
    p = MappingProblem.from_topology(cg, ag, topo4)
    m = TreeMatchMapper().map(p, seed=0)
    for b in range(4):
        assert np.unique(m.assignment[b * block : (b + 1) * block]).size == 1


def test_beats_random_on_structured_problem(topo4):
    p = make_problem(64, topo4, seed=70, locality=0.8)
    tm = TreeMatchMapper().map(p, seed=0)
    rnd = [RandomMapper().map(p, seed=s).cost for s in range(10)]
    assert tm.cost < min(rnd)


def test_deterministic(problem64):
    a = TreeMatchMapper().map(problem64, seed=1)
    b = TreeMatchMapper().map(problem64, seed=2)  # no RNG dependence
    np.testing.assert_array_equal(a.assignment, b.assignment)


def test_slack_capacity(topo4):
    p = make_problem(40, topo4, seed=71, locality=0.5)
    m = TreeMatchMapper().map(p, seed=0)
    validate_assignment(p, m.assignment)


def test_uneven_capacities():
    from repro.cloud import CloudTopology

    topo = CloudTopology.from_regions(
        ["us-east-1", "eu-west-1", "ap-southeast-1"], [4, 8, 12], seed=0
    )
    p = make_problem(24, topo, seed=72, locality=0.6)
    m = TreeMatchMapper().map(p, seed=0)
    validate_assignment(p, m.assignment)


def test_registered():
    from repro.core import get_mapper

    assert get_mapper("treematch").name == "treematch"
