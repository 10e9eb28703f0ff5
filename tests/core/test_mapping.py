"""Unit tests for mappings, feasibility and the mapper registry."""

import sys

import numpy as np
import pytest

from repro._validation import InputError
from repro.core import constraints
from repro.core import (
    FeasibilityError,
    Mapper,
    Mapping,
    available_mappers,
    get_mapper,
    register_mapper,
    validate_assignment,
)

def test_validate_assignment_accepts_feasible(problem64):
    P = problem64.constraints.copy()
    free = np.flatnonzero(P == -1)
    # Fill free slots greedily by capacity.
    loads = np.bincount(P[P >= 0], minlength=4)
    site = 0
    for i in free:
        while loads[site] >= problem64.capacities[site]:
            site += 1
        P[i] = site
        loads[site] += 1
    out = validate_assignment(problem64, P)
    assert out.dtype == np.int64


def test_validate_assignment_rejects_constraint_violation(problem64):
    pinned = np.flatnonzero(problem64.constraints >= 0)
    assert pinned.size > 0
    P = np.repeat(np.arange(4), 16)
    i = pinned[0]
    P[i] = (problem64.constraints[i] + 1) % 4
    # Also make it capacity-feasible around the change is unnecessary:
    # constraint check fires first.
    with pytest.raises(FeasibilityError, match="constraints"):
        validate_assignment(problem64, P)


def test_validate_assignment_rejects_overfull_site(problem16):
    P = np.zeros(16, dtype=np.int64)  # all on site 0, capacity 16 holds
    out = validate_assignment(problem16, P)
    assert out is not None
    # 17 on one site would overflow, simulate with a wrong-shaped vector.
    with pytest.raises(FeasibilityError, match="shape"):
        validate_assignment(problem16, np.zeros(17, dtype=np.int64))


def test_validate_assignment_rejects_bad_values(problem16):
    with pytest.raises(FeasibilityError, match="sites outside"):
        validate_assignment(problem16, np.full(16, 9, dtype=np.int64))
    with pytest.raises(FeasibilityError, match="integer"):
        validate_assignment(problem16, np.zeros(16))


def test_mapping_is_immutable_and_validates():
    m = Mapping(assignment=np.array([0, 1, 1]), cost=3.5, mapper="test")
    with pytest.raises(ValueError):
        m.assignment[0] = 2
    assert m.num_processes == 3
    np.testing.assert_array_equal(m.site_loads(2), [1, 2])
    np.testing.assert_array_equal(m.processes_on(1), [1, 2])
    with pytest.raises(ValueError, match="finite"):
        Mapping(assignment=np.array([0]), cost=float("nan"), mapper="test")


def test_mapping_meta_is_defensively_copied():
    meta = {"order": [1, 0]}
    m = Mapping(assignment=np.array([0, 1]), cost=1.0, mapper="test", meta=meta)
    meta["order"] = "clobbered"
    meta["new"] = True
    assert m.meta == {"order": [1, 0]}


def test_mapper_map_propagates_solver_meta(problem16):
    class WithMeta(Mapper):
        name = "with-meta-test"

        def _solve(self, problem, rng):
            P = np.zeros(problem.num_processes, dtype=np.int64)
            return P, {"detail": 42}

    m = WithMeta().map(problem16, seed=0)
    assert m.meta == {"detail": 42}


def test_mapper_map_validates_and_times(problem16):
    class Constant(Mapper):
        name = "constant-test"

        def _solve(self, problem, rng):
            return np.zeros(problem.num_processes, dtype=np.int64)

    m = Constant().map(problem16, seed=0)
    assert m.mapper == "constant-test"
    assert m.elapsed_s >= 0.0
    assert m.cost > 0.0


def test_mapper_map_raises_on_infeasible_solution(problem64):
    class Broken(Mapper):
        name = "broken-test"

        def _solve(self, problem, rng):
            return np.zeros(problem.num_processes, dtype=np.int64)  # overfills site 0

    # The mapper's own output is at fault, not the caller's input.
    with pytest.raises(RuntimeError, match="mapper 'broken-test' returned an infeasible") as info:
        Broken().map(problem64)
    assert not isinstance(info.value, InputError)
    assert isinstance(info.value.__cause__, FeasibilityError)


def test_registry_contains_all_stock_mappers():
    names = available_mappers()
    for expected in ("baseline", "greedy", "mpipp", "geo-distributed", "monte-carlo"):
        assert expected in names


def test_get_mapper_constructs_and_rejects_unknown():
    mapper = get_mapper("geo-distributed", kappa=3)
    assert mapper.kappa == 3
    with pytest.raises(InputError, match="unknown mapper"):
        get_mapper("nope")


def test_register_rejects_duplicates_and_anonymous():
    class Dup(Mapper):
        name = "baseline"  # already registered

        def _solve(self, problem, rng):  # pragma: no cover
            raise NotImplementedError

    with pytest.raises(ValueError, match="already registered"):
        register_mapper(Dup, Dup.name)

    class Anon(Mapper):
        name = "abstract"

        def _solve(self, problem, rng):  # pragma: no cover
            raise NotImplementedError

    with pytest.raises(ValueError, match="non-default"):
        register_mapper(Anon)


@pytest.mark.parametrize("name", available_mappers())
def test_map_checks_feasibility_once(name, problem64, monkeypatch):
    """``Mapper.map`` runs the one feasibility check; ``_solve`` does not
    repeat it.  Calls on other problems (a multilevel mapper's inner
    solve on the coarse graph) are not counted."""
    original = constraints.ensure_feasible
    checked = []

    def counting(problem, *, context=""):
        checked.append(problem)
        original(problem, context=context)

    # Patch every binding of the function, including names imported by
    # value into mapper modules.
    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("repro"):
            if getattr(module, "ensure_feasible", None) is original:
                monkeypatch.setattr(module, "ensure_feasible", counting)
    get_mapper(name).map(problem64, seed=0)
    assert sum(p is problem64 for p in checked) == 1
