"""Mapping results, feasibility checks, and the mapper interface.

A :class:`Mapping` is the paper's vector P — ``assignment[i]`` is the site
hosting process i — together with its cost and provenance.  All mapping
algorithms (the paper's Geo-distributed method and the Baseline / Greedy /
MPIPP comparison methods) implement the :class:`Mapper` interface and
register themselves in a global registry so experiments can be configured
by name.  Reading the registry imports :mod:`repro.baselines` first, so
the comparison mappers are there whatever the caller imported.

:meth:`Mapper.map` is an explicit four-stage pipeline — feasibility →
solve → validate → cost — each stage wrapped in an observability span
(:mod:`repro.obs`), so a trace of any mapping run decomposes the paper's
"optimization overhead" scalar (Fig. 4) into where the time actually
went.  The solve stage lets :meth:`Mapper._solve` return per-algorithm
metadata alongside the assignment; it lands in :attr:`Mapping.meta`.
"""

from __future__ import annotations

import abc
import inspect
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .._validation import InputError
from .problem import UNCONSTRAINED, MappingProblem

__all__ = [
    "Mapping",
    "Mapper",
    "SolveResult",
    "FeasibilityError",
    "validate_assignment",
    "register_mapper",
    "get_mapper",
    "available_mappers",
]

#: What :meth:`Mapper._solve` may return: a bare (N,) assignment, or the
#: assignment plus a JSON-friendly metadata dict describing how the
#: algorithm got there (chosen group order, memo hits, accepted moves...).
SolveResult = np.ndarray | tuple[np.ndarray, dict]


class FeasibilityError(InputError):
    """Raised when an assignment violates capacities or constraints."""


def validate_assignment(problem: MappingProblem, assignment: np.ndarray) -> np.ndarray:  # repro-lint: disable=RPR003
    """Check P against Formula (5)'s two constraint families.

    This function *is* a validator (raising :class:`FeasibilityError`,
    an :class:`InputError`), hence the RPR003 suppression.

    1. pinned processes sit on their required site:
       ``(P - C) .* C == 0`` in the paper's component-wise notation;
    2. no site hosts more processes than it has nodes:
       ``count(j, P) <= I[j]``.

    Returns the assignment as int64 on success, raises
    :class:`FeasibilityError` otherwise.
    """
    n, m = problem.num_processes, problem.num_sites
    P = np.asarray(assignment)
    if P.shape != (n,):
        raise FeasibilityError(f"assignment must have shape ({n},), got {P.shape}")
    if P.dtype.kind not in "iu":
        raise FeasibilityError(f"assignment must be integer, got dtype {P.dtype}")
    P = P.astype(np.int64, copy=False)
    if np.any((P < 0) | (P >= m)):
        raise FeasibilityError("assignment references sites outside 0..M-1")

    pinned = problem.constraints != UNCONSTRAINED
    broken = pinned & (P != problem.constraints)
    if np.any(broken):
        raise FeasibilityError(
            f"data-movement constraints violated for processes "
            f"{np.flatnonzero(broken)[:10].tolist()}"
        )
    loads = np.bincount(P, minlength=m)
    over = loads > problem.capacities
    if np.any(over):
        raise FeasibilityError(
            f"site capacities exceeded at sites {np.flatnonzero(over).tolist()} "
            f"(loads {loads[over].tolist()} vs capacities "
            f"{problem.capacities[over].tolist()})"
        )
    return P


@dataclass(frozen=True)
class Mapping:
    """A feasible solution to a mapping problem.

    Attributes
    ----------
    assignment:
        (N,) site index per process (the paper's P).
    cost:
        COST(P) under the alpha-beta model, in seconds of link time.
    mapper:
        Name of the algorithm that produced it.
    elapsed_s:
        Wall-clock optimization time — the paper's "optimization overhead"
        (Fig. 4).
    meta:
        Per-algorithm solver metadata (e.g. the group order the Geo
        mapper chose and its memo hit counts).  Defensively copied, so a
        caller mutating the dict it passed in cannot change a frozen
        result after the fact.
    """

    assignment: np.ndarray
    cost: float
    mapper: str
    elapsed_s: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        arr = np.asarray(self.assignment, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError(f"assignment must be 1-D, got shape {arr.shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "assignment", arr)
        object.__setattr__(self, "meta", dict(self.meta))
        if not np.isfinite(self.cost):
            raise ValueError(f"cost must be finite, got {self.cost}")

    @property
    def num_processes(self) -> int:
        return self.assignment.shape[0]

    def site_loads(self, num_sites: int | None = None) -> np.ndarray:
        """Processes per site under this mapping."""
        m = num_sites if num_sites is not None else int(self.assignment.max()) + 1
        return np.bincount(self.assignment, minlength=m)

    def processes_on(self, site: int) -> np.ndarray:
        """Indices of the processes mapped to ``site``."""
        return np.flatnonzero(self.assignment == site)


class Mapper(abc.ABC):
    """Interface all mapping algorithms implement.

    Subclasses implement :meth:`_solve` returning a raw assignment — or
    ``(assignment, meta)`` where ``meta`` is a JSON-friendly dict of
    solver provenance — and the public :meth:`map` runs the four-stage
    pipeline (feasibility → solve → validate → cost), each stage under
    an observability span, so every algorithm reports comparable
    results *and* comparable traces.
    """

    #: Registry / display name; subclasses must override.
    name: str = "abstract"

    @abc.abstractmethod
    def _solve(self, problem: MappingProblem, rng: np.random.Generator) -> SolveResult:
        """Produce an (N,) site assignment for ``problem``.

        May instead return ``(assignment, meta)`` to surface solver
        metadata; :meth:`map` propagates the dict into
        :attr:`Mapping.meta`.
        """

    def map(
        self,
        problem: MappingProblem,
        *,
        seed: int | np.random.Generator | None = None,
    ) -> Mapping:
        """Solve ``problem`` and return a validated, costed :class:`Mapping`."""
        from .._validation import as_rng
        from ..obs import get_recorder
        from .constraints import ensure_feasible
        from .cost import total_cost

        obs = get_recorder()
        with obs.span(
            "mapper.map",
            mapper=self.name,
            num_processes=problem.num_processes,
            num_sites=problem.num_sites,
        ) as root:
            with obs.span("feasibility"):
                ensure_feasible(problem, context=self.name)
            rng = as_rng(seed)
            start = time.perf_counter()
            with obs.span("solve"):
                solved = self._solve(problem, rng)
            elapsed = time.perf_counter() - start
            if isinstance(solved, tuple):
                assignment, meta = solved
            else:
                assignment, meta = solved, {}
            with obs.span("validate"):
                try:
                    P = validate_assignment(problem, assignment)
                except FeasibilityError as exc:  # this mapper's bug, not bad input
                    raise RuntimeError(
                        f"mapper {self.name!r} returned an infeasible assignment: {exc}"
                    ) from exc
            with obs.span("cost"):
                cost = total_cost(problem, P)
            root.set(cost=cost, elapsed_s=elapsed)
            return Mapping(
                assignment=P,
                cost=cost,
                mapper=self.name,
                elapsed_s=elapsed,
                meta=meta,
            )


_REGISTRY: dict[str, Callable[..., Mapper]] = {}


def register_mapper(factory: Callable[..., Mapper] | type, name: str | None = None):
    """Register a mapper factory under a name (usable as a decorator)."""
    key = name or getattr(factory, "name", None)
    if not key or key == "abstract":
        raise ValueError("mapper must define a non-default 'name' to be registered")
    if key in _REGISTRY:
        raise ValueError(f"mapper {key!r} is already registered")
    _REGISTRY[key] = factory
    return factory


def _registry() -> dict[str, Callable[..., Mapper]]:
    """The registry with every built-in mapper in it.

    geodist and multilevel register when :mod:`repro.core` loads; the
    comparison mappers register when :mod:`repro.baselines` loads, which
    this imports on first read.
    """
    from .. import baselines  # noqa: F401

    return _REGISTRY


def get_mapper(name: str, **kwargs) -> Mapper:
    """Instantiate a registered mapper; a bad name or keyword raises InputError."""
    registry = _registry()
    if name not in registry:
        raise InputError(f"unknown mapper {name!r}; available: {sorted(registry)}")
    try:
        if kwargs:
            inspect.signature(registry[name]).bind(**kwargs)
    except TypeError as exc:
        raise InputError(f"mapper {name!r}: {exc}") from None
    return registry[name](**kwargs)


def available_mappers() -> list[str]:
    """Names of all registered mappers."""
    return sorted(_registry())

