"""Simulated-annealing mapper (Bollinger & Midkiff, the paper's ref [8]).

The paper's related work cites simulated annealing as an accurate but
expensive way to solve process mapping.  This implementation provides
that reference point: a standard SA over the swap/move neighborhood,
powered by the exact O(N) incremental deltas of
:class:`~repro.core.cost.CostEvaluator`, with a geometric cooling
schedule and constraint/capacity-safe proposals.

It is not part of the paper's comparison set; it exists so the
repository can quantify how close the fast heuristics get to a
long-running stochastic search (see ``bench_ablation_annealing.py``).
"""

from __future__ import annotations

import numpy as np

from .._validation import InputError, check_positive_int, coerce
from ..core.cost import CostEvaluator, total_cost
from ..core.mapping import Mapper, register_mapper
from ..core.problem import UNCONSTRAINED, MappingProblem
from .random_mapping import random_assignment

__all__ = ["SimulatedAnnealingMapper"]


class SimulatedAnnealingMapper(Mapper):
    """Swap/move simulated annealing on the mapping cost.

    Parameters
    ----------
    steps:
        Proposal count.  Each proposal is a swap of two movable processes
        on different sites or, when slack capacity exists, a single move.
    initial_acceptance:
        Target acceptance probability of an average uphill proposal at
        the start; the initial temperature is calibrated from a short
        random-walk sample so the schedule adapts to the cost scale.
    final_temperature_ratio:
        Temperature decays geometrically to ``initial * ratio``.
    restarts:
        Independent annealing runs; the best end state wins.
    """

    name = "simulated-annealing"

    def __init__(
        self,
        *,
        steps: int = 20_000,
        initial_acceptance: float = 0.5,
        final_temperature_ratio: float = 1e-4,
        restarts: int = 1,
    ) -> None:
        self.steps = check_positive_int(steps, "steps")
        self.initial_acceptance = coerce(
            "initial_acceptance", float, initial_acceptance
        )
        if not 0.0 < self.initial_acceptance < 1.0:
            raise InputError(
                f"initial_acceptance must be in (0, 1), got {initial_acceptance}"
            )
        self.final_temperature_ratio = coerce(
            "final_temperature_ratio", float, final_temperature_ratio
        )
        if not 0.0 < self.final_temperature_ratio < 1.0:
            raise InputError(
                "final_temperature_ratio must be in (0, 1), "
                f"got {final_temperature_ratio}"
            )
        self.restarts = check_positive_int(restarts, "restarts")

    # ------------------------------------------------------------ internals

    def _calibrate_t0(
        self, ev: CostEvaluator, P: np.ndarray, movable: np.ndarray,
        rng: np.random.Generator,
    ) -> float:
        """Temperature making the mean uphill delta acceptable at the
        configured probability."""
        mv = np.flatnonzero(movable)
        if mv.size < 2:
            return 1.0
        uphill = []
        for _ in range(64):
            i, j = rng.choice(mv, size=2, replace=False)
            d = ev._swap_delta_unchecked(P, int(i), int(j))
            if d > 0:
                uphill.append(d)
        if not uphill:
            return 1.0
        mean_up = float(np.mean(uphill))
        return -mean_up / np.log(self.initial_acceptance)

    def _anneal(
        self, problem: MappingProblem, rng: np.random.Generator
    ) -> tuple[np.ndarray, float, dict]:
        ev = CostEvaluator(problem)
        P = random_assignment(problem, rng)
        cost = total_cost(problem, P)
        movable = problem.constraints == UNCONSTRAINED
        mv = np.flatnonzero(movable)
        stats = {"proposals": 0, "accepted_moves": 0, "accepted_swaps": 0}
        if mv.size < 2:
            return P, cost, stats

        t0 = self._calibrate_t0(ev, P, movable, rng)
        t_end = t0 * self.final_temperature_ratio
        decay = (t_end / t0) ** (1.0 / self.steps)

        loads = np.bincount(P, minlength=problem.num_sites)
        caps = problem.capacities

        best_P = P.copy()
        best_cost = cost
        temp = t0
        for _ in range(self.steps):
            # Propose: free-slot move (when available) or a swap.
            slack_sites = np.flatnonzero(loads < caps)
            use_move = slack_sites.size > 0 and rng.random() < 0.25
            if use_move:
                i = int(rng.choice(mv))
                s = int(rng.choice(slack_sites))
                if s == P[i]:
                    temp *= decay
                    continue
                stats["proposals"] += 1
                delta = ev._move_delta_unchecked(P, i, s)
                if delta <= 0 or rng.random() < np.exp(-delta / max(temp, 1e-300)):
                    loads[P[i]] -= 1
                    loads[s] += 1
                    P[i] = s
                    cost += delta
                    stats["accepted_moves"] += 1
            else:
                i, j = rng.choice(mv, size=2, replace=False)
                if P[i] == P[j]:
                    temp *= decay
                    continue
                stats["proposals"] += 1
                delta = ev._swap_delta_unchecked(P, int(i), int(j))
                if delta <= 0 or rng.random() < np.exp(-delta / max(temp, 1e-300)):
                    P[i], P[j] = P[j], P[i]
                    cost += delta
                    stats["accepted_swaps"] += 1
            if cost < best_cost:
                best_cost = cost
                best_P = P.copy()
            temp *= decay
        return best_P, best_cost, stats

    # ----------------------------------------------------------------- solve

    def _solve(
        self, problem: MappingProblem, rng: np.random.Generator
    ) -> tuple[np.ndarray, dict]:
        from ..obs import get_recorder

        obs = get_recorder()
        best_P: np.ndarray | None = None
        best_cost = np.inf
        meta = {
            "steps": self.steps,
            "restarts": self.restarts,
            "best_restart": -1,
            "proposals": 0,
            "accepted_moves": 0,
            "accepted_swaps": 0,
        }
        for restart in range(self.restarts):
            with obs.span("annealing.restart", index=restart) as sp:
                P, cost, stats = self._anneal(problem, rng)
                sp.set(cost=cost, **stats)
            for key, val in stats.items():
                meta[key] += val
            if cost < best_cost:
                best_cost = cost
                best_P = P
                meta["best_restart"] = restart
        if best_P is None:
            raise RuntimeError(
                f"annealing produced no mapping across {self.restarts} "
                "restart(s); this indicates a bug in the anneal loop"
            )
        return best_P, meta


register_mapper(SimulatedAnnealingMapper, SimulatedAnnealingMapper.name)
