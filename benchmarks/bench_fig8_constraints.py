"""Figure 8: sensitivity to the data-movement constraint ratio.

Regenerates the paper's Fig. 8 — improvement of Geo-distributed over
*Greedy* for LU, K-means and DNN as the fraction of pinned processes
sweeps 0.2 .. 1.0.  The paper's observations: the curves decay to zero
at ratio 1.0 (the mapping is fully determined), LU/K-means decay slowly
at small ratios (concave), and DNN decays roughly linearly.

``test_fig8_multisite`` measures the paper's future-work extension in
the same setting: a process constrained to a *set* of two sites instead
of one.  It compares :class:`~repro.core.MultiSiteGeoMapper` with
geodist on the same problem where each set-constrained process is
pinned to one admissible site up front, which is all a single-site
constraint can express.
"""

import numpy as np

from repro.baselines import GreedyMapper
from repro._validation import as_rng
from repro.core import (
    UNCONSTRAINED,
    GeoDistributedMapper,
    MultiSiteGeoMapper,
    random_allowed_assignment,
    random_multisite_constraints,
)
from repro.exp import (
    format_series,
    improvement_pct,
    paper_ec2_scenario,
)

from _common import FULL_SCALE, emit

RATIOS = (0.2, 0.4, 0.6, 0.8, 1.0)
APPS = ("LU", "K-means", "DNN")
SEEDS = range(5) if FULL_SCALE else range(3)

_FAST = {
    "LU": dict(iterations=10),
    "K-means": dict(iterations=10),
    "DNN": dict(rounds=10),
}


def run_fig8() -> dict[str, list[float]]:
    out: dict[str, list[float]] = {a: [] for a in APPS}
    for app_name in APPS:
        for ratio in RATIOS:
            imps = []
            for seed in SEEDS:
                scn = paper_ec2_scenario(
                    app_name, constraint_ratio=ratio, seed=seed, **_FAST[app_name]
                )
                greedy = GreedyMapper().map(scn.problem, seed=seed)
                geo = GeoDistributedMapper().map(scn.problem, seed=seed)
                imps.append(improvement_pct(greedy.cost, geo.cost))
            out[app_name].append(float(np.mean(imps)))
    return out


def test_fig8_constraints(benchmark):
    table = benchmark.pedantic(run_fig8, rounds=1, iterations=1)

    emit(
        "fig8_constraints",
        format_series(
            "ratio",
            list(RATIOS),
            table,
            title="Figure 8: Geo improvement over Greedy (%) vs constraint ratio",
        ),
    )

    for app_name in APPS:
        series = table[app_name]
        # Fully pinned leaves nothing to optimize for either algorithm.
        assert abs(series[-1]) < 1e-6
        # Improvement at the paper's default ratio is positive.
        assert series[0] > 0.0
        # The trend decays: the start dominates the end.
        assert series[0] > series[-1]
        # Weak monotonicity along the sweep (small seed noise allowed).
        for a, b in zip(series, series[1:]):
            assert b <= a + 5.0


MULTISITE_RATIOS = (0.2, 0.4, 0.6, 0.8)


def run_fig8_multisite() -> dict[str, list[float]]:
    """Mean improvement (%) of two-site sets over pinning one of the sites."""
    out: dict[str, list[float]] = {a: [] for a in APPS}
    for app_name in APPS:
        for ratio in MULTISITE_RATIOS:
            imps = []
            for seed in SEEDS:
                problem = paper_ec2_scenario(
                    app_name, constraint_ratio=0.0, seed=seed, **_FAST[app_name]
                ).problem
                allowed = random_multisite_constraints(
                    problem.num_processes, problem.capacities, ratio,
                    sites_per_constraint=2, seed=seed,
                )
                sites = random_allowed_assignment(
                    allowed, problem.capacities, as_rng(seed)
                )
                restricted = ~allowed.all(axis=1)
                pinned = problem.with_constraints(
                    np.where(restricted, sites, UNCONSTRAINED)
                )
                # Both sides run flat Algorithm 1, so only the form of
                # the constraint differs.
                geo = GeoDistributedMapper(recursive=False).map(pinned, seed=seed)
                multi = MultiSiteGeoMapper(allowed).map(problem, seed=seed)
                imps.append(improvement_pct(geo.cost, multi.cost))
            out[app_name].append(float(np.mean(imps)))
    return out


def test_fig8_multisite(benchmark):
    table = benchmark.pedantic(run_fig8_multisite, rounds=1, iterations=1)

    emit(
        "fig8_multisite",
        format_series(
            "set ratio",
            list(MULTISITE_RATIOS),
            table,
            title=(
                "Figure 8 (multi-site): two-site sets over pinning one "
                "admissible site (%)"
            ),
        ),
    )

    # Keeping both sites open pays off on average at every point; single
    # seeds can lose a little, so only the mean is asserted.
    for app_name in APPS:
        assert all(imp > 0.0 for imp in table[app_name]), (app_name, table[app_name])
