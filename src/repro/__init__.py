"""repro — reproduction of *Efficient Process Mapping in Geo-Distributed
Cloud Data Centers* (Zhou, Gong, He, Zhai; SC'17).

The package provides:

* :mod:`repro.core` — the mapping problem model, cost engine, and the
  paper's Geo-distributed algorithm (Algorithm 1 with K-means grouping);
* :mod:`repro.baselines` — Baseline/Greedy/MPIPP/Monte-Carlo comparison
  mappers;
* :mod:`repro.cloud` — the geo-distributed cloud substrate calibrated to
  the paper's EC2/Azure measurements;
* :mod:`repro.simmpi` — a discrete-event MPI simulator, and the
  CYPRESS-style profiler that drains loops declared as data into CG/AG;
* :mod:`repro.apps` — the five evaluation workloads (LU, BT, SP,
  K-means, DNN) and synthetic patterns;
* :mod:`repro.exp` — the experiment harness regenerating every table and
  figure of the paper's evaluation.

Quickstart::

    from repro import paper_ec2_scenario, default_mappers, run_comparison

    scn = paper_ec2_scenario("LU")
    results = run_comparison(scn.app, scn.problem, default_mappers())
    for name, r in results.items():
        print(name, r.total_time_s)
"""

import os

# One OpenBLAS thread unless the caller set a value.  The cost kernels
# issue small GEMM/GEMV calls (one-hot site aggregation, batch cost)
# where OpenBLAS's thread pool is a cliff, not a speed-up: on a 2-vCPU
# VM the dense site aggregation at n=256 took 16 ms with the default
# threads and 0.15 ms with one, and the 1000-mapping dense batch cost at
# n=64 took 124 ms against 45 ms.  OpenBLAS reads the variable once,
# when numpy loads, so this runs before anything else in the package;
# fabric workers, pool solvers and bench scripts inherit it through
# os.environ.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from typing import TYPE_CHECKING

from ._lazy import lazy_exports

__version__ = "1.0.0"

# Every re-export loads on first use: ``import repro`` alone imports no
# submodule, and so neither numpy nor scipy.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "._validation": ("InputError",),
    ".apps": ("apps", "PAPER_APPS", "make_paper_app"),
    ".baselines": (
        "baselines", "GreedyMapper", "MonteCarloMapper", "MPIPPMapper", "RandomMapper",
    ),
    ".cloud": ("cloud", "CloudTopology", "NetworkModel", "paper_topology"),
    ".core": (
        "core", "GeoDistributedMapper", "Mapper", "Mapping", "MappingProblem",
        "available_mappers", "get_mapper", "random_constraints", "total_cost",
    ),
    ".exp": (
        "exp", "build_problem", "default_mappers", "paper_ec2_scenario",
        "run_comparison", "scale_scenario", "simulate_mapping",
    ),
    ".simmpi": ("simmpi",),
})
__all__ += ["__version__"]

# The same names as imports, for type checkers and for repro-lint's call
# graph, which follows re-exports through these import tables.
# ruff reads neither the lazy table nor the __all__ it builds, so it
# would call these imports unused.
# ruff: noqa: F401
if TYPE_CHECKING:
    from . import apps, baselines, cloud, core, exp, simmpi
    from ._validation import InputError
    from .apps import PAPER_APPS, make_paper_app
    from .baselines import GreedyMapper, MonteCarloMapper, MPIPPMapper, RandomMapper
    from .cloud import CloudTopology, NetworkModel, paper_topology
    from .core import (
        GeoDistributedMapper,
        Mapper,
        Mapping,
        MappingProblem,
        available_mappers,
        get_mapper,
        random_constraints,
        total_cost,
    )
    from .exp import (
        build_problem,
        default_mappers,
        paper_ec2_scenario,
        run_comparison,
        scale_scenario,
        simulate_mapping,
    )
