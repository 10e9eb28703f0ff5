"""repro — reproduction of *Efficient Process Mapping in Geo-Distributed
Cloud Data Centers* (Zhou, Gong, He, Zhai; SC'17).

The package provides:

* :mod:`repro.core` — the mapping problem model, cost engine, and the
  paper's Geo-distributed algorithm (Algorithm 1 with K-means grouping);
* :mod:`repro.baselines` — Baseline/Greedy/MPIPP/Monte-Carlo comparison
  mappers;
* :mod:`repro.cloud` — the geo-distributed cloud substrate calibrated to
  the paper's EC2/Azure measurements;
* :mod:`repro.simmpi` — a discrete-event MPI simulator with profiling
  and CYPRESS-style trace compression;
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
# when numpy loads, so this runs before any import below; fabric
# workers, pool solvers and bench scripts inherit it through os.environ.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import apps, baselines, cloud, core, exp, simmpi
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

__version__ = "1.0.0"

__all__ = [
    "apps",
    "baselines",
    "cloud",
    "core",
    "exp",
    "simmpi",
    "PAPER_APPS",
    "make_paper_app",
    "GreedyMapper",
    "MonteCarloMapper",
    "MPIPPMapper",
    "RandomMapper",
    "CloudTopology",
    "NetworkModel",
    "paper_topology",
    "GeoDistributedMapper",
    "Mapper",
    "Mapping",
    "MappingProblem",
    "available_mappers",
    "get_mapper",
    "random_constraints",
    "total_cost",
    "build_problem",
    "default_mappers",
    "paper_ec2_scenario",
    "run_comparison",
    "scale_scenario",
    "simulate_mapping",
    "__version__",
]
