"""Core of the reproduction: problem model, cost engine, and the paper's
Geo-distributed mapping algorithm.
"""

from .constraints import (
    constrained_sites_available,
    ensure_feasible,
    random_constraints,
)
from .cost import CostEvaluator, aggregate_site_traffic, total_cost
from .geodist import GeoDistributedMapper
from .grouping import KMeansResult, SiteGroup, group_sites, kmeans
from .multisite import (
    MultiSiteGeoMapper,
    allowed_from_constraints,
    multisite_feasible,
    random_allowed_assignment,
    random_multisite_constraints,
    validate_multisite_assignment,
)
from .loggp import (
    LOGGP_PROBE_SIZES,
    LogGPModel,
    LogGPParams,
    calibrate_loggp,
    loggp_transfer_time,
)
from .mapping import (
    FeasibilityError,
    Mapper,
    Mapping,
    available_mappers,
    get_mapper,
    register_mapper,
    validate_assignment,
)
from .multilevel import MultilevelMapper, contract, heavy_edge_matching
from .problem import (
    UNCONSTRAINED,
    CSRArrays,
    DenseMaterializationError,
    InfeasibleProblemError,
    MappingProblem,
    dense_materialize_limit,
)
from .repair import UNPLACED, IncrementalRepairMapper, RepairResult, repair_mapping

__all__ = [
    "constrained_sites_available",
    "ensure_feasible",
    "random_constraints",
    "CostEvaluator",
    "aggregate_site_traffic",
    "total_cost",
    "GeoDistributedMapper",
    "KMeansResult",
    "SiteGroup",
    "group_sites",
    "kmeans",
    "FeasibilityError",
    "Mapper",
    "Mapping",
    "available_mappers",
    "get_mapper",
    "register_mapper",
    "validate_assignment",
    "UNCONSTRAINED",
    "UNPLACED",
    "CSRArrays",
    "DenseMaterializationError",
    "dense_materialize_limit",
    "MultilevelMapper",
    "contract",
    "heavy_edge_matching",
    "InfeasibleProblemError",
    "IncrementalRepairMapper",
    "RepairResult",
    "repair_mapping",
    "MappingProblem",
    "LOGGP_PROBE_SIZES",
    "LogGPModel",
    "LogGPParams",
    "calibrate_loggp",
    "loggp_transfer_time",
    "MultiSiteGeoMapper",
    "allowed_from_constraints",
    "multisite_feasible",
    "random_allowed_assignment",
    "random_multisite_constraints",
    "validate_multisite_assignment",
]
