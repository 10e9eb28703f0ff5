"""Experiment harness: canonical scenarios, the profile->map->simulate
runner, improvement statistics, report formatting, and the
process-isolated sweep fabric (:mod:`repro.exp.fabric`).
"""

from .heatmap import ascii_heatmap
from .improvement import Summary, baseline_reference, improvement_pct, summarize
from .report import format_matrix_summary, format_series, format_table
from .robustness import (
    RobustnessCell,
    evaluate_robustness,
    robustness_table,
)
from .runner import (
    RunResult,
    build_problem,
    run_comparison,
    simulate_mapping,
)
from .scenarios import (
    OVERHEAD_SCALES,
    PAPER_CONSTRAINT_RATIO,
    SIMULATION_SCALES,
    Scenario,
    default_mappers,
    paper_ec2_scenario,
    scale_scenario,
)

# The fabric imports exp siblings (runner, scenarios, robustness), so it
# must come after them to avoid import cycles.
from . import fabric
from .fabric import (
    ChaosConfig,
    ChaosInjector,
    FabricConfig,
    FabricError,
    FabricReport,
    SweepFabric,
    TaskSpec,
    merge_shards,
    write_sweep,
)

__all__ = [
    "fabric",
    "ChaosConfig",
    "ChaosInjector",
    "FabricConfig",
    "FabricError",
    "FabricReport",
    "SweepFabric",
    "TaskSpec",
    "merge_shards",
    "write_sweep",
    "RobustnessCell",
    "evaluate_robustness",
    "robustness_table",
    "ascii_heatmap",
    "Summary",
    "baseline_reference",
    "improvement_pct",
    "summarize",
    "format_matrix_summary",
    "format_series",
    "format_table",
    "RunResult",
    "build_problem",
    "run_comparison",
    "simulate_mapping",
    "OVERHEAD_SCALES",
    "PAPER_CONSTRAINT_RATIO",
    "SIMULATION_SCALES",
    "Scenario",
    "default_mappers",
    "paper_ec2_scenario",
    "scale_scenario",
]
