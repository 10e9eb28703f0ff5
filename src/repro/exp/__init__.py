"""Experiment harness: canonical scenarios, the profile->map->simulate
runner, improvement statistics, report formatting, and the
process-isolated sweep fabric (:mod:`repro.exp.fabric`).

Re-exports load on first use, so ``import repro.exp.fabric`` pulls in
neither the runner nor numpy.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".fabric": (
        "fabric", "ChaosConfig", "ChaosInjector", "FabricConfig", "FabricError",
        "FabricReport", "SweepFabric", "TaskSpec", "merge_shards", "write_sweep",
    ),
    ".robustness": ("RobustnessCell", "evaluate_robustness", "robustness_table"),
    ".heatmap": ("ascii_heatmap",),
    ".improvement": ("Summary", "baseline_reference", "improvement_pct", "summarize"),
    ".report": ("format_matrix_summary", "format_series", "format_table"),
    ".runner": ("RunResult", "build_problem", "run_comparison", "simulate_mapping"),
    ".scenarios": (
        "OVERHEAD_SCALES", "PAPER_CONSTRAINT_RATIO", "SIMULATION_SCALES", "Scenario",
        "default_mappers", "paper_ec2_scenario", "scale_scenario",
    ),
})

# The same names as imports, for type checkers and repro-lint's call graph.
# ruff reads neither the lazy table nor the __all__ it builds, so it
# would call these imports unused.
# ruff: noqa: F401
if TYPE_CHECKING:
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
    from .heatmap import ascii_heatmap
    from .improvement import Summary, baseline_reference, improvement_pct, summarize
    from .report import format_matrix_summary, format_series, format_table
    from .robustness import RobustnessCell, evaluate_robustness, robustness_table
    from .runner import RunResult, build_problem, run_comparison, simulate_mapping
    from .scenarios import (
        OVERHEAD_SCALES,
        PAPER_CONSTRAINT_RATIO,
        SIMULATION_SCALES,
        Scenario,
        default_mappers,
        paper_ec2_scenario,
        scale_scenario,
    )
