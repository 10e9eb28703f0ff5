"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-apps --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with tracing off and prints the end-to-end
metrics; ``--trace 1`` measures an untraced and a traced half and
prints the per-layer metrics, the where-the-time-goes table, and writes
the span forest under ``.perfbench/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-apps", "multilevel-sparse", "serve-mix", "robustness-sweep")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _load(workload: str):
    return importlib.import_module("perfbench." + workload.replace("-", "_"))


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _print_report(rep, traced: bool, steal: float | None) -> None:
    from perfbench.common import BLAS_THREADS

    host = "" if steal is None else f", host CPU steal {100 * steal:.1f}% of ticks"
    print(f"workload {rep.workload}: BLAS threads per process = {BLAS_THREADS}{host}")
    print(f"{'end-to-end metric':<18} {'value':>12} {'unit':<13} {'n':>5} {'IQR/med':>8}  note")
    for name, st in rep.e2e.items():
        sp = "-" if st.spread is None else f"{st.spread:.3f}"
        print(f"{name:<18} {_fmt(st.value):>12} {st.unit:<13} {st.samples:>5} {sp:>8}  {st.note}")
    error_frac = rep.failed / rep.attempted if rep.attempted else 1.0
    print(f"{'error_frac':<18} {_fmt(error_frac):>12} {'ratio':<13} {rep.attempted:>5}")
    if not traced:
        return
    from perfbench.layers import LAYER_METRICS

    print(f"{'per-layer metric':<30} {'value':>12} unit")
    for name, unit, _ in LAYER_METRICS:
        print(f"{name:<30} {_fmt(rep.layers[name]):>12} {unit}")
    if rep.stages:
        print(f"where the time goes ({rep.stage_total_name}, {rep.stage_total_s:.3f} s traced)")
        for stage, seconds in rep.stages:
            print(f"  {stage:<32} {seconds:>9.3f} s {100 * seconds / rep.stage_total_s:>6.1f}%")
    if rep.trace_path:
        print(f"trace written to {rep.trace_path}")


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from perfbench.common import HEADLINE, SRC, cpu_ticks, isolate_environment

    isolate_environment()  # before anything imports numpy
    sys.path.insert(0, str(SRC))
    from perfbench.layers import LAYER_METRICS, all_layers

    before = cpu_ticks()
    rep = _load(args.workload).run(args.seed, args.seconds, bool(args.trace))
    after = cpu_ticks()
    steal = None
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])
    if args.trace:
        rep.layers = all_layers(rep.layers)
    _print_report(rep, bool(args.trace), steal)
    for err in rep.errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    if args.trace:
        metrics = {
            name: {"value": rep.layers[name], "unit": unit} for name, unit, _ in LAYER_METRICS
        }
    else:
        metrics = {name: {"value": rep.e2e[name].value, "unit": rep.e2e[name].unit}
                   for name in HEADLINE}
    print(
        json.dumps(
            {
                "correct": rep.correct,
                "attempted": rep.attempted,
                "failed": rep.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if rep.correct else 1


if __name__ == "__main__":
    sys.exit(main())
