"""The repository's benchmark: four workloads over the mapping stack.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; ``BENCHMARK.json``
names the workloads and metrics.
"""
