"""Benchmark for prodcodes: end-to-end workloads timed from outside the
program, plus a traced mode that attributes time to the program's layers.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; ``BENCHMARK.json`` lists the workloads and metrics.
"""
