"""Benchmark harness for ltbp: workloads, output checks and a traced run.

Run it from the repository root:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 10 --trace 0

See perfbench/README.md for the workloads, metrics and the decisions behind
them.
"""
