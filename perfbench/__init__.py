"""The repository benchmark: workloads, correctness gate and tracing.

Entry point: ``python3 perfbench/run.py`` (see ``perfbench/README.md``).
"""
