"""Benchmark of the fdda pipeline; ``python3 perfbench/run.py --help``."""
