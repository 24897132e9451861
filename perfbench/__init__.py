"""Benchmark of the segrls command line; run ``python3 perfbench/run.py --help``."""
