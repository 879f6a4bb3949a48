"""Benchmark of the blochvec positivity pipeline; run ``perfbench/run.py``."""
