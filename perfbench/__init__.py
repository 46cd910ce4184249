"""Benchmark for homshift; see perfbench/run.py."""
