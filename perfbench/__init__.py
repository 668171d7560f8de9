"""Benchmark of the repro library: three end-to-end workloads."""
