"""Benchmark of quotbilin: seeded workloads, answer checks and traced per-layer timings."""
