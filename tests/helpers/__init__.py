"""Measurement helpers shared by tests and benchmarks."""
