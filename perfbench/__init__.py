"""Benchmark of the gscore package: see run.py for the command and metrics."""
