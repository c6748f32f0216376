"""Repo benchmark: SQL-door latency, simulated cycles and per-layer wall time."""
