"""Command-level DRAM disturbance-mitigation simulator and analytical
security toolkit.

The package models per-row activation counting (aggressor- and
victim-based), the alert/back-off mitigation protocol, five mitigation
scheme presets, worst-case security analysis with threshold solvers, a
counter-subarray latency/energy model, and a deterministic single-bank
command engine — plus attack generators and a brute-force oracle that
cross-checks the analysis on small banks.
"""

__version__ = "0.1.0"
