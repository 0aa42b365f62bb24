"""End-to-end benchmark: one closed-loop client against a real server.

``python -m benchmarks.e2e`` spawns a :class:`repro.service.server.QueryServer`
in a subprocess, drives it over HTTP with the shipped ``ServiceClient``,
checks every answer and prints the metrics named in ``BENCHMARK.json``.
See ``README.md`` in this directory for workloads, metrics and method.
"""

from pathlib import Path

#: The checkout root (holds ``src/`` and ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parents[2]
#: Everything the benchmark writes (span files, temp data dirs) lands here.
OUT = Path(__file__).resolve().parent / "out"
