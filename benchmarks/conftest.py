"""Benchmark-suite configuration.

The ``bench_*.py`` scripts run full-size (n = 2592) experiments under
PDEXEC+NOALLOC, so each costs seconds of host time.  The
measured-vs-predicted pairs behind Figs. 8-13 are not pytest benches:
``benchmarks/fidelity.py`` regenerates and checks them against
``FIDELITY.json``.
"""
