"""Benchmark-suite configuration.

The ``bench_*.py`` scripts time the cluster-server engines and the fault
layer.  The paper's claims are not pytest benches: Figs. 8-13, Table 1,
the model ablations, the other apps and the what-if studies are sections
of ``benchmarks/fidelity.py``, checked against ``FIDELITY.json``.
"""
