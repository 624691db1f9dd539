"""Analysis utilities: metrics, prediction errors, sweeps and rendering."""

import sys
from types import ModuleType

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "speedup": "repro.analysis.metrics",
        "performance_improvement": "repro.analysis.metrics",
        "relative_error": "repro.analysis.metrics",
        "PredictionRecord": "repro.analysis.prediction",
        "PredictionStudy": "repro.analysis.prediction",
        "ErrorHistogram": "repro.analysis.prediction",
        "SweepCase": "repro.analysis.sweep",
        "SweepResult": "repro.analysis.sweep",
        "run_lu_case": "repro.analysis.sweep",
        "sweep": "repro.analysis.sweep",
        "ParallelSweepRunner": "repro.analysis.parallel",
        "cached_platform": "repro.analysis.parallel",
        "clear_platform_cache": "repro.analysis.parallel",
        "ascii_table": "repro.analysis.tables",
        "ascii_bar_chart": "repro.analysis.tables",
        "ascii_histogram": "repro.analysis.tables",
        "node_lanes": "repro.analysis.timeline",
        "render_timeline": "repro.analysis.timeline",
        "phase_summary": "repro.analysis.timeline",
        "to_chrome_trace": "repro.analysis.export",
        "write_chrome_trace": "repro.analysis.export",
        "steps_to_csv": "repro.analysis.export",
        "transfers_to_csv": "repro.analysis.export",
        "NetworkSweepEntry": "repro.analysis.whatif",
        "KernelSpeedupEntry": "repro.analysis.whatif",
        "network_sweep": "repro.analysis.whatif",
        "kernel_speedup_study": "repro.analysis.whatif",
        "latency_bandwidth_grid": "repro.analysis.whatif",
        "render_network_sweep": "repro.analysis.whatif",
        "render_kernel_study": "repro.analysis.whatif",
        "render_grid": "repro.analysis.whatif",
    },
)


class _Package(ModuleType):
    """``sweep`` is a public function *and* a submodule: importing
    ``repro.analysis.sweep`` must not rebind the name to the module."""

    def __setattr__(self, name: str, value: object) -> None:
        if name == "sweep" and isinstance(value, ModuleType):
            value = value.sweep
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
