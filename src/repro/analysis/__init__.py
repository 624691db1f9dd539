"""Analysis utilities: metrics, prediction errors, sweeps and rendering."""

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

