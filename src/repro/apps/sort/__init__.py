"""Parallel sample sort: all-to-all exchange over DPS flow graphs."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "SampleSortApplication": "repro.apps.sort.app",
        "SampleSortConfig": "repro.apps.sort.app",
        "SampleSortCostModel": "repro.apps.sort.kernels",
    },
)
