"""Parallel sample sort: all-to-all exchange over DPS flow graphs."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "SampleSortApplication": "repro.apps.sort.app",
        "SampleSortConfig": "repro.apps.sort.app",
        "SampleSortCostModel": "repro.apps.sort.kernels",
        "choose_splitters": "repro.apps.sort.kernels",
        "local_sort_spec": "repro.apps.sort.kernels",
        "merge_runs_spec": "repro.apps.sort.kernels",
        "partition_by_splitters": "repro.apps.sort.kernels",
        "partition_spec": "repro.apps.sort.kernels",
        "sample_sort_rate_factors": "repro.apps.sort.kernels",
    },
)
