"""Small shared utilities: units, validation, RNG handling and statistics."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "KB": "repro.util.units",
        "MB": "repro.util.units",
        "GB": "repro.util.units",
        "MICROSECOND": "repro.util.units",
        "MILLISECOND": "repro.util.units",
        "SECOND": "repro.util.units",
        "format_bytes": "repro.util.units",
        "format_duration": "repro.util.units",
        "mbit_per_s": "repro.util.units",
        "mbyte_per_s": "repro.util.units",
        "check_finite": "repro.util.validation",
        "check_in_range": "repro.util.validation",
        "check_non_negative": "repro.util.validation",
        "check_positive": "repro.util.validation",
        "check_type": "repro.util.validation",
        "SeedSequenceFactory": "repro.util.rng",
        "derive_rng": "repro.util.rng",
        "OnlineStats": "repro.util.stats",
        "percentile": "repro.util.stats",
        "summarize": "repro.util.stats",
    },
)
