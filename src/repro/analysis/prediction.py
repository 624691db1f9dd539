"""Measured-vs-predicted bookkeeping and the Fig. 13 error histogram.

The paper reports, over its 168 measurements: "71.4% of all predictions
are within ±4% accuracy, 81.6% are within ±6% accuracy, and more than 95%
are within ±12% prediction accuracy."  :class:`PredictionStudy` accumulates
(measured, predicted) pairs across experiments and reproduces those summary
statistics and the histogram.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.analysis.metrics import relative_error


@dataclass(frozen=True)
class PredictionRecord:
    """One measured-vs-predicted pair, labelled by experiment."""

    label: str
    measured: float
    predicted: float

    @property
    def error(self) -> float:
        """Signed relative error of the prediction."""
        return relative_error(self.predicted, self.measured)


@dataclass
class ErrorHistogram:
    """Binned prediction errors (the Fig. 13 presentation)."""

    edges: tuple[float, ...]
    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def bins(self) -> list[tuple[float, float, int]]:
        """(low, high, count) triples."""
        return [
            (self.edges[i], self.edges[i + 1], self.counts[i])
            for i in range(len(self.counts))
        ]


class PredictionStudy:
    """Accumulates prediction records across experiments."""

    def __init__(self) -> None:
        self.records: list[PredictionRecord] = []

    def add(self, label: str, measured: float, predicted: float) -> PredictionRecord:
        """Record one comparison; returns the record."""
        record = PredictionRecord(label, float(measured), float(predicted))
        self.records.append(record)
        return record

    def extend(self, records: Iterable[PredictionRecord]) -> None:
        self.records.extend(records)

    # ------------------------------------------------------------- queries
    @property
    def errors(self) -> np.ndarray:
        """Signed relative errors of every record."""
        import numpy as np

        return np.array([r.error for r in self.records])

    def fraction_within(self, tolerance: float) -> float:
        """Fraction of predictions with ``|error| <= tolerance``."""
        if not self.records:
            return float("nan")
        import numpy as np

        errs = np.abs(self.errors)
        return float(np.mean(errs <= tolerance))

    def max_abs_error(self) -> float:
        """Largest absolute relative error."""
        if not self.records:
            return float("nan")
        import numpy as np

        return float(np.max(np.abs(self.errors)))

    def mean_abs_error(self) -> float:
        """Mean absolute relative error."""
        if not self.records:
            return float("nan")
        import numpy as np

        return float(np.mean(np.abs(self.errors)))

    def histogram(
        self, limit: float = 0.16, bin_width: float = 0.02
    ) -> ErrorHistogram:
        """Bin the errors like the paper's Fig. 13 (±16%, 2% bins)."""
        if bin_width <= 0 or limit <= 0:
            raise ValueError("limit and bin_width must be positive")
        import numpy as np

        nbins = int(round(2 * limit / bin_width))
        edges = np.linspace(-limit, limit, nbins + 1)
        clipped = np.clip(self.errors, -limit + 1e-12, limit - 1e-12)
        counts, _ = np.histogram(clipped, bins=edges)
        return ErrorHistogram(
            edges=tuple(float(e) for e in edges),
            counts=tuple(int(c) for c in counts),
        )

    def summary(self) -> dict[str, float]:
        """The paper's headline accuracy numbers."""
        return {
            "count": float(len(self.records)),
            "within_4pct": self.fraction_within(0.04),
            "within_6pct": self.fraction_within(0.06),
            "within_12pct": self.fraction_within(0.12),
            "mean_abs": self.mean_abs_error(),
            "max_abs": self.max_abs_error(),
        }


def validation_pair(
    label: str, lu_options: dict, seed: int = 1, events: Iterable[str] = ()
) -> tuple:
    """The paper's experiment on one LU configuration, as two scenarios.

    A ``testbed`` spec (the measurement) and a ``sim`` spec on the
    platform calibrated against that testbed (the prediction), both under
    PDEXEC+NOALLOC and both named ``label``.  ``repro sweep`` and
    ``benchmarks/fidelity.py`` build every pair here and run the list
    through :func:`~repro.analysis.parallel.run_records`.
    """
    from repro.scenario import (
        AppSection,
        EngineSection,
        PlatformSection,
        ScenarioSpec,
    )

    app = AppSection("lu", dict(lu_options))
    events = tuple(events)
    return (
        ScenarioSpec(
            name=label, app=app, events=events,
            engine=EngineSection("testbed", mode="noalloc", seed=seed),
        ),
        ScenarioSpec(
            name=label, app=app, events=events,
            engine=EngineSection("sim", mode="noalloc", seed=seed),
            platform=PlatformSection(calibrate=True),
        ),
    )
