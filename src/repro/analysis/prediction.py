"""Measured-vs-predicted bookkeeping: the Fig. 13 summary statistics.

The paper reports, over its 168 measurements: "71.4% of all predictions
are within ±4% accuracy, 81.6% are within ±6% accuracy, and more than 95%
are within ±12% prediction accuracy."  :class:`PredictionStudy` accumulates
(measured, predicted) pairs across experiments and reproduces those summary
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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


class PredictionStudy:
    """Accumulates prediction records across experiments."""

    def __init__(self) -> None:
        self.records: list[PredictionRecord] = []

    def add(self, label: str, measured: float, predicted: float) -> PredictionRecord:
        """Record one comparison; returns the record."""
        record = PredictionRecord(label, float(measured), float(predicted))
        self.records.append(record)
        return record

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
    label: str,
    options: dict,
    seed: int = 1,
    events: Iterable[str] = (),
    app: str = "lu",
) -> tuple:
    """The paper's experiment on one configuration, as two scenarios.

    A ``testbed`` spec (the measurement) and a ``sim`` spec on the
    platform calibrated against that testbed (the prediction) of ``app``
    with ``options``, both under PDEXEC+NOALLOC and both named ``label``.
    ``benchmarks/fidelity.py`` builds every pair here and runs the list
    through :func:`~repro.analysis.parallel.run_records`.
    """
    from repro.scenario import (
        AppSection,
        EngineSection,
        PlatformSection,
        ScenarioSpec,
    )

    app_section = AppSection(app, dict(options))
    events = tuple(events)
    return (
        ScenarioSpec(
            name=label, app=app_section, events=events,
            engine=EngineSection("testbed", mode="noalloc", seed=seed),
        ),
        ScenarioSpec(
            name=label, app=app_section, events=events,
            engine=EngineSection("sim", mode="noalloc", seed=seed),
            platform=PlatformSection(calibrate=True),
        ),
    )
