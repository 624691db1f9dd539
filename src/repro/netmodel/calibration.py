"""Latency/bandwidth characterization of a network model.

The paper states that the latency and bandwidth parameters "must be measured
or estimated separately for each target parallel machine".  This module
implements the classic characterization experiment *against any
NetworkModel implementation*: small-message ping timings estimate ``l`` and
large-message streaming estimates ``b``; a least-squares fit of
``t(s) = l + s/b`` recovers both.  Running it against the testbed's
:class:`~repro.netmodel.packet.PacketNetwork` produces the parameters one
would feed the simulator for that "machine" — exactly the workflow a user of
the paper's system follows on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.des.kernel import Kernel
from repro.netmodel.base import NetworkModel
from repro.netmodel.params import NetworkParams

#: Factory building a fresh model on a fresh kernel for each probe.
ModelFactory = Callable[[Kernel], NetworkModel]


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a network characterization run."""

    latency: float
    bandwidth: float
    sizes: tuple[int, ...]
    times: tuple[float, ...]
    residual_rms: float

    def as_params(self) -> NetworkParams:
        """Package the fitted values as simulator-ready parameters."""
        return NetworkParams(latency=self.latency, bandwidth=self.bandwidth)


def _measure_once(factory: ModelFactory, size: int) -> float:
    kernel = Kernel()
    model = factory(kernel)
    done: list[float] = []
    model.submit(0, 1, float(size), lambda tr: done.append(kernel.now))
    kernel.run()
    if not done:
        raise RuntimeError("calibration transfer never completed")
    return done[0]


def calibrate(
    factory: ModelFactory,
    sizes: Sequence[int] = (0, 1024, 8 * 1024, 64 * 1024, 512 * 1024, 4 * 1024 * 1024),
    repetitions: int = 3,
) -> CalibrationResult:
    """Fit ``t = l + s/b`` over single-transfer timings of ``sizes``.

    ``repetitions`` timings are averaged per size, which matters for noisy
    models (the testbed network); deterministic models are unaffected.
    """
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2:
        raise ValueError("calibration needs at least two message sizes")
    import numpy as np

    mean_times = []
    for size in sizes:
        samples = [_measure_once(factory, size) for _ in range(max(1, repetitions))]
        mean_times.append(float(np.mean(samples)))
    xs = np.asarray(sizes, dtype=float)
    ys = np.asarray(mean_times, dtype=float)
    # Least squares for t = l + s * inv_b.
    design = np.column_stack([np.ones_like(xs), xs])
    (intercept, slope), *_ = np.linalg.lstsq(design, ys, rcond=None)
    latency = max(0.0, float(intercept))
    bandwidth = float("inf") if slope <= 0 else 1.0 / float(slope)
    fitted = latency + xs * (0.0 if np.isinf(bandwidth) else 1.0 / bandwidth)
    residual_rms = float(np.sqrt(np.mean((fitted - ys) ** 2)))
    return CalibrationResult(
        latency=latency,
        bandwidth=bandwidth,
        sizes=sizes,
        times=tuple(mean_times),
        residual_rms=residual_rms,
    )
