"""Duration providers: direct execution and partial direct execution.

Paper, section 4: "the processing time of each atomic step can be recorded
through direct execution, and be used as its optimistic running time [...]
the prohibitive running time of direct execution simulation may be reduced
by passing an estimate of the computation time instead of performing the
actual computations.  We refer to this technique as partial direct
execution.  The time estimate is simply a number of microseconds, and may
thus come from any source."

Three provider families implement this:

* :class:`DirectExecutionProvider` — run the kernel for real on the
  simulation host, time it, scale host seconds to target seconds.
* :class:`CostModelProvider` — PDEXEC: durations come from a
  :class:`CostModel`; kernels optionally still run (so results can be
  verified) or are skipped entirely (NOALLOC).
* :class:`MeasureFirstNProvider` — the paper's hybrid: "we may measure the
  running times of the first n instances of an operation, and reuse the
  averaged measure for the remaining instances."
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Mapping, Optional

from repro.cpumodel.machines import MachineProfile
from repro.dps.operations import Compute, KernelSpec, OperationContext
from repro.dps.runtime import DurationProvider
from repro.errors import CostModelError
from repro.util.validation import check_positive


# --------------------------------------------------------------------------
# cost models (PDEXEC duration sources)
# --------------------------------------------------------------------------


class CostModel:
    """Maps a :class:`KernelSpec` to an estimated duration in seconds."""

    def duration(self, spec: KernelSpec) -> float:
        raise NotImplementedError


class MachineCostModel(CostModel):
    """Analytic model: flops over the machine profile's sustained rate.

    ``rate_factors`` applies per-kernel multiplicative corrections — the
    calibration produced by benchmarking kernels on the target machine
    (the paper's "benchmarked times").  A factor above 1 means the kernel
    runs slower than the profile's plateau predicts.
    """

    def __init__(
        self,
        machine: MachineProfile,
        rate_factors: Optional[Mapping[str, float]] = None,
        fixed_costs: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.machine = machine
        self.rate_factors = dict(rate_factors or {})
        self.fixed_costs = dict(fixed_costs or {})

    def duration(self, spec: KernelSpec) -> float:
        """Profile-predicted seconds, with per-kernel calibration applied."""
        base = self.machine.seconds_for(spec.flops, spec.working_set)
        factor = self.rate_factors.get(spec.name, 1.0)
        fixed = self.fixed_costs.get(spec.name, 0.0)
        return base * factor + fixed


# --------------------------------------------------------------------------
# providers
# --------------------------------------------------------------------------


class CostModelProvider(DurationProvider):
    """Partial direct execution: durations from a cost model.

    Parameters
    ----------
    cost_model:
        Duration source for every kernel.
    run_kernels:
        When True, the kernel function still executes (its wall time is
        ignored) so payloads stay correct and results can be verified —
        "it is also possible to combine direct execution and partial
        direct execution".  When False (NOALLOC), kernels never run and
        the generator receives ``None``.
    """

    def __init__(self, cost_model: CostModel, run_kernels: bool = False) -> None:
        self.cost_model = cost_model
        self.run_kernels = run_kernels
        self.evaluations = 0

    def evaluate(self, compute: Compute, ctx: OperationContext) -> tuple[float, Any]:
        """Model the duration; optionally still run the kernel for payloads."""
        self.evaluations += 1
        duration = self.cost_model.duration(compute.spec)
        if duration < 0.0:
            raise CostModelError(
                f"cost model produced negative duration for {compute.spec.name!r}"
            )
        result = None
        if self.run_kernels and compute.fn is not None:
            result = compute.fn(*compute.args)
        return duration, result


class HostCalibration:
    """Host-speed measurement used to scale direct-execution timings.

    Runs a reference double-precision matrix multiplication on the
    simulation host and compares it with the target machine profile's
    predicted time for the same kernel, yielding the host→target scale
    factor.  The reference size should match the application's typical
    kernel granularity (the LU app calibrates at its block size).
    """

    def __init__(self, machine: MachineProfile, reference_size: int = 216, repeats: int = 3) -> None:
        self.machine = machine
        self.reference_size = int(check_positive("reference_size", reference_size))
        r = self.reference_size
        import numpy as np

        rng = np.random.default_rng(12345)
        a = rng.standard_normal((r, r))
        b = rng.standard_normal((r, r))
        a @ b  # warm up BLAS threads and caches
        best = float("inf")
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            a @ b
            best = min(best, time.perf_counter() - t0)
        self.host_seconds = best
        flops = 2.0 * r**3
        working_set = 3.0 * 8.0 * r * r
        self.target_seconds = machine.seconds_for(flops, working_set)
        #: multiply host wall seconds by this to get target seconds
        self.scale = self.target_seconds / max(self.host_seconds, 1e-12)


class DirectExecutionProvider(DurationProvider):
    """Direct execution: run the kernel for real and time it.

    The host wall time of each kernel invocation, multiplied by the
    calibration scale, becomes the atomic step's optimistic duration on
    the target machine.  This reproduces the paper's portability caveat:
    predictions depend on the host/target speed ratio staying uniform
    across kernels, which PDEXEC removes (Table 1).
    """

    def __init__(self, calibration: HostCalibration, min_duration: float = 0.0) -> None:
        self.calibration = calibration
        self.min_duration = float(min_duration)
        self.evaluations = 0
        #: cumulative host seconds spent really executing kernels
        self.host_compute_seconds = 0.0

    def evaluate(self, compute: Compute, ctx: OperationContext) -> tuple[float, Any]:
        """Run the kernel for real; host wall time scaled to target seconds."""
        self.evaluations += 1
        if compute.fn is None:
            # Nothing to execute: framework-side handling charged at a
            # nominal modelled cost of zero host time.
            return self.min_duration, None
        t0 = time.perf_counter()
        result = compute.fn(*compute.args)
        host = time.perf_counter() - t0
        self.host_compute_seconds += host
        return max(self.min_duration, host * self.calibration.scale), result


class MeasureFirstNProvider(DurationProvider):
    """Measure the first ``n`` instances of each kernel, reuse the average.

    "For parallel programs that perform the same operations repeatedly, we
    may measure the running times of the first n instances of an
    operation, and reuse the averaged measure for the remaining
    instances." — paper, section 4.  Kernels are keyed by name plus their
    ``params`` (so e.g. gemm at different block sizes calibrate
    separately); once a key has ``n`` samples, subsequent invocations skip
    real execution entirely.

    With ``persist=True`` the sample tables survive the process the way
    the network-calibration fits do (:mod:`repro.analysis.benchcache`,
    managed by ``repro cache``): tables are keyed by the target machine
    profile plus ``n``, preloaded at construction so a repeated
    direct-execution run skips the warm-up measurements entirely
    (``preloaded`` counts the kernels restored), and written back whenever
    a kernel's table fills.
    """

    def __init__(
        self,
        direct: DirectExecutionProvider,
        n: int = 3,
        run_kernels_after: bool = False,
        persist: bool = False,
    ) -> None:
        if n < 1:
            raise CostModelError(f"MeasureFirstN requires n >= 1, got {n}")
        self.direct = direct
        self.n = n
        self.run_kernels_after = run_kernels_after
        self._samples: dict[Any, list[float]] = defaultdict(list)
        self.measured = 0
        self.reused = 0
        #: kernels whose full sample table was restored from disk
        self.preloaded = 0
        self._cache_key: Optional[str] = None
        if persist:
            from repro.analysis import benchcache

            self._cache_key = benchcache.cache_key(
                direct.calibration.machine, n
            )
            cached = benchcache.load(self._cache_key)
            if cached:
                for key, values in cached.items():
                    # Only complete tables short-circuit measurement;
                    # partial ones would skew the mean toward whichever
                    # run died early.
                    if len(values) >= n:
                        self._samples[key] = values[:n]
                        self.preloaded += 1

    @staticmethod
    def _key(spec: KernelSpec) -> Any:
        return (spec.name, tuple(sorted(spec.params.items())))

    def _persist(self) -> None:
        """Write back every full sample table (best-effort)."""
        from repro.analysis import benchcache

        assert self._cache_key is not None
        benchcache.store(
            self._cache_key,
            {k: v for k, v in self._samples.items() if len(v) >= self.n},
        )

    def evaluate(self, compute: Compute, ctx: OperationContext) -> tuple[float, Any]:
        """Measure until ``n`` samples exist for the key, then reuse the mean."""
        key = self._key(compute.spec)
        samples = self._samples[key]
        if len(samples) < self.n:
            duration, result = self.direct.evaluate(compute, ctx)
            samples.append(duration)
            self.measured += 1
            if self._cache_key is not None and len(samples) == self.n:
                self._persist()
            return duration, result
        self.reused += 1
        duration = sum(samples) / len(samples)
        result = None
        if self.run_kernels_after and compute.fn is not None:
            result = compute.fn(*compute.args)
        return duration, result
