"""Duration providers: cost models, direct execution, measure-first-n."""

import pytest

from repro.cpumodel.machines import ULTRASPARC_II_440
from repro.dps.operations import Compute, KernelSpec
from repro.errors import ConfigurationError
from repro.sim.providers import (
    CostModelProvider,
    DirectExecutionProvider,
    HostCalibration,
    MachineCostModel,
    MeasureFirstNProvider,
)

SPEC = KernelSpec("gemm", flops=2.0 * 64**3, working_set=3 * 8 * 64 * 64)


def test_machine_cost_model_matches_profile():
    m = MachineCostModel(ULTRASPARC_II_440)
    assert m.duration(SPEC) == pytest.approx(
        ULTRASPARC_II_440.seconds_for(SPEC.flops, SPEC.working_set)
    )


def test_machine_cost_model_rate_factors_and_fixed():
    m = MachineCostModel(
        ULTRASPARC_II_440, rate_factors={"gemm": 2.0}, fixed_costs={"gemm": 0.1}
    )
    base = ULTRASPARC_II_440.seconds_for(SPEC.flops, SPEC.working_set)
    assert m.duration(SPEC) == pytest.approx(2.0 * base + 0.1)


def test_cost_model_provider_skips_or_runs_kernels():
    calls = []
    compute = Compute(SPEC, lambda: calls.append(1) or "result")
    skip = CostModelProvider(MachineCostModel(ULTRASPARC_II_440))
    d, result = skip.evaluate(compute, None)
    assert result is None and not calls and d > 0
    run = CostModelProvider(MachineCostModel(ULTRASPARC_II_440), run_kernels=True)
    d2, result2 = run.evaluate(compute, None)
    assert result2 == "result" and calls == [1]
    assert d2 == pytest.approx(d)


def test_host_calibration_scale_positive():
    cal = HostCalibration(ULTRASPARC_II_440, reference_size=64, repeats=2)
    assert cal.host_seconds > 0
    assert cal.scale > 0
    assert cal.target_seconds == pytest.approx(
        ULTRASPARC_II_440.seconds_for(2.0 * 64**3, 3 * 8 * 64 * 64)
    )


def test_direct_execution_times_real_work():
    cal = HostCalibration(ULTRASPARC_II_440, reference_size=64, repeats=2)
    provider = DirectExecutionProvider(cal)

    def kernel():
        return sum(range(20000))

    duration, result = provider.evaluate(Compute(SPEC, kernel), None)
    assert result == sum(range(20000))
    assert duration > 0
    assert provider.host_compute_seconds > 0


def test_direct_execution_without_fn_costs_min_duration():
    cal = HostCalibration(ULTRASPARC_II_440, reference_size=64, repeats=1)
    provider = DirectExecutionProvider(cal, min_duration=1e-5)
    duration, result = provider.evaluate(Compute(SPEC, None), None)
    assert duration == 1e-5 and result is None


def test_measure_first_n_switches_to_average():
    cal = HostCalibration(ULTRASPARC_II_440, reference_size=64, repeats=1)
    provider = MeasureFirstNProvider(DirectExecutionProvider(cal), n=2)
    calls = []

    def kernel():
        calls.append(1)
        return len(calls)

    compute = Compute(SPEC, kernel)
    d1, r1 = provider.evaluate(compute, None)
    d2, r2 = provider.evaluate(compute, None)
    d3, r3 = provider.evaluate(compute, None)
    assert (r1, r2) == (1, 2)
    assert r3 is None  # kernel skipped after n samples
    assert len(calls) == 2
    assert d3 == pytest.approx((d1 + d2) / 2)
    assert provider.measured == 2 and provider.reused == 1


def test_measure_first_n_keys_by_params():
    cal = HostCalibration(ULTRASPARC_II_440, reference_size=64, repeats=1)
    provider = MeasureFirstNProvider(DirectExecutionProvider(cal), n=1)
    a = Compute(KernelSpec("k", flops=1, params={"r": 1}), lambda: 1)
    b = Compute(KernelSpec("k", flops=1, params={"r": 2}), lambda: 2)
    provider.evaluate(a, None)
    # Different params -> measured anew, not reused.
    _, result = provider.evaluate(b, None)
    assert result == 2
    assert provider.measured == 2


def test_measure_first_n_validation():
    cal = HostCalibration(ULTRASPARC_II_440, reference_size=64, repeats=1)
    with pytest.raises(ConfigurationError, match="n must be >= 1"):
        MeasureFirstNProvider(DirectExecutionProvider(cal), n=0)
