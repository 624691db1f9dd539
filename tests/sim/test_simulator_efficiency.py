"""Simulator facade and dynamic-efficiency computation."""

from repro.apps.imgpipe import ImagePipelineApplication, ImagePipelineConfig
from repro.dps.trace import TraceLevel
from repro.netmodel.analytic import AnalyticNetwork
from repro.sim.efficiency import (
    dynamic_efficiency,
    mean_efficiency,
)
from repro.sim.platform import PAPER_CLUSTER
from repro.sim.providers import CostModelProvider, MachineCostModel
from repro.sim.simulator import DPSSimulator


def make_sim(trace_level=TraceLevel.SUMMARY, **kw):
    return DPSSimulator(
        PAPER_CLUSTER,
        CostModelProvider(MachineCostModel(PAPER_CLUSTER.machine)),
        trace_level=trace_level,
        **kw,
    )


def app(frames=4, threads=4, nodes=4):
    return ImagePipelineApplication(
        ImagePipelineConfig(frames=frames, tiles_per_frame=8, num_threads=threads, num_nodes=nodes)
    )


def test_simulation_returns_prediction_and_cost():
    res = make_sim().run(app())
    assert res.predicted_time > 0
    assert res.simulation_wall_time > 0
    assert res.events > 0
    assert res.simulation_peak_memory is None


def test_memory_measurement_optional():
    res = make_sim(measure_memory=True).run(app(frames=2))
    assert res.simulation_peak_memory is not None
    assert res.simulation_peak_memory_mb > 0


def test_simulation_is_deterministic():
    t1 = make_sim().run(app()).predicted_time
    t2 = make_sim().run(app()).predicted_time
    assert t1 == t2


def test_network_factory_override_changes_prediction():
    base = make_sim().run(app()).predicted_time
    no_contention = make_sim(network_factory=AnalyticNetwork).run(app()).predicted_time
    assert no_contention <= base


def test_faster_network_speeds_up_prediction():
    from repro.netmodel.params import GIGABIT_ETHERNET

    slow = make_sim().run(app()).predicted_time
    fast_platform = PAPER_CLUSTER.with_network(GIGABIT_ETHERNET)
    fast = DPSSimulator(
        fast_platform, CostModelProvider(MachineCostModel(fast_platform.machine))
    ).run(app()).predicted_time
    assert fast < slow


def test_dynamic_efficiency_series():
    res = make_sim().run(app(frames=6))
    series = dynamic_efficiency(res.run)
    assert len(series) == 6
    for pe in series:
        assert 0.0 <= pe.efficiency <= 1.0
        assert pe.mean_nodes == 4.0
    # The sink marks a phase per completed frame, so every interval but
    # the last (which ends exactly at the makespan) has positive width.
    for pe in series[:-1]:
        assert pe.duration > 0


def test_mean_efficiency_bounded():
    res = make_sim().run(app())
    eff = mean_efficiency(res.run)
    assert 0.0 < eff <= 1.0


def test_more_threads_lower_efficiency():
    """More parallelism on the same workload means lower efficiency."""
    small = make_sim().run(app(frames=6, threads=2, nodes=2))
    large = make_sim().run(app(frames=6, threads=8, nodes=8))
    assert mean_efficiency(large.run) < mean_efficiency(small.run)
    assert large.predicted_time < small.predicted_time
