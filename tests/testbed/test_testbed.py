"""Testbed: ground-truth provider, reproducibility, bias structure."""

import pytest

from repro.apps.stencil import StencilApplication, StencilConfig
from repro.dps.operations import Compute, KernelSpec
from repro.testbed.cluster import VirtualCluster
from repro.testbed.executor import GroundTruthProvider, TestbedExecutor
from repro.testbed.noise import DEFAULT_KERNEL_BIAS, KernelBias, NoisySampler


def app():
    return StencilApplication(
        StencilConfig(n=64, stripes=8, iterations=3, num_threads=4, num_nodes=2)
    )


def test_measurement_reproducible_per_seed():
    a = TestbedExecutor(VirtualCluster(num_nodes=2, seed=7)).run(app()).measured_time
    b = TestbedExecutor(VirtualCluster(num_nodes=2, seed=7)).run(app()).measured_time
    assert a == b


def test_different_seeds_differ_slightly():
    a = TestbedExecutor(VirtualCluster(num_nodes=2, seed=1)).run(app()).measured_time
    b = TestbedExecutor(VirtualCluster(num_nodes=2, seed=2)).run(app()).measured_time
    assert a != b
    assert abs(a - b) / a < 0.10


def test_kernel_bias_factors():
    bias = KernelBias(factors={"gemm": 1.1}, default_factor=1.02)
    assert bias.factor("gemm") == 1.1
    assert bias.factor("anything") == 1.02
    assert DEFAULT_KERNEL_BIAS.factor("panel_lu") > 1.0


def test_noisy_sampler_seeded():
    a = [NoisySampler(3, 0.05).sample() for _ in range(4)]
    b = [NoisySampler(3, 0.05).sample() for _ in range(4)]
    assert a == b
    assert NoisySampler(3, 0.0).sample() == 1.0


def test_ground_truth_provider_applies_bias_and_noise():
    cluster = VirtualCluster(num_nodes=2, seed=0)
    provider = GroundTruthProvider(
        cluster, KernelBias(factors={"k": 2.0}, sigma=0.0), run_kernels=False
    )
    spec = KernelSpec("k", flops=1e6, working_set=1e5)
    duration, result = provider.evaluate(Compute(spec, None), None)
    expected = cluster.machine.seconds_for(1e6, 1e5) * 2.0
    assert duration == pytest.approx(expected)
    assert result is None


def test_ground_truth_runs_kernels_when_asked():
    cluster = VirtualCluster(num_nodes=2, seed=0)
    provider = GroundTruthProvider(cluster, run_kernels=True)
    spec = KernelSpec("gemm", flops=1.0)
    _, result = provider.evaluate(Compute(spec, lambda: 42), None)
    assert result == 42


def test_cluster_with_helpers():
    c = VirtualCluster(num_nodes=4, seed=1)
    assert c.with_nodes(8).num_nodes == 8
    assert c.with_seed(9).seed == 9
    assert c.with_nodes(8).machine is c.machine
