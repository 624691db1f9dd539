"""The parallel sample-sort application: kernels, all-to-all, accuracy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.sort import (
    SampleSortApplication,
    SampleSortConfig,
    SampleSortCostModel,
)
from repro.apps.sort.kernels import (
    choose_splitters,
    local_sort_spec,
    merge_runs_spec,
    partition_by_splitters,
    partition_spec,
    sample_sort_rate_factors,
)
from repro.errors import ConfigurationError, VerificationError
from repro.sim.modes import SimulationMode
from repro.sim.platform import PAPER_CLUSTER
from repro.sim.providers import CostModelProvider
from repro.sim.simulator import DPSSimulator
from repro.testbed.cluster import VirtualCluster
from repro.testbed.executor import TestbedExecutor


def make_sim(cfg: SampleSortConfig, run_kernels: bool = True) -> DPSSimulator:
    model = SampleSortCostModel(PAPER_CLUSTER.machine, cfg.block, cfg.num_threads)
    return DPSSimulator(
        PAPER_CLUSTER, CostModelProvider(model, run_kernels=run_kernels)
    )


# --------------------------------------------------------------------------
# kernels
# --------------------------------------------------------------------------


class TestSplitters:
    def test_count(self):
        samples = np.arange(100.0)
        assert choose_splitters(samples, 4).size == 3
        assert choose_splitters(samples, 1).size == 0

    def test_sorted_output(self):
        rng = np.random.default_rng(0)
        splitters = choose_splitters(rng.standard_normal(200), 8)
        assert np.all(np.diff(splitters) >= 0)

    def test_empty_samples(self):
        assert choose_splitters(np.empty(0), 4).size == 0

    @given(
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_splitters_within_sample_range(self, w, n, seed):
        samples = np.random.default_rng(seed).standard_normal(n)
        splitters = choose_splitters(samples, w)
        assert splitters.size == w - 1
        assert np.all(splitters >= samples.min())
        assert np.all(splitters <= samples.max())


class TestPartition:
    def test_partition_covers_block(self):
        block = np.sort(np.random.default_rng(1).standard_normal(100))
        splitters = choose_splitters(block, 4)
        runs = partition_by_splitters(block, splitters)
        assert len(runs) == 4
        np.testing.assert_array_equal(np.concatenate(runs), block)

    def test_partition_respects_splitters(self):
        block = np.sort(np.random.default_rng(2).standard_normal(64))
        splitters = np.array([-0.5, 0.5])
        low, mid, high = partition_by_splitters(block, splitters)
        assert np.all(low <= -0.5)
        assert np.all((mid > -0.5) & (mid <= 0.5))
        assert np.all(high > 0.5)

    @given(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_is_exact_cover(self, n, w, seed):
        block = np.sort(np.random.default_rng(seed).standard_normal(n))
        splitters = choose_splitters(block, w) if n else np.empty(0)
        runs = partition_by_splitters(block, splitters)
        assert sum(r.size for r in runs) == n
        if n:
            np.testing.assert_array_equal(np.concatenate(runs), block)


class TestSpecs:
    def test_sort_spec_superlinear(self):
        assert local_sort_spec(2000).flops > 2 * local_sort_spec(1000).flops

    def test_partition_spec_linear(self):
        assert partition_spec(2000, 4).flops == 2 * partition_spec(1000, 4).flops

    def test_merge_spec_grows_with_ways(self):
        assert merge_runs_spec(1000, 8).flops > merge_runs_spec(1000, 2).flops

    def test_rate_factors_cover_kernels(self):
        factors = sample_sort_rate_factors(PAPER_CLUSTER.machine, 1000, 4)
        assert set(factors) == {"local_sort", "partition", "merge_runs", "overhead"}


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------


class TestConfig:
    def test_block_sizes_sum_to_m(self):
        cfg = SampleSortConfig(m=103, num_threads=4, num_nodes=2)
        assert sum(cfg.block_size(i) for i in range(4)) == 103

    def test_too_few_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            SampleSortConfig(m=3, num_threads=4)

    def test_oversample_validated(self):
        with pytest.raises(ConfigurationError):
            SampleSortConfig(oversample=0)

    def test_threads_per_node_validated(self):
        with pytest.raises(ConfigurationError):
            SampleSortConfig(num_threads=2, num_nodes=4)


# --------------------------------------------------------------------------
# end-to-end
# --------------------------------------------------------------------------


def test_sorts_correctly_under_simulator():
    cfg = SampleSortConfig(m=4000, num_threads=4, num_nodes=2)
    app = SampleSortApplication(cfg)
    res = make_sim(cfg).run(app)
    app.verify()
    assert res.predicted_time > 0


def test_sorts_correctly_under_testbed():
    cfg = SampleSortConfig(m=4000, num_threads=4, num_nodes=2)
    app = SampleSortApplication(cfg)
    TestbedExecutor(VirtualCluster(num_nodes=2, seed=8)).run(app)
    app.verify()


def test_uneven_block_sizes_sort_correctly():
    cfg = SampleSortConfig(m=4001, num_threads=3, num_nodes=3)
    app = SampleSortApplication(cfg)
    make_sim(cfg).run(app)
    app.verify()


def test_single_worker():
    cfg = SampleSortConfig(m=500, num_threads=1, num_nodes=1)
    app = SampleSortApplication(cfg)
    make_sim(cfg).run(app)
    app.verify()


def test_skewed_input_still_sorts():
    """Heavily duplicated keys skew the partition sizes; correctness holds."""
    cfg = SampleSortConfig(m=3000, num_threads=4, num_nodes=2, seed=3)
    app = SampleSortApplication(cfg)
    rng = np.random.default_rng(3)
    app.data = np.round(rng.standard_normal(cfg.m) * 2).astype(float)
    make_sim(cfg).run(app)
    app.verify()


def test_noalloc_runs_and_predicts_close_to_allocating():
    common = dict(m=20000, num_threads=4, num_nodes=4)
    cfg_a = SampleSortConfig(**common)
    cfg_n = SampleSortConfig(mode=SimulationMode.PDEXEC_NOALLOC, **common)
    t_a = make_sim(cfg_a).run(SampleSortApplication(cfg_a)).predicted_time
    app_n = SampleSortApplication(cfg_n)
    t_n = make_sim(cfg_n, run_kernels=False).run(app_n).predicted_time
    # The uniform-run-size approximation holds for near-uniform data.
    assert t_n == pytest.approx(t_a, rel=0.05)
    with pytest.raises(VerificationError):
        app_n.verify()


def test_prediction_tracks_measurement():
    cfg = SampleSortConfig(m=200000, num_threads=4, num_nodes=4)
    app_m = SampleSortApplication(cfg)
    measured = TestbedExecutor(VirtualCluster(num_nodes=4, seed=6)).run(app_m)
    app_m.verify()
    predicted = make_sim(cfg).run(SampleSortApplication(cfg))
    error = predicted.predicted_time / measured.measured_time - 1.0
    assert abs(error) < 0.12


def test_more_workers_reduce_predicted_time():
    base = dict(m=1 << 17, mode=SimulationMode.PDEXEC_NOALLOC)
    cfg2 = SampleSortConfig(num_threads=2, num_nodes=2, **base)
    cfg8 = SampleSortConfig(num_threads=8, num_nodes=8, **base)
    t2 = make_sim(cfg2, run_kernels=False).run(SampleSortApplication(cfg2)).predicted_time
    t8 = make_sim(cfg8, run_kernels=False).run(SampleSortApplication(cfg8)).predicted_time
    assert t8 < t2


def test_all_to_all_transfer_count():
    """Every worker sends one run to every *other* node's workers."""
    from repro.dps.trace import TraceLevel

    cfg = SampleSortConfig(m=4000, num_threads=4, num_nodes=4)
    app = SampleSortApplication(cfg)
    model = SampleSortCostModel(PAPER_CLUSTER.machine, cfg.block, cfg.num_threads)
    sim = DPSSimulator(
        PAPER_CLUSTER,
        CostModelProvider(model, run_kernels=True),
        trace_level=TraceLevel.FULL,
    )
    res = sim.run(app)
    transfers = [t for t in res.run.trace.transfers if t.kind == "run"]
    # 4 workers x 3 remote destinations (the self-run stays local).
    assert len(transfers) == 12


def test_verify_without_run_raises():
    app = SampleSortApplication(SampleSortConfig())
    with pytest.raises(VerificationError):
        app.verify()
