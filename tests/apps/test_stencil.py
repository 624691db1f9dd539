"""The Jacobi stencil application: kernels, both variants, malleability."""

import numpy as np
import pytest

from repro.apps.stencil import (
    StencilApplication,
    StencilConfig,
    StencilCostModel,
)
from repro.apps.stencil.kernels import (
    initial_grid,
    jacobi_sweep,
    reference_jacobi,
    stencil_rate_factors,
)
from repro.dps.malleability import AllocationEvent, AllocationSchedule
from repro.errors import ConfigurationError, VerificationError
from repro.sim.modes import SimulationMode
from repro.sim.platform import PAPER_CLUSTER
from repro.sim.providers import CostModelProvider
from repro.sim.simulator import DPSSimulator
from repro.testbed.cluster import VirtualCluster
from repro.testbed.executor import TestbedExecutor


def make_sim(cfg: StencilConfig, run_kernels: bool = True) -> DPSSimulator:
    model = StencilCostModel(PAPER_CLUSTER.machine, cfg.rows, cfg.n)
    return DPSSimulator(PAPER_CLUSTER, CostModelProvider(model, run_kernels=run_kernels))


# --------------------------------------------------------------------------
# kernels
# --------------------------------------------------------------------------


class TestKernels:
    def test_reference_preserves_boundaries(self):
        grid = initial_grid(16, seed=3)
        out = reference_jacobi(grid, 5)
        np.testing.assert_array_equal(out[0], grid[0])
        np.testing.assert_array_equal(out[-1], grid[-1])
        np.testing.assert_array_equal(out[:, 0], grid[:, 0])
        np.testing.assert_array_equal(out[:, -1], grid[:, -1])

    def test_reference_zero_iterations_is_identity(self):
        grid = initial_grid(8)
        np.testing.assert_array_equal(reference_jacobi(grid, 0), grid)

    def test_reference_converges_towards_laplace(self):
        grid = initial_grid(16, seed=1)
        r_few = np.max(np.abs(reference_jacobi(grid, 11) - reference_jacobi(grid, 10)))
        r_many = np.max(np.abs(reference_jacobi(grid, 201) - reference_jacobi(grid, 200)))
        assert r_many < r_few

    def test_sweep_matches_reference_single_stripe(self):
        grid = initial_grid(12, seed=2)
        new, residual = jacobi_sweep(grid, None, None)
        np.testing.assert_allclose(new, reference_jacobi(grid, 1))
        assert residual == pytest.approx(np.max(np.abs(new - grid)))

    def test_striped_sweeps_match_full_sweep(self):
        grid = initial_grid(12, seed=4)
        full = reference_jacobi(grid, 1)
        stripes = np.split(grid, 4)
        rebuilt = []
        for i, stripe in enumerate(stripes):
            top = stripes[i - 1][-1] if i > 0 else None
            bottom = stripes[i + 1][0] if i < 3 else None
            rebuilt.append(jacobi_sweep(stripe, top, bottom)[0])
        np.testing.assert_allclose(np.vstack(rebuilt), full)

    def test_sweep_residual_zero_on_fixed_point(self):
        # A linear-in-row field is harmonic: one sweep leaves it unchanged.
        n = 8
        grid = np.tile(np.linspace(1.0, 0.0, n)[:, None], (1, n))
        new, residual = jacobi_sweep(grid, None, None)
        np.testing.assert_allclose(new, grid, atol=1e-15)
        assert residual < 1e-15

    def test_reference_rejects_non_2d(self):
        with pytest.raises(ConfigurationError):
            reference_jacobi(np.zeros(5), 1)

    def test_rate_factors_cover_kernels(self):
        factors = stencil_rate_factors(PAPER_CLUSTER.machine, 16, 64)
        assert set(factors) == {"jacobi", "overhead"}
        for value in factors.values():
            assert 0.9 < value < 1.2


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------


class TestConfig:
    def test_rows_and_sizes(self):
        cfg = StencilConfig(n=64, stripes=4)
        assert cfg.rows == 16
        assert cfg.stripe_bytes == 8.0 * 16 * 64
        assert cfg.halo_bytes == 8.0 * 64

    def test_stripes_must_divide_n(self):
        with pytest.raises(ConfigurationError):
            StencilConfig(n=64, stripes=5)

    def test_tiny_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            StencilConfig(n=2, stripes=1)

    def test_zero_iterations_rejected(self):
        with pytest.raises(ConfigurationError):
            StencilConfig(iterations=0)

    def test_schedule_requires_barrier(self):
        sched = AllocationSchedule(
            events=(AllocationEvent("iter1", "workers", (1,)),)
        )
        with pytest.raises(ConfigurationError):
            StencilConfig(barrier=False, schedule=sched)

    def test_schedule_cannot_remove_all_workers(self):
        sched = AllocationSchedule(
            events=(AllocationEvent("iter1", "workers", (0, 1, 2, 3)),)
        )
        with pytest.raises(ConfigurationError):
            StencilConfig(num_threads=4, barrier=True, schedule=sched)

    def test_schedule_group_must_be_workers(self):
        sched = AllocationSchedule(
            events=(AllocationEvent("iter1", "main", (0,)),)
        )
        with pytest.raises(ConfigurationError):
            StencilConfig(barrier=True, schedule=sched)

    def test_schedule_unknown_thread_rejected(self):
        sched = AllocationSchedule(
            events=(AllocationEvent("iter1", "workers", (9,)),)
        )
        with pytest.raises(ConfigurationError):
            StencilConfig(num_threads=4, barrier=True, schedule=sched)


# --------------------------------------------------------------------------
# end-to-end runs
# --------------------------------------------------------------------------


@pytest.mark.parametrize("barrier", [False, True])
def test_simulated_run_matches_sequential_reference(barrier):
    cfg = StencilConfig(
        n=48, stripes=4, iterations=4, num_threads=4, num_nodes=2, barrier=barrier
    )
    app = StencilApplication(cfg)
    res = make_sim(cfg).run(app)
    assert app.verify(res.runtime) == 0.0
    assert res.predicted_time > 0.0


@pytest.mark.parametrize("barrier", [False, True])
def test_testbed_run_matches_sequential_reference(barrier):
    cfg = StencilConfig(
        n=48, stripes=4, iterations=4, num_threads=4, num_nodes=2, barrier=barrier
    )
    app = StencilApplication(cfg)
    m = TestbedExecutor(VirtualCluster(num_nodes=2, seed=5)).run(app)
    assert app.verify(m.runtime) == 0.0


def test_single_stripe_run():
    cfg = StencilConfig(n=16, stripes=1, iterations=3, num_threads=1, num_nodes=1)
    app = StencilApplication(cfg)
    res = make_sim(cfg).run(app)
    assert app.verify(res.runtime) == 0.0


def test_more_stripes_than_threads():
    cfg = StencilConfig(n=48, stripes=8, iterations=3, num_threads=3, num_nodes=3)
    app = StencilApplication(cfg)
    res = make_sim(cfg).run(app)
    assert app.verify(res.runtime) == 0.0


def test_phases_mark_every_iteration():
    cfg = StencilConfig(n=32, stripes=4, iterations=5, num_threads=4, num_nodes=2)
    res = make_sim(cfg).run(StencilApplication(cfg))
    labels = [label for _, label in res.run.phases]
    assert labels == [f"iter{k}" for k in range(1, 6)]


def test_residuals_decrease_monotonically():
    cfg = StencilConfig(n=32, stripes=4, iterations=6, num_threads=4, num_nodes=2)
    app = StencilApplication(cfg)
    make_sim(cfg).run(app)
    residuals = [app.residuals[k] for k in range(1, 7)]
    assert all(r > 0 for r in residuals)
    # Jacobi on a diffusive field: updates shrink (weak monotonicity).
    assert residuals[-1] < residuals[0]


def test_pipelined_faster_than_barrier():
    """Halo exchange through gates avoids the per-iteration round trip
    through the main node, so the pipelined variant must win."""
    common = dict(n=96, stripes=8, iterations=6, num_threads=4, num_nodes=4)
    t = {}
    for barrier in (False, True):
        cfg = StencilConfig(barrier=barrier, **common)
        t[barrier] = make_sim(cfg, run_kernels=False).run(
            StencilApplication(cfg)
        ).predicted_time
    assert t[False] < t[True]


def test_noalloc_mode_runs_without_payloads():
    cfg = StencilConfig(
        n=48, stripes=4, iterations=4, mode=SimulationMode.PDEXEC_NOALLOC
    )
    app = StencilApplication(cfg)
    assert app.grid is None
    res = make_sim(cfg, run_kernels=False).run(app)
    assert res.predicted_time > 0.0
    with pytest.raises(VerificationError):
        app.verify(res.runtime)


def test_noalloc_predicts_same_time_as_allocating():
    common = dict(n=48, stripes=4, iterations=4, num_threads=4, num_nodes=2)
    cfg_a = StencilConfig(**common)
    cfg_n = StencilConfig(mode=SimulationMode.PDEXEC_NOALLOC, **common)
    t_a = make_sim(cfg_a).run(StencilApplication(cfg_a)).predicted_time
    t_n = make_sim(cfg_n, run_kernels=False).run(StencilApplication(cfg_n)).predicted_time
    assert t_n == pytest.approx(t_a, rel=1e-12)


def test_verify_before_run_raises():
    app = StencilApplication(StencilConfig())
    with pytest.raises(VerificationError):
        app.verify()


def test_prediction_tracks_measurement():
    """Simulator prediction within the paper's ±12% band of the testbed.

    Uses a compute-dominant granularity; at message-dominated sizes the
    model-granularity error grows, exactly as in the paper's coarse
    configurations.
    """
    cfg = StencilConfig(
        n=768,
        stripes=8,
        iterations=5,
        num_threads=4,
        num_nodes=4,
        mode=SimulationMode.PDEXEC_NOALLOC,
    )
    measured = TestbedExecutor(
        VirtualCluster(num_nodes=4, seed=9), run_kernels=False
    ).run(StencilApplication(cfg))
    predicted = make_sim(cfg, run_kernels=False).run(StencilApplication(cfg))
    error = predicted.predicted_time / measured.measured_time - 1.0
    assert abs(error) < 0.12


# --------------------------------------------------------------------------
# dynamic thread removal
# --------------------------------------------------------------------------


def kill_schedule(after: str, indices) -> AllocationSchedule:
    return AllocationSchedule(
        events=(AllocationEvent(after, "workers", tuple(indices)),),
        name=f"kill{len(tuple(indices))}@{after}",
    )


def test_removal_still_verifies():
    cfg = StencilConfig(
        n=48,
        stripes=8,
        iterations=5,
        num_threads=4,
        num_nodes=4,
        barrier=True,
        schedule=kill_schedule("iter2", (2, 3)),
    )
    app = StencilApplication(cfg)
    res = make_sim(cfg).run(app)
    assert app.verify(res.runtime) == 0.0


def test_removal_shrinks_allocation_timeline():
    cfg = StencilConfig(
        n=48,
        stripes=8,
        iterations=5,
        num_threads=4,
        num_nodes=4,
        barrier=True,
        schedule=kill_schedule("iter2", (2, 3)),
    )
    res = make_sim(cfg).run(StencilApplication(cfg))
    timeline = res.run.allocation_timeline
    assert len(timeline) == 2
    assert timeline[0][1] == frozenset({0, 1, 2, 3})
    assert timeline[1][1] == frozenset({0, 1})


def test_removal_slows_constant_work_app():
    """Stencil work per iteration is constant, so unlike LU's shrinking
    tail, halving the workers mid-run must cost running time (at a
    compute-dominant granularity)."""
    common = dict(
        n=2592,
        stripes=8,
        iterations=30,
        num_threads=4,
        num_nodes=4,
        barrier=True,
        mode=SimulationMode.PDEXEC_NOALLOC,
    )
    cfg_static = StencilConfig(**common)
    cfg_kill = StencilConfig(schedule=kill_schedule("iter5", (2, 3)), **common)
    t_static = make_sim(cfg_static, run_kernels=False).run(
        StencilApplication(cfg_static)
    ).predicted_time
    kill_res = make_sim(cfg_kill, run_kernels=False).run(
        StencilApplication(cfg_kill)
    )
    assert kill_res.predicted_time > t_static * 1.2
    # Within the kill run, iterations on 2 workers take visibly longer
    # than iterations on 4 workers.
    durations = {
        label: end - start for label, start, end in kill_res.run.phase_intervals()
    }
    assert durations["iter10"] > durations["iter4"] * 1.4


def test_staged_removal():
    cfg = StencilConfig(
        n=48,
        stripes=8,
        iterations=6,
        num_threads=4,
        num_nodes=4,
        barrier=True,
        schedule=AllocationSchedule(
            events=(
                AllocationEvent("iter2", "workers", (3,)),
                AllocationEvent("iter4", "workers", (2,)),
            ),
            name="staged",
        ),
    )
    app = StencilApplication(cfg)
    res = make_sim(cfg).run(app)
    assert app.verify(res.runtime) == 0.0
    assert len(res.run.allocation_timeline) == 3


def test_removal_under_testbed_verifies():
    cfg = StencilConfig(
        n=48,
        stripes=8,
        iterations=5,
        num_threads=4,
        num_nodes=4,
        barrier=True,
        schedule=kill_schedule("iter3", (2, 3)),
    )
    app = StencilApplication(cfg)
    m = TestbedExecutor(VirtualCluster(num_nodes=4, seed=2)).run(app)
    assert app.verify(m.runtime) == 0.0
