"""Dynamic-efficiency invariants across applications and configurations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.stencil import StencilApplication, StencilConfig, StencilCostModel
from repro.dps.trace import TraceLevel
from repro.sim.efficiency import (
    dynamic_efficiency,
    mean_efficiency,
)
from repro.sim.modes import SimulationMode
from repro.sim.platform import PAPER_CLUSTER
from repro.sim.providers import CostModelProvider
from repro.sim.simulator import DPSSimulator


def run_stencil(
    n=64, stripes=4, iterations=4, threads=4, nodes=2, barrier=False,
    trace_level=TraceLevel.SUMMARY,
):
    cfg = StencilConfig(
        n=n, stripes=stripes, iterations=iterations, num_threads=threads,
        num_nodes=nodes, barrier=barrier, mode=SimulationMode.PDEXEC_NOALLOC,
    )
    model = StencilCostModel(PAPER_CLUSTER.machine, cfg.rows, cfg.n)
    sim = DPSSimulator(
        PAPER_CLUSTER,
        CostModelProvider(model, run_kernels=False),
        trace_level=trace_level,
    )
    return sim.run(StencilApplication(cfg))


class TestEfficiencyBounds:
    def test_phase_efficiencies_in_unit_interval(self):
        result = run_stencil()
        for pe in dynamic_efficiency(result.run):
            assert 0.0 < pe.efficiency <= 1.0

    def test_mean_efficiency_in_unit_interval(self):
        result = run_stencil()
        assert 0.0 < mean_efficiency(result.run) <= 1.0

    def test_phase_intervals_partition_tail_of_run(self):
        result = run_stencil()
        intervals = result.run.phase_intervals()
        for (_, _, end_a), (_, start_b, _) in zip(intervals, intervals[1:]):
            assert end_a == pytest.approx(start_b)
        assert intervals[-1][2] == pytest.approx(result.run.makespan)

    def test_phase_work_sums_to_total_work(self):
        result = run_stencil(barrier=True)
        phase_work = sum(result.run.trace.phase_work.values())
        # Work before the first phase mark (start/load) is unattributed.
        assert phase_work <= result.run.total_work + 1e-12
        assert phase_work > 0.5 * result.run.total_work

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=10, deadline=None)
    def test_efficiency_bounded_for_any_shape(self, nodes, stripes):
        # The barrier variant separates iterations cleanly — the same
        # reason the paper computes Fig. 11 on the basic flow graph.
        result = run_stencil(
            n=64,
            stripes=stripes if 64 % stripes == 0 else 4,
            iterations=3,
            threads=max(nodes, 2),
            nodes=nodes,
            barrier=True,
        )
        for pe in dynamic_efficiency(result.run):
            assert 0.0 <= pe.efficiency <= 1.0 + 1e-12

    def test_pipelined_phase_efficiency_is_approximate(self):
        """With pipelining, work tagged 'iter k' can spill past the phase
        boundary, so per-phase efficiency may exceed 1 — the reason the
        paper's Fig. 11 uses the basic (barrier) flow graph."""
        result = run_stencil(n=64, stripes=2, iterations=3, threads=2, nodes=1)
        values = [pe.efficiency for pe in dynamic_efficiency(result.run)]
        assert all(v <= 1.25 for v in values)  # bounded, but not by 1.0
        # Whole-run efficiency remains a true ratio.
        assert mean_efficiency(result.run) <= 1.0


class TestMoreNodesLowerEfficiency:
    def test_fixed_work_more_nodes_less_efficient(self):
        """Amdahl in action: the same stencil on more nodes wastes more."""
        eff2 = mean_efficiency(run_stencil(threads=2, nodes=2).run)
        eff4 = mean_efficiency(run_stencil(threads=4, nodes=4).run)
        assert eff4 < eff2
