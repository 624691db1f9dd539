"""The distributed LU application: all variants, both engines, verified."""

import pytest

from repro.apps.lu.app import LUApplication
from repro.apps.lu.config import LUConfig
from repro.apps.lu.costs import LUCostModel
from repro.dps.malleability import AllocationEvent, AllocationSchedule
from repro.errors import ConfigurationError
from repro.sim.modes import SimulationMode
from repro.sim.platform import PAPER_CLUSTER
from repro.sim.providers import CostModelProvider
from repro.sim.simulator import DPSSimulator
from repro.testbed.cluster import VirtualCluster
from repro.testbed.executor import TestbedExecutor

N, R = 96, 24  # 4 column blocks: fast but exercises every code path


def simulate(cfg: LUConfig):
    provider = CostModelProvider(
        LUCostModel(PAPER_CLUSTER.machine, cfg.r),
        run_kernels=cfg.mode.runs_kernels,
    )
    return DPSSimulator(PAPER_CLUSTER, provider).run(LUApplication(cfg))


VARIANTS = {
    "basic": {},
    "P": dict(pipelined=True),
    "FC": dict(flow_control=3),
    "P+FC": dict(pipelined=True, flow_control=3),
    "PM": dict(pm_subblock=12),
    "P+PM": dict(pipelined=True, pm_subblock=12),
    "P+PM+FC": dict(pipelined=True, pm_subblock=12, flow_control=3),
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_every_variant_verifies_under_simulator(variant):
    cfg = LUConfig(
        n=N, r=R, num_threads=4, num_nodes=2,
        mode=SimulationMode.PDEXEC, **VARIANTS[variant],
    )
    app = LUApplication(cfg)
    provider = CostModelProvider(
        LUCostModel(PAPER_CLUSTER.machine, cfg.r), run_kernels=True
    )
    res = DPSSimulator(PAPER_CLUSTER, provider).run(app)
    assert app.verify(res.runtime) < 1e-10
    assert res.predicted_time > 0
    # One phase marked per iteration.
    assert [p[1] for p in res.run.phases] == [f"iter{k}" for k in range(1, N // R + 1)]


@pytest.mark.parametrize("variant", ["basic", "P+FC", "PM"])
def test_every_variant_verifies_under_testbed(variant):
    cfg = LUConfig(
        n=N, r=R, num_threads=4, num_nodes=2,
        mode=SimulationMode.PDEXEC, **VARIANTS[variant],
    )
    app = LUApplication(cfg)
    m = TestbedExecutor(VirtualCluster(num_nodes=2, seed=3)).run(app)
    assert app.verify(m.runtime) < 1e-10


def test_noalloc_runs_without_payloads():
    cfg = LUConfig(
        n=N, r=R, num_threads=4, num_nodes=2, mode=SimulationMode.PDEXEC_NOALLOC
    )
    res = simulate(cfg)
    assert res.predicted_time > 0


def test_noalloc_predicts_same_time_as_alloc():
    """NOALLOC changes memory, not the predicted schedule."""
    base = dict(n=N, r=R, num_threads=4, num_nodes=2)
    t_alloc = simulate(LUConfig(mode=SimulationMode.PDEXEC, **base)).predicted_time
    t_noalloc = simulate(
        LUConfig(mode=SimulationMode.PDEXEC_NOALLOC, **base)
    ).predicted_time
    assert t_alloc == pytest.approx(t_noalloc, rel=1e-9)


def test_threads_can_exceed_nodes():
    cfg = LUConfig(
        n=N, r=R, num_threads=4, num_nodes=2, mode=SimulationMode.PDEXEC
    )
    app = LUApplication(cfg)
    res = simulate(cfg)
    # ok as long as it verifies; 2 threads per node
    app2 = LUApplication(
        LUConfig(n=N, r=R, num_threads=2, num_nodes=2, mode=SimulationMode.PDEXEC)
    )
    provider = CostModelProvider(
        LUCostModel(PAPER_CLUSTER.machine, R), run_kernels=True
    )
    res2 = DPSSimulator(PAPER_CLUSTER, provider).run(app2)
    assert app2.verify(res2.runtime) < 1e-10


def test_single_node_single_thread():
    cfg = LUConfig(n=N, r=R, num_threads=1, num_nodes=1, mode=SimulationMode.PDEXEC)
    app = LUApplication(cfg)
    provider = CostModelProvider(
        LUCostModel(PAPER_CLUSTER.machine, R), run_kernels=True
    )
    res = DPSSimulator(PAPER_CLUSTER, provider).run(app)
    assert app.verify(res.runtime) < 1e-10
    # Serial time approximates total work over the profile rate.
    assert res.predicted_time > 0


def test_removal_schedule_verifies_and_deallocates():
    sched = AllocationSchedule(
        events=(AllocationEvent("iter1", "workers", (2, 3)),), name="kill2@1"
    )
    cfg = LUConfig(
        n=N, r=R, num_threads=4, num_nodes=4,
        schedule=sched, mode=SimulationMode.PDEXEC,
    )
    app = LUApplication(cfg)
    provider = CostModelProvider(
        LUCostModel(PAPER_CLUSTER.machine, R), run_kernels=True
    )
    res = DPSSimulator(PAPER_CLUSTER, provider).run(app)
    assert app.verify(res.runtime) < 1e-10
    # Node allocation shrank from 4 to 2 mid-run.
    assert len(res.run.allocation_timeline) == 2
    assert res.run.allocation_timeline[-1][1] == frozenset({0, 1})


def test_staged_removal_verifies():
    sched = AllocationSchedule(
        events=(
            AllocationEvent("iter1", "workers", (3,)),
            AllocationEvent("iter2", "workers", (2,)),
        ),
        name="staged",
    )
    cfg = LUConfig(
        n=N, r=R, num_threads=4, num_nodes=4,
        schedule=sched, mode=SimulationMode.PDEXEC,
    )
    app = LUApplication(cfg)
    provider = CostModelProvider(
        LUCostModel(PAPER_CLUSTER.machine, R), run_kernels=True
    )
    res = DPSSimulator(PAPER_CLUSTER, provider).run(app)
    assert app.verify(res.runtime) < 1e-10
    assert res.run.allocation_timeline[-1][1] == frozenset({0, 1})


def test_removal_costs_time_but_not_much_late():
    """Removing after the heavy iterations barely hurts (paper Fig. 12)."""
    base = dict(n=N, r=R, num_threads=4, num_nodes=4, mode=SimulationMode.PDEXEC_NOALLOC)
    t_static = simulate(LUConfig(**base)).predicted_time
    late = AllocationSchedule(
        events=(AllocationEvent("iter3", "workers", (2, 3)),), name="late"
    )
    t_late = simulate(LUConfig(schedule=late, **base)).predicted_time
    assert t_late < 1.5 * t_static


def test_config_validation():
    with pytest.raises(ConfigurationError):
        LUConfig(n=100, r=24)  # r does not divide n
    with pytest.raises(ConfigurationError):
        LUConfig(n=96, r=24, num_threads=1, num_nodes=2)
    with pytest.raises(ConfigurationError):
        LUConfig(n=96, r=24, pm_subblock=7)
    with pytest.raises(ConfigurationError):
        LUConfig(n=96, r=24, pm_subblock=24)
    with pytest.raises(ConfigurationError):
        LUConfig(n=96, r=24, flow_control=0)


def test_variant_names():
    assert LUConfig(n=96, r=24).variant_name == "basic"
    assert (
        LUConfig(n=96, r=24, pipelined=True, flow_control=2, pm_subblock=12).variant_name
        == "P+PM+FC"
    )
