"""Matrix multiplication (Fig. 7)."""

import pytest

from repro.apps.matmul import MatmulApplication, MatmulConfig
from repro.errors import ConfigurationError
from repro.sim.modes import SimulationMode
from repro.sim.platform import PAPER_CLUSTER
from repro.sim.providers import CostModelProvider, MachineCostModel
from repro.sim.simulator import DPSSimulator
from repro.testbed.cluster import VirtualCluster
from repro.testbed.executor import TestbedExecutor


def sim(run_kernels=True):
    return DPSSimulator(
        PAPER_CLUSTER,
        CostModelProvider(
            MachineCostModel(PAPER_CLUSTER.machine), run_kernels=run_kernels
        ),
    )


def test_matmul_verifies_under_simulator():
    app = MatmulApplication(MatmulConfig(n=96, s=24, num_threads=4, num_nodes=2))
    res = sim().run(app)
    assert app.verify() < 1e-10
    assert res.predicted_time > 0


def test_matmul_verifies_under_testbed():
    app = MatmulApplication(MatmulConfig(n=96, s=24, num_threads=4, num_nodes=2))
    TestbedExecutor(VirtualCluster(num_nodes=2, seed=1)).run(app)
    assert app.verify() < 1e-10


def test_matmul_noalloc_mode():
    app = MatmulApplication(
        MatmulConfig(n=96, s=24, mode=SimulationMode.PDEXEC_NOALLOC)
    )
    res = sim(run_kernels=False).run(app)
    assert res.predicted_time > 0
    with pytest.raises(Exception):
        app.verify()


def test_matmul_finer_blocks_more_transfers():
    coarse = MatmulApplication(MatmulConfig(n=96, s=48, num_threads=4, num_nodes=2))
    fine = MatmulApplication(MatmulConfig(n=96, s=12, num_threads=4, num_nodes=2))
    res_c = sim().run(coarse)
    res_f = sim().run(fine)
    assert res_f.run.trace.transfer_count > res_c.run.trace.transfer_count
    assert coarse.verify() < 1e-10 and fine.verify() < 1e-10


def test_matmul_config_validation():
    with pytest.raises(ConfigurationError):
        MatmulConfig(n=100, s=24)
    with pytest.raises(ConfigurationError):
        MatmulConfig(num_threads=1, num_nodes=2)


def test_matmul_more_nodes_faster():
    small = MatmulConfig(n=384, s=48, num_threads=2, num_nodes=2)
    large = MatmulConfig(n=384, s=48, num_threads=8, num_nodes=8)
    t_small = sim(run_kernels=False).run(MatmulApplication(small)).predicted_time
    t_large = sim(run_kernels=False).run(MatmulApplication(large)).predicted_time
    assert t_large < t_small
