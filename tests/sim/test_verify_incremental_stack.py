"""Verify-mode shadow through the full simulator/testbed stacks.

Regression: the exact-equivalence shadow used to fire spuriously when a
completion callback crossed the network/CPU coupling mid-notification —
e.g. a finished compute step submitting a transfer, whose activity
notification forces a CPU power refresh *in the same rate assignment* as
the step's departure.  The allocator now applies pending membership deltas
and the refresh together and verifies once at the end, and the network
notifies listeners before completion callbacks, so a full application run
under ``verify_incremental=True`` must complete without divergence — and,
because the shadow assigns the full rates before comparing, on the
full-recompute trajectory the plain run has to match.
"""

import pytest

from repro.apps.lu.app import LUApplication
from repro.apps.lu.config import LUConfig
from repro.apps.lu.costs import LUCostModel
from repro.sim.modes import SimulationMode
from repro.sim.platform import PAPER_CLUSTER
from repro.sim.providers import CostModelProvider
from repro.sim.simulator import DPSSimulator
from repro.testbed.cluster import VirtualCluster
from repro.testbed.executor import TestbedExecutor


def _cfg() -> LUConfig:
    return LUConfig(
        n=648, r=216, num_threads=4, num_nodes=4,
        mode=SimulationMode.PDEXEC_NOALLOC,
    )


def _provider() -> CostModelProvider:
    return CostModelProvider(LUCostModel(PAPER_CLUSTER.machine, 216))


def _assert_shadowed(runtime) -> None:
    for model in (runtime.backend.network, runtime.backend.cpu):
        assert model.allocator.stats.verify_recomputes > 0


def test_simulator_stack_verify_incremental():
    """Equal-share network + shared CPU under the shadow check."""
    sim = DPSSimulator(PAPER_CLUSTER, _provider(), verify_incremental=True)
    verified = sim.run(LUApplication(_cfg()))
    plain = DPSSimulator(PAPER_CLUSTER, _provider()).run(LUApplication(_cfg()))
    _assert_shadowed(verified.runtime)
    assert plain.predicted_time == pytest.approx(verified.predicted_time, rel=1e-9)


def test_testbed_stack_verify_incremental():
    """Packet network + timeslice CPU under the shadow check."""
    cluster = VirtualCluster(num_nodes=4, seed=1)
    verified = TestbedExecutor(cluster, verify_incremental=True).run(
        LUApplication(_cfg())
    )
    plain = TestbedExecutor(cluster).run(LUApplication(_cfg()))
    _assert_shadowed(verified.runtime)
    assert plain.measured_time == pytest.approx(verified.measured_time, rel=1e-9)
