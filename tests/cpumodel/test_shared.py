"""Even-share CPU model and its coupling to the network."""

import typing

import pytest
from churn_driver import assert_matches_verify_run

from repro.cpumodel.commcost import CommCostModel, CommCostParams
from repro.cpumodel.shared import SharedCpuModel
from repro.errors import SimulationError
from repro.netmodel.params import NetworkParams
from repro.netmodel.star import EqualShareStarNetwork


def test_single_step_runs_at_full_power(kernel):
    cpu = SharedCpuModel(kernel)
    done = []
    cpu.submit(0, 2.0, lambda h: done.append(kernel.now))
    kernel.run()
    assert done == [pytest.approx(2.0)]


def test_two_steps_share_node_evenly(kernel):
    cpu = SharedCpuModel(kernel)
    done = {}
    cpu.submit(0, 1.0, lambda h: done.setdefault("a", kernel.now))
    cpu.submit(0, 1.0, lambda h: done.setdefault("b", kernel.now))
    kernel.run()
    assert done["a"] == pytest.approx(2.0)
    assert done["b"] == pytest.approx(2.0)


def test_steps_on_different_nodes_independent(kernel):
    cpu = SharedCpuModel(kernel)
    done = {}
    cpu.submit(0, 1.0, lambda h: done.setdefault("a", kernel.now))
    cpu.submit(1, 1.0, lambda h: done.setdefault("b", kernel.now))
    kernel.run()
    assert done["a"] == pytest.approx(1.0)
    assert done["b"] == pytest.approx(1.0)


def test_zero_work_completes_instantly(kernel):
    cpu = SharedCpuModel(kernel)
    done = []
    cpu.submit(0, 0.0, lambda h: done.append(kernel.now))
    assert done == [0.0]


def test_negative_work_rejected(kernel):
    cpu = SharedCpuModel(kernel)
    with pytest.raises(SimulationError):
        cpu.submit(0, -1.0, lambda h: None)


def test_submit_annotations_resolve():
    """Every name in the signature is bound (``get_type_hints`` evaluates
    the postponed annotations, as documentation tools do)."""
    hints = typing.get_type_hints(SharedCpuModel.submit)
    assert hints["tag"] is typing.Any


def test_communication_slows_computation(kernel):
    """The paper's coupling: transfers consume processing power."""
    params = CommCostParams(
        recv_fraction=0.0, send_fraction=0.2, marginal_decay=1.0, max_fraction=0.9
    )
    net = EqualShareStarNetwork(
        kernel, NetworkParams(latency=0.0, bandwidth=1e6, per_object_overhead=0.0)
    )
    cpu = SharedCpuModel(kernel, CommCostModel(params))
    cpu.attach_network(net)
    done = {}
    # Transfer occupies [0, 1]: 1 MB at 1 MB/s, costing 20% CPU on node 0.
    net.submit(0, 1, 1e6, lambda tr: done.setdefault("net", kernel.now))
    cpu.submit(0, 1.0, lambda h: done.setdefault("cpu", kernel.now))
    kernel.run()
    assert done["net"] == pytest.approx(1.0)
    # During [0,1] the step runs at 0.8 -> 0.2 work left -> ends at 1.2.
    assert done["cpu"] == pytest.approx(1.2)


def test_completed_work_accounting(kernel):
    cpu = SharedCpuModel(kernel)
    cpu.submit(0, 1.0, lambda h: None)
    cpu.submit(0, 2.0, lambda h: None)
    cpu.submit(1, 0.5, lambda h: None)
    kernel.run()
    assert cpu.completed_work[0] == pytest.approx(3.0)
    assert cpu.completed_work[1] == pytest.approx(0.5)


def test_running_steps_counter(kernel):
    cpu = SharedCpuModel(kernel)
    cpu.submit(0, 1.0, lambda h: None)
    cpu.submit(0, 1.0, lambda h: None)
    assert cpu.running_steps(0) == 2
    kernel.run()
    assert cpu.running_steps(0) == 0


#: (submit time, node, work) steps the coupled tests run
_STEPS = [
    (0.0, 0, 1.0), (0.0, 0, 2.0), (0.0, 1, 0.5),
    (0.0, 1, 1.5), (0.0, 2, 1.0), (0.0, 3, 0.25),
]


def test_incremental_cpu_matches_full_shadow(kernel):
    """verify_incremental=True shadows every update/refresh with a full
    recompute and raises on divergence: compute steps on several nodes
    overlapping a transfer storm."""
    params = CommCostParams(
        recv_fraction=0.1, send_fraction=0.2, marginal_decay=0.7, max_fraction=0.9
    )
    net = EqualShareStarNetwork(kernel, NetworkParams(latency=0.0, bandwidth=1e6))
    cpu = SharedCpuModel(kernel, CommCostModel(params), verify_incremental=True)
    cpu.attach_network(net)
    done = {}
    for i, (_, node, work) in enumerate(_STEPS):
        cpu.submit(node, work, lambda h, i=i: done.setdefault(i, kernel.now))
    for j, (src, dst, size) in enumerate(
        [(0, 1, 1e6), (0, 2, 5e5), (1, 3, 2e6), (2, 0, 1e6), (3, 1, 7e5)]
    ):
        kernel.schedule_at(0.1 * j, net.submit, src, dst, size, lambda tr: None)
    kernel.run()
    assert len(done) == 6
    assert cpu.allocator.stats.incremental_updates > 0
    assert cpu.allocator.stats.refreshes > 0


def test_incremental_cpu_end_to_end_equivalence():
    """Completion times agree between incremental and full allocation,
    with transfers moving the available power mid-run."""
    assert_matches_verify_run("shared", _STEPS)


def test_verify_mode_survives_submit_from_transfer_callback(kernel):
    """Regression: a transfer-completion callback that submits CPU work on
    the transfer's node runs before the network's change notification, so
    the allocator must not trust its cached node power there — the verify
    shadow (which recomputes power fresh) used to diverge and raise."""
    params = CommCostParams(
        recv_fraction=0.1, send_fraction=0.2, marginal_decay=1.0, max_fraction=0.9
    )
    net = EqualShareStarNetwork(kernel, NetworkParams(latency=0.0, bandwidth=1e6))
    cpu = SharedCpuModel(
        kernel, CommCostModel(params), verify_incremental=True
    )
    cpu.attach_network(net)
    done = {}
    cpu.submit(0, 1.0, lambda h: done.setdefault("first", kernel.now))
    net.submit(
        0, 1, 1e6,
        lambda tr: cpu.submit(0, 0.5, lambda h: done.setdefault("second", kernel.now)),
    )
    kernel.run()
    assert "first" in done and "second" in done


def test_network_refresh_only_touches_changed_nodes(kernel):
    """A transfer between nodes 0 and 1 must not re-rate steps on node 5."""
    net = EqualShareStarNetwork(kernel, NetworkParams(latency=0.0, bandwidth=1e6))
    cpu = SharedCpuModel(kernel)
    cpu.attach_network(net)
    cpu.submit(5, 10.0, lambda h: None)
    baseline = cpu.allocator.stats.rates_computed
    net.submit(0, 1, 1e6, lambda tr: None)
    # The refresh ran (listener fired) but node 5's power is unchanged and
    # nodes 0/1 run no steps, so no rates were recomputed.
    assert cpu.allocator.stats.refreshes >= 1
    assert cpu.allocator.stats.rates_computed == baseline
    kernel.run()
