"""Deployment mapping, credit accounts and thread managers."""

import pytest

from repro.dps.deployment import Deployment, ThreadId
from repro.dps.flow_control import CreditAccount
from repro.dps.threads import DPSThread, ThreadManager
from repro.errors import ConfigurationError, DeploymentError, MalleabilityError


# ----------------------------------------------------------- deployment
def test_deployment_group_mapping():
    dep = Deployment(4)
    dep.add_group("workers", [0, 1, 2, 3, 0, 1])
    assert dep.node_of(ThreadId("workers", 4)) == 0
    assert dep.groups["workers"].size == 6


def test_block_cyclic_helper():
    dep = Deployment(4).add_group_block("workers", 8)
    assert [dep.node_of(ThreadId("workers", i)) for i in range(8)] == [
        0, 1, 2, 3, 0, 1, 2, 3,
    ]


def test_per_node_and_singleton():
    dep = Deployment(3).add_per_node("control").add_singleton("main", 2)
    assert [dep.node_of(ThreadId("control", i)) for i in range(3)] == [0, 1, 2]
    assert dep.node_of(ThreadId("main", 0)) == 2


def test_invalid_deployments_rejected():
    with pytest.raises(DeploymentError):
        Deployment(0)
    dep = Deployment(2)
    with pytest.raises(DeploymentError):
        dep.add_group("g", [])
    with pytest.raises(DeploymentError):
        dep.add_group("g", [5])
    dep.add_group("g", [0])
    with pytest.raises(DeploymentError):
        dep.add_group("g", [0])


def test_unknown_thread_lookup_rejected():
    dep = Deployment(2).add_group("g", [0])
    with pytest.raises(DeploymentError):
        dep.node_of(ThreadId("nope", 0))
    with pytest.raises(DeploymentError):
        dep.node_of(ThreadId("g", 7))


def test_validate_against_graph_groups():
    dep = Deployment(2).add_group("main", [0])
    with pytest.raises(DeploymentError, match="workers"):
        dep.validate_against({"main", "workers"})


def test_used_nodes_and_threads():
    dep = Deployment(4).add_group("a", [0, 2]).add_group("b", [2])
    assert dep.used_nodes() == {0, 2}
    assert len(list(dep.threads())) == 3


# ----------------------------------------------------------- flow control
def test_credit_account_acquire_release():
    acc = CreditAccount(2)
    assert acc.acquire() and acc.acquire()
    assert not acc.acquire()
    assert acc.release() is None
    assert acc.acquire()


def test_credit_transfers_to_waiter():
    acc = CreditAccount(1)
    assert acc.acquire()
    resumed = []
    acc.wait(lambda: resumed.append(True))
    cb = acc.release()
    assert cb is not None
    cb()
    assert resumed == [True]
    # Credit moved to the waiter: still outstanding.
    assert acc.outstanding == 1
    assert not acc.acquire()


def test_release_without_outstanding_rejected():
    with pytest.raises(ConfigurationError):
        CreditAccount(1).release()


# ----------------------------------------------------------- threads
def test_thread_manager_create_destroy():
    mgr = ThreadManager(0)
    t = mgr.create(ThreadId("g", 0))
    assert mgr.live_count == 1
    assert t.drained
    mgr.destroy(ThreadId("g", 0))
    assert mgr.live_count == 0


def test_duplicate_thread_rejected():
    mgr = ThreadManager(0)
    mgr.create(ThreadId("g", 0))
    with pytest.raises(MalleabilityError):
        mgr.create(ThreadId("g", 0))


def test_destroy_busy_thread_rejected():
    mgr = ThreadManager(0)
    t = mgr.create(ThreadId("g", 0))
    t.queue.append(("v", object()))
    with pytest.raises(MalleabilityError, match="queued or running"):
        mgr.destroy(ThreadId("g", 0))


def test_dead_thread_rejects_deliveries():
    t = DPSThread(ThreadId("g", 0), 0)
    t.alive = False
    with pytest.raises(MalleabilityError, match="removed thread"):
        t.ensure_alive()
