"""Trace accumulation levels and the execution backend."""

import pytest

from repro.cpumodel.shared import SharedCpuModel
from repro.des.kernel import Kernel
from repro.dps.backend import ExecutionBackend
from repro.dps.deployment import ThreadId
from repro.dps.trace import RuntimeTrace, StepRecord, TraceLevel, TransferRecord
from repro.netmodel.params import NetworkParams
from repro.netmodel.star import EqualShareStarNetwork


def step(node=0, work=1.0, start=0.0, end=None, phase=None):
    return StepRecord(
        vertex="v",
        thread=ThreadId("g", 0),
        node=node,
        kernel="k",
        start=start,
        end=end if end is not None else start + work,
        work=work,
        phase=phase,
    )


def test_none_level_counts_only():
    trace = RuntimeTrace(level=TraceLevel.NONE)
    trace.record_step(step())
    assert trace.step_count == 1
    assert trace.node_work == {}
    assert trace.steps == []


def test_summary_level_accumulates_work():
    trace = RuntimeTrace(level=TraceLevel.SUMMARY)
    trace.record_step(step(node=0, work=1.0, phase="p1"))
    trace.record_step(step(node=0, work=2.0, phase="p1"))
    trace.record_step(step(node=1, work=0.5, phase="p2"))
    assert trace.node_work == {0: 3.0, 1: 0.5}
    assert trace.phase_work == {"p1": 3.0, "p2": 0.5}
    assert trace.phase_node_work[("p1", 0)] == 3.0
    assert trace.total_work() == 3.5
    assert trace.steps == []  # not retained at SUMMARY


def test_full_level_retains_records():
    trace = RuntimeTrace(level=TraceLevel.FULL)
    trace.record_step(step())
    trace.record_transfer(
        TransferRecord(kind="t", src_node=0, dst_node=1, size=100.0, start=0.0, end=1.0)
    )
    assert len(trace.steps) == 1
    assert len(trace.transfers) == 1
    assert trace.transfer_bytes == 100.0


def test_step_stretch():
    contended = step(work=1.0, start=0.0, end=2.0)
    assert contended.stretch == pytest.approx(2.0)
    assert contended.duration == pytest.approx(2.0)


def test_busy_fraction():
    trace = RuntimeTrace()
    trace.record_step(step(node=0, work=2.0))
    assert trace.busy_fraction(0, makespan=4.0) == pytest.approx(0.5)
    assert trace.busy_fraction(1, makespan=4.0) == 0.0
    assert trace.busy_fraction(0, makespan=0.0) == 0.0


# ------------------------------------------------------------------ backend
def make_backend(kernel):
    return ExecutionBackend(
        kernel,
        SharedCpuModel(kernel),
        EqualShareStarNetwork(
            kernel, NetworkParams(latency=1e-4, bandwidth=1e7, per_object_overhead=0)
        ),
        local_delivery_delay=5e-6,
    )


def test_backend_local_transfer_uses_delay(kernel):
    backend = make_backend(kernel)
    done = []
    backend.submit_transfer(2, 2, 1e9, lambda tr: done.append((kernel.now, tr)))
    kernel.run()
    assert done == [(pytest.approx(5e-6), None)]  # size irrelevant locally


def test_backend_remote_transfer_uses_network(kernel):
    backend = make_backend(kernel)
    done = []
    backend.submit_transfer(0, 1, 1e7, done.append)
    kernel.run()
    (transfer,) = done
    assert (transfer.src, transfer.dst, transfer.size) == (0, 1, 1e7)
    assert transfer.completed_at == pytest.approx(1.0 + 1e-4)


def test_backend_compute_goes_to_cpu(kernel):
    backend = make_backend(kernel)
    done = []
    backend.submit_compute(0, 0.25, lambda h: done.append((kernel.now, h.node)))
    kernel.run()
    assert done == [(pytest.approx(0.25), 0)]
