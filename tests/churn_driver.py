"""One churn driver for the incremental == full-recompute contract.

Every scalar model keeps ``_full()`` as its oracle, reached through
``verify_incremental=True``.  The shadow *assigns* the full rates before it
compares them, so a verify run that raises nothing has followed the
full-recompute trajectory from start to finish.
:func:`assert_matches_verify_run` therefore drives one workload through a
model twice, plain and shadowed, and holds the completion times to 1e-9 —
the check every per-model ``*_end_to_end_equivalence`` test makes.

``tests/`` is on ``sys.path`` through the root ``conftest.py``, so test
modules import this as ``churn_driver``.
"""

import functools
import math
import random

import pytest
from hypothesis import strategies as st

from repro.cpumodel.commcost import CommCostModel, CommCostParams
from repro.cpumodel.shared import SharedCpuModel
from repro.des.kernel import Kernel
from repro.netmodel.backplane import BackplaneStarNetwork
from repro.netmodel.maxmin import MaxMinStarNetwork
from repro.netmodel.params import NetworkParams
from repro.netmodel.star import EqualShareStarNetwork

PARAMS = NetworkParams(latency=1e-4, bandwidth=1e6)
#: Tight enough that dense random traffic regularly saturates the fabric —
#: the scale factor moves, exercising the whole-pool re-rate path.
TIGHT_BACKPLANE = 1.5e6

#: (arrival time, src, dst, size) transfers on six nodes
arrival_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5.0),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
        st.floats(min_value=1e3, max_value=5e6),
    ).filter(lambda t: t[1] != t[2]),
    min_size=1,
    max_size=25,
)

#: (submit time, node, work) compute steps on four nodes
submission_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=3.0),
        st.integers(min_value=0, max_value=3),
        st.floats(min_value=0.01, max_value=2.0),
    ),
    min_size=1,
    max_size=25,
)


def drive_network(net_factory, arrivals, t0=0.0):
    """Submit (time, src, dst, size) arrivals at ``t0 + time``; return
    completion times."""
    kernel = Kernel()
    kernel.run(until=t0)
    net = net_factory(kernel)
    completions = {}

    def submit(index, src, dst, size):
        net.submit(src, dst, size, lambda tr: completions.setdefault(index, kernel.now))

    for i, (time, src, dst, size) in enumerate(arrivals):
        kernel.schedule_at(t0 + time, submit, i, src, dst, size)
    kernel.run()
    assert len(completions) == len(arrivals)
    return [completions[i] for i in range(len(arrivals))], net


def drive_cpu(cpu_factory, submissions, t0=0.0, with_network=False):
    """Submit (time, node, work) steps at ``t0 + time``; return completion
    times."""
    kernel = Kernel()
    kernel.run(until=t0)
    cpu = cpu_factory(kernel)
    if with_network:
        # Couple to a network and keep transfers churning so available
        # power moves mid-run (the refresh path).
        net = EqualShareStarNetwork(kernel, NetworkParams(latency=0.0, bandwidth=1e6))
        cpu.attach_network(net)
        rng = random.Random(9)
        for i in range(10):
            kernel.schedule_at(
                t0 + rng.uniform(0.0, 2.0),
                net.submit,
                rng.randrange(4),
                4 + rng.randrange(4),
                rng.uniform(1e5, 1e6),
                lambda tr: None,
            )
    completions = {}

    def submit(index, node, work):
        cpu.submit(node, work, lambda h: completions.setdefault(index, kernel.now))

    for i, (time, node, work) in enumerate(submissions):
        kernel.schedule_at(t0 + time, submit, i, node, work)
    kernel.run()
    assert len(completions) == len(submissions)
    return [completions[i] for i in range(len(submissions))], cpu


def _packet(kernel, verify):
    # Imported on use: the packet and timeslice models seed their noise
    # through numpy, and this module must import on the numpy-less CI leg.
    from repro.netmodel.packet import PacketNetwork

    return PacketNetwork(kernel, PARAMS, seed=3, verify_incremental=verify)


def _timeslice(kernel, verify):
    from repro.cpumodel.timeslice import TimesliceCpuModel, TimesliceParams

    # Noise on: identical submission order means identical draws.
    noisy = TimesliceParams(csw_overhead=0.02, noise_sigma=0.05)
    return TimesliceCpuModel(kernel, noisy, seed=5, verify_incremental=verify)


def _shared(kernel, verify):
    # Communication dear enough that every transfer moves the step rates.
    costly = CommCostParams(
        recv_fraction=0.1, send_fraction=0.2, marginal_decay=0.7, max_fraction=0.9
    )
    return SharedCpuModel(kernel, CommCostModel(costly), verify_incremental=verify)


_drive_coupled_cpu = functools.partial(drive_cpu, with_network=True)


#: scalar model name -> (how to drive a workload, model(kernel, verify))
SCALAR_MODELS = {
    "star": (
        drive_network,
        lambda k, v: EqualShareStarNetwork(k, PARAMS, verify_incremental=v),
    ),
    "maxmin": (
        drive_network,
        lambda k, v: MaxMinStarNetwork(k, PARAMS, verify_incremental=v),
    ),
    "packet": (drive_network, _packet),
    "backplane": (
        drive_network,
        lambda k, v: BackplaneStarNetwork(
            k, PARAMS, capacity=TIGHT_BACKPLANE, verify_incremental=v
        ),
    ),
    "shared": (_drive_coupled_cpu, _shared),
    "timeslice": (_drive_coupled_cpu, _timeslice),
}


def assert_matches_verify_run(model, workload):
    """Plain and shadowed runs of ``workload`` finish at the same times.

    Returns the shadowed model so callers can assert on its counters.
    """
    drive, build = SCALAR_MODELS[model]
    plain, _ = drive(lambda kernel: build(kernel, False), workload)
    # Raises SimulationError inside the run on any rate beyond 1e-9.
    full, shadowed = drive(lambda kernel: build(kernel, True), workload)
    assert shadowed.allocator.stats.verify_recomputes > 0
    for a, b in zip(plain, full):
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)
    return shadowed


def assert_time_shift_invariant(drive, factory, workload, t0):
    """A workload submitted ``t0`` later is the same run, ``t0`` later.

    Same event count, completion offsets equal up to the resolution of
    simulated time at ``t0`` — the contract behind absolute-time
    scheduling: no model's arithmetic may depend on the size of ``now``.
    """
    base, at_zero = drive(factory, workload)
    shifted, at_t0 = drive(factory, workload, t0=t0)
    assert at_t0.kernel.events_executed == at_zero.kernel.events_executed
    for a, b in zip(base, shifted):
        assert abs((b - t0) - a) <= 16 * math.ulp(t0)
