"""Incremental allocation for the timeslice CPU model (and its coupling).

Mirrors ``tests/netmodel/test_incremental.py`` for
:class:`~repro.cpumodel.timeslice.TimesliceCpuModel`, which joined the
dirty-set protocol after the shared-CPU model: per-host slice groups with
the multiprogramming-overhead rate law, including the network coupling
(transfer activity consumes processing power, so network changes must
re-rate exactly the touched hosts).
"""

import pytest
from churn_driver import (
    assert_matches_verify_run,
    drive_cpu,
    submission_strategy,
)
from hypothesis import given, settings

from repro.cpumodel.timeslice import TimesliceCpuModel, TimesliceParams
from repro.des.kernel import Kernel

try:
    import numpy  # noqa: F401
    HAS_NUMPY = True
except ImportError:
    HAS_NUMPY = False

requires_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="seeded noise streams need numpy"
)


#: Deterministic knobs (noise off) for the law and counter checks; noise is
#: covered by the seeded-equivalence test below.
QUIET = TimesliceParams(csw_overhead=0.05, noise_sigma=0.0)


@requires_numpy
@settings(deadline=None, max_examples=40)
@given(submission_strategy)
def test_timeslice_incremental_matches_full_shadow(submissions):
    """verify_incremental=True raises if any incremental update diverges
    from the full recompute by more than 1e-9 relative."""
    times, cpu = drive_cpu(
        lambda kernel: TimesliceCpuModel(
            kernel, QUIET, seed=0, verify_incremental=True
        ),
        submissions,
    )
    assert cpu.allocator.stats.incremental_updates > 0
    assert cpu.allocator.stats.verify_recomputes > 0


@requires_numpy
@settings(deadline=None, max_examples=25)
@given(submission_strategy)
def test_timeslice_shadow_with_network_coupling(submissions):
    """The refresh path (power moved by transfer activity) must also match
    the full recompute exactly."""
    times, cpu = drive_cpu(
        lambda kernel: TimesliceCpuModel(
            kernel, QUIET, seed=0, verify_incremental=True
        ),
        submissions,
        with_network=True,
    )
    assert cpu.allocator.stats.incremental_updates > 0


@requires_numpy
@settings(deadline=None, max_examples=25)
@given(submission_strategy)
def test_timeslice_incremental_end_to_end_equivalence(submissions):
    """Completion times agree between incremental and full allocation, with
    seeded noise on (identical submission order → identical draws) and
    transfers moving the available power mid-run."""
    assert_matches_verify_run("timeslice", submissions)


@requires_numpy
def test_timeslice_updates_touch_one_host_only(kernel):
    """Steps on distinct hosts are independent slice groups: each arrival
    re-rates only its own host's steps."""
    cpu = TimesliceCpuModel(kernel, QUIET, seed=0)
    for node in range(6):
        cpu.submit(node, 1.0, lambda h: None)
    stats = cpu.allocator.stats
    assert stats.incremental_updates == 6
    assert stats.rates_computed == 6
    kernel.run()


@requires_numpy
def test_timeslice_overhead_law_survives_incremental(kernel):
    """The multiprogramming-overhead rate law must be unchanged: two steps
    on one host finish at 2 * (1 + csw) with csw overhead."""
    cpu = TimesliceCpuModel(
        kernel, TimesliceParams(csw_overhead=0.1, noise_sigma=0.0), seed=0
    )
    done = []
    cpu.submit(0, 1.0, lambda h: done.append(kernel.now))
    cpu.submit(0, 1.0, lambda h: done.append(kernel.now))
    kernel.run()
    assert done[0] == pytest.approx(2.0 * 1.1, rel=1e-6)


@requires_numpy
def test_shared_and_timeslice_agree_without_overhead(kernel):
    """With csw_overhead=0 and no noise the timeslice law reduces to the
    paper's even share — the two allocator families must agree."""
    from repro.cpumodel.shared import SharedCpuModel

    results = {}
    for name, build in (
        ("shared", lambda k: SharedCpuModel(k)),
        ("timeslice", lambda k: TimesliceCpuModel(
            k, TimesliceParams(csw_overhead=0.0, noise_sigma=0.0), seed=0
        )),
    ):
        k = Kernel()
        cpu = build(k)
        done = []
        for node, work in [(0, 1.0), (0, 2.0), (1, 1.5), (0, 0.5)]:
            cpu.submit(node, work, lambda h: done.append(k.now))
        k.run()
        results[name] = sorted(done)
    assert results["shared"] == pytest.approx(results["timeslice"])
