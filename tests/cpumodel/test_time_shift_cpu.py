"""The time-shift relation for the CPU models, network coupling included
(see ``tests/netmodel/test_time_shift.py`` for the contract)."""

import random

import pytest
from churn_driver import SCALAR_MODELS, assert_time_shift_invariant, drive_network

CPU_MODELS = sorted(
    name for name, (drive, _) in SCALAR_MODELS.items() if drive is not drive_network
)


def _submissions(count=40):
    rng = random.Random(29)
    return [
        (rng.uniform(0.0, 3.0), rng.randrange(4), rng.uniform(0.01, 2.0))
        for _ in range(count)
    ]


@pytest.mark.parametrize("t0", [2.0**15, 2.0**20])
@pytest.mark.parametrize("model", CPU_MODELS)
def test_cpu_run_is_time_shift_invariant(model, t0):
    if model == "timeslice":
        pytest.importorskip("numpy")
    drive, build = SCALAR_MODELS[model]
    assert_time_shift_invariant(
        drive, lambda kernel: build(kernel, False), _submissions(), t0
    )
