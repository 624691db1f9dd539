"""The time-shift relation for every registered network model.

Both float-resolution bugs this repo shipped were arithmetic on ``now``
(``now + (finish - now) != finish``; ``now + 1e-12 == now`` past 2**14 s).
With every event armed at an absolute time, a workload submitted at
``t0 + t`` must be the same run ``t0`` later: it terminates, executes the
same events, and completes at the same offsets up to ulp(``t0``).
"""

import random

import pytest
from churn_driver import (
    PARAMS,
    SCALAR_MODELS,
    assert_time_shift_invariant,
    drive_network,
)

from repro.netmodel.analytic import AnalyticNetwork


NETWORK_MODELS = sorted(
    name for name, (drive, _) in SCALAR_MODELS.items() if drive is drive_network
) + ["analytic", "maxmin-soa", "packet-soa"]


def _build(model, kernel):
    if model in ("packet", "maxmin-soa", "packet-soa"):
        pytest.importorskip("numpy")  # seeded noise, SoA arrays
    if model == "analytic":
        return AnalyticNetwork(kernel, PARAMS)
    if model == "maxmin-soa":
        from repro.netmodel.soa import MaxMinStarNetworkSoA

        return MaxMinStarNetworkSoA(kernel, PARAMS)
    if model == "packet-soa":
        from repro.netmodel.soa import PacketNetworkSoA

        return PacketNetworkSoA(kernel, PARAMS, seed=3)
    return SCALAR_MODELS[model][1](kernel, False)


def _arrivals(count=40):
    rng = random.Random(23)
    out = []
    for _ in range(count):
        src = rng.randrange(6)
        dst = (src + 1 + rng.randrange(5)) % 6
        out.append((rng.uniform(0.0, 5.0), src, dst, rng.uniform(1e3, 5e6)))
    return out


@pytest.mark.parametrize("t0", [2.0**15, 2.0**20])
@pytest.mark.parametrize("model", NETWORK_MODELS)
def test_network_run_is_time_shift_invariant(model, t0):
    assert_time_shift_invariant(
        drive_network, lambda kernel: _build(model, kernel), _arrivals(), t0
    )
