"""End-to-end provider modes: direct execution, measure-first-n, NOALLOC.

Unit tests cover each provider in isolation; these run whole applications
under each duration source — the Table 1 workflow at test scale.
"""

import itertools
from types import SimpleNamespace

import pytest

from repro.apps.lu.app import LUApplication
from repro.apps.lu.config import LUConfig
from repro.apps.lu.costs import LUCostModel
from repro.apps.matmul import MatmulApplication, MatmulConfig
from repro.scenario import ScenarioSpec, run_scenario
from repro.sim import providers
from repro.sim.modes import SimulationMode
from repro.sim.platform import PAPER_CLUSTER
from repro.sim.providers import (
    CostModelProvider,
    DirectExecutionProvider,
    HostCalibration,
    MeasureFirstNProvider,
)
from repro.sim.simulator import DPSSimulator


def matmul_app():
    return MatmulApplication(MatmulConfig(n=96, s=24, num_threads=4, num_nodes=2))


@pytest.fixture(scope="module")
def calibration():
    return HostCalibration(PAPER_CLUSTER.machine, reference_size=96)


def test_direct_execution_end_to_end(calibration):
    """Kernels really run, results verify, host time is accounted."""
    provider = DirectExecutionProvider(calibration)
    app = matmul_app()
    result = DPSSimulator(PAPER_CLUSTER, provider).run(app)
    app.verify()
    assert result.predicted_time > 0
    assert provider.host_compute_seconds > 0
    assert provider.evaluations > 0


def test_measure_first_n_end_to_end(calibration):
    """After n samples per kernel key, durations are reused averages —
    and the numerical result still verifies (kernels keep running while
    measuring; reuse kicks in only for repeated keys)."""
    provider = MeasureFirstNProvider(
        DirectExecutionProvider(calibration), n=2, run_kernels_after=True
    )
    app = matmul_app()
    DPSSimulator(PAPER_CLUSTER, provider).run(app)
    app.verify()
    # The matmul repeats identical gemm invocations: reuse must trigger.
    assert provider.reused > 0
    assert provider.measured >= 2


def test_measure_first_n_prediction_close_to_direct(calibration):
    """The hybrid's prediction stays in the direct-execution ballpark
    (the paper's justification for the measure-first-n shortcut).

    Both predictions derive from *wall timings on this host*, so the
    comparison inherits scheduler noise — the band is wide on purpose;
    the deterministic-model equivalences are asserted elsewhere.
    """
    direct_res = DPSSimulator(
        PAPER_CLUSTER, DirectExecutionProvider(calibration)
    ).run(matmul_app())
    hybrid_res = DPSSimulator(
        PAPER_CLUSTER,
        MeasureFirstNProvider(DirectExecutionProvider(calibration), n=3),
    ).run(matmul_app())
    ratio = hybrid_res.predicted_time / direct_res.predicted_time
    assert 0.4 < ratio < 2.5


def test_noalloc_simulation_uses_less_memory():
    """The NOALLOC memory saving (Table 1's 14 MB column) at test scale."""
    common = dict(n=648, r=162, num_threads=4, num_nodes=2)
    model = LUCostModel(PAPER_CLUSTER.machine, 162)

    def peak(mode, run_kernels):
        cfg = LUConfig(mode=mode, **common)
        sim = DPSSimulator(
            PAPER_CLUSTER,
            CostModelProvider(model, run_kernels=run_kernels),
            measure_memory=True,
        )
        return sim.run(LUApplication(cfg)).simulation_peak_memory

    allocating = peak(SimulationMode.PDEXEC, True)
    elided = peak(SimulationMode.PDEXEC_NOALLOC, False)
    # 648^2 doubles = 3.4 MB of matrix the elided run never allocates;
    # Table 1 reads 14 MB against 124 MB at n = 2592.
    assert elided < 0.2 * allocating


def test_pdexec_prediction_does_not_depend_on_the_host(monkeypatch):
    """Table 1's portability claim: on a host 6.5x faster (the paper's
    UltraSparc II -> Pentium 4) the PDEXEC predictions stay put, while a
    direct-execution prediction moves with the host."""
    lu = {"n": 216, "r": 54, "num_threads": 2, "num_nodes": 2}
    # Every host timing reads one millisecond, so direct execution is
    # deterministic and only the calibration scale tells the hosts apart.
    ticks = itertools.count(0.0, 1e-3)
    monkeypatch.setattr(providers, "time", SimpleNamespace(perf_counter=ticks.__next__))

    def predict(mode, **provider):
        spec = ScenarioSpec.from_dict({
            "app": {"name": "lu", "options": lu},
            "engine": {"mode": mode},
            "provider": {"options": provider},
        })
        return run_scenario(spec).makespan

    def on_this_host():
        return (
            predict("pdexec"), predict("noalloc"), predict("direct", persist=False)
        )

    pdexec, noalloc, direct = on_this_host()
    calibrate = HostCalibration.__init__

    def faster_host(self, *args, **kwargs):
        calibrate(self, *args, **kwargs)
        self.scale *= 6.5

    monkeypatch.setattr(HostCalibration, "__init__", faster_host)
    pdexec_p4, noalloc_p4, direct_p4 = on_this_host()
    assert (pdexec_p4, noalloc_p4) == (pdexec, noalloc)
    assert pdexec == noalloc  # payload elision moves no prediction
    assert direct_p4 > 2 * direct  # the patch does reach direct execution
