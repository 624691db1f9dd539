"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cpumodel.machines import ULTRASPARC_II_440
from repro.des.kernel import Kernel
from repro.netmodel.params import NetworkParams
from repro.sim.platform import PlatformSpec
from repro.sim.providers import CostModelProvider, MachineCostModel


@pytest.fixture(autouse=True)
def _isolated_calibration_cache(tmp_path_factory, monkeypatch):
    """Keep the on-disk calibration cache out of the user's home dir.

    Session-scoped directory: calibrations are deterministic, so sharing
    one cache across the suite is safe and keeps sweep tests fast.
    """
    cache = tmp_path_factory.getbasetemp() / "repro-calibration-cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))


@pytest.fixture
def fresh_python():
    """``run(code) -> stdout`` in a new interpreter at the repo root.

    ``sys.modules`` and import order are process-global: tests about them
    cannot share the suite's interpreter.
    """
    repo = Path(__file__).resolve().parents[1]

    def run(code: str) -> str:
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=repo, env=dict(os.environ, PYTHONPATH=str(repo / "src")),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run


@pytest.fixture
def kernel() -> Kernel:
    """A fresh discrete-event kernel."""
    return Kernel()


@pytest.fixture
def net_params() -> NetworkParams:
    """Simple network parameters: 100 us latency, 10 MB/s, no overhead."""
    return NetworkParams(latency=1e-4, bandwidth=1e7, per_object_overhead=0.0)


@pytest.fixture
def platform(net_params: NetworkParams) -> PlatformSpec:
    """Deterministic platform for runtime-level tests."""
    return PlatformSpec(machine=ULTRASPARC_II_440, network=net_params)


@pytest.fixture
def pdexec_provider() -> CostModelProvider:
    """PDEXEC provider over the UltraSparc profile (no payload execution)."""
    return CostModelProvider(MachineCostModel(ULTRASPARC_II_440))
