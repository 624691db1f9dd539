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
from repro.scenario import spec as spec_module
from repro.sim.platform import PlatformSpec
from repro.sim.providers import CostModelProvider, MachineCostModel


#: Tests that feed the deprecated ``cluster.interarrival`` key on purpose
#: (node-id prefixes).  Canonical spec dicts spell the key out for every
#: closed spec and three example specs still carry it, so anything that
#: round-trips a spec or loads ``examples/`` trips the deprecation by
#: design.  Every other test must say ``cluster.arrivals``: CI runs tier-1
#: with ``-W "error:cluster.interarrival is deprecated"``.
_LEGACY_INTERARRIVAL_TESTS = (
    "tests/cli/test_cli.py",  # runs examples/server_sharded.toml
    "tests/faults/test_fault_plan.py",  # canonical-dict round trip
    "tests/scenario/test_examples_static.py",
    "tests/scenario/test_spec.py",
    "tests/service/",  # client and daemon exchange canonical dicts
    "tests/staticcheck/test_selfcheck.py",  # REP-R loads every example
)


def pytest_collection_modifyitems(items):
    legacy_ok = pytest.mark.filterwarnings(
        "ignore:cluster.interarrival is deprecated:DeprecationWarning"
    )
    for item in items:
        if item.nodeid.startswith(_LEGACY_INTERARRIVAL_TESTS):
            item.add_marker(legacy_ok)


@pytest.fixture(autouse=True)
def _fresh_interarrival_warning(monkeypatch):
    """Re-arm the once-per-process deprecation for every test.

    Otherwise the first test to trip it hides every later one, and the
    CI flag above would only ever see the first.
    """
    monkeypatch.setattr(spec_module, "_INTERARRIVAL_WARNED", False)


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
