"""Graceful degradation of the ``*-soa`` plugins when numpy is missing.

Runs with or without numpy installed: availability is monkeypatched at the
single point the registry consults (``repro.des.soa.np``), so both CI legs
exercise the same paths.  The contract: a spec naming an SoA backend still
runs — the factory silently builds the scalar twin after printing a
one-line hint (once per process, to stderr, not an exception).
"""

import pytest

import repro.des.soa as soa_mod
from repro.des.kernel import Kernel
from repro.netmodel.maxmin import MaxMinStarNetwork
from repro.netmodel.params import NetworkParams
from repro.scenario.registry import Registry
from repro.scenario.builtins import install_builtins


@pytest.fixture
def no_numpy(monkeypatch):
    """Make the SoA backend unavailable and re-arm the once-only hint."""
    monkeypatch.setattr(soa_mod, "np", None)
    monkeypatch.setattr(soa_mod, "_hinted", False)
    return soa_mod


@pytest.fixture
def registry():
    # A private registry so plugin factories resolve fresh under the patch.
    return install_builtins(Registry(name="fallback-test"))


PARAMS = NetworkParams(latency=1e-4, bandwidth=1e6)


def test_soa_unavailable_is_reported(no_numpy):
    assert not soa_mod.soa_available()
    assert "numpy" in soa_mod.numpy_missing_hint()


def test_netmodel_soa_falls_back_to_scalar(no_numpy, registry, capsys):
    factory = registry.resolve("netmodel", "maxmin-soa")
    net = factory(Kernel(), PARAMS)
    assert isinstance(net, MaxMinStarNetwork)
    err = capsys.readouterr().err
    assert "numpy not found" in err
    assert len(err.strip().splitlines()) == 1


def test_hint_printed_once_per_process(no_numpy, registry, capsys):
    factory = registry.resolve("netmodel", "maxmin-soa")
    factory(Kernel(), PARAMS)
    factory(Kernel(), PARAMS)
    err = capsys.readouterr().err
    assert err.count("numpy not found") == 1


def test_soa_runs_when_available(registry):
    """With numpy present the same plugin name builds the SoA model."""
    pytest.importorskip("numpy")
    from repro.netmodel.soa import MaxMinStarNetworkSoA

    factory = registry.resolve("netmodel", "maxmin-soa")
    net = factory(Kernel(), PARAMS)
    assert isinstance(net, MaxMinStarNetworkSoA)
