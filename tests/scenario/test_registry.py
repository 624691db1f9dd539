"""Registry: registration, lookup, duplicate/unknown error paths."""

import pytest

from repro.errors import ConfigurationError
from repro.scenario import (
    AppPlugin,
    AppSection,
    EngineSection,
    Registry,
    ScenarioSpec,
    default_registry,
)
from repro.scenario.builtins import install_builtins


@pytest.fixture
def registry() -> Registry:
    return Registry(name="test")


class TestRegistration:
    def test_register_and_resolve(self, registry):
        sentinel = object()
        registry.register("engine", "mine", sentinel)
        assert registry.resolve("engine", "mine") is sentinel

    def test_duplicate_name_rejected(self, registry):
        registry.register("netmodel", "fabric", object())
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register("netmodel", "fabric", object())

    def test_replace_shadows_deliberately(self, registry):
        first, second = object(), object()
        registry.register("netmodel", "fabric", first)
        registry.register("netmodel", "fabric", second, replace=True)
        assert registry.resolve("netmodel", "fabric") is second

    def test_empty_name_rejected(self, registry):
        with pytest.raises(ConfigurationError, match="non-empty"):
            registry.register("app", "", object())

    def test_unknown_kind_rejected(self, registry):
        with pytest.raises(ConfigurationError, match="unknown plugin kind"):
            registry.register("flavor", "x", object())
        with pytest.raises(ConfigurationError, match="unknown plugin kind"):
            registry.names("flavor")

    def test_unknown_name_lists_choices(self, registry):
        registry.register("policy", "fifo", object())
        with pytest.raises(ConfigurationError, match=r"\['fifo'\]"):
            registry.resolve("policy", "lifo")


class TestDefaultRegistry:
    def test_builtins_present(self):
        registry = default_registry()
        assert registry.names("app") == ["lu", "matmul", "sort", "stencil"]
        assert registry.names("netmodel") == [
            "analytic", "backplane", "maxmin", "maxmin-soa",
            "packet", "packet-soa", "star",
        ]
        assert registry.names("cpumodel") == ["shared", "timeslice"]
        assert registry.names("engine") == ["server", "sim", "testbed"]
        assert registry.names("workload") == [
            "bursty", "diurnal", "poisson", "trace",
        ]
        assert registry.names("policy") == [
            "adaptive", "admission", "autoscale", "backfill",
            "equipartition", "fcfs", "static",
        ]

    def test_descriptions_exposed(self):
        registry = default_registry()
        assert "MMPP" in registry.describe("workload", "bursty")
        assert "admission" in registry.describe("policy", "admission")
        # `repro scenarios list` prints these: every model names its backend.
        assert "scalar backend" in registry.describe("netmodel", "maxmin")
        assert "soa backend" in registry.describe("netmodel", "maxmin-soa")
        assert "scalar backend" in registry.describe("cpumodel", "timeslice")
        assert "soa backend" in registry.describe("netmodel", "packet-soa")
        assert registry.describe("engine", "sim") == ""
        with pytest.raises(ConfigurationError, match="unknown workload"):
            registry.describe("workload", "nope")

    def test_default_registry_is_memoized(self):
        assert default_registry() is default_registry()

    def test_builtins_install_into_fresh_registry(self):
        fresh = install_builtins(Registry(name="fresh"))
        assert fresh.names("app") == default_registry().names("app")


class TestAppPlugin:
    def test_make_config_folds_mode_and_options(self):
        plugin: AppPlugin = default_registry().resolve("app", "lu")
        spec = ScenarioSpec(
            app=AppSection("lu", {"n": 192, "r": 48, "num_threads": 4,
                                  "num_nodes": 2}),
            engine=EngineSection(mode="noalloc"),
        )
        cfg = plugin.make_config(spec)
        assert cfg.n == 192 and cfg.r == 48
        assert not cfg.mode.runs_kernels

    def test_make_config_rejects_unknown_option(self):
        plugin = default_registry().resolve("app", "lu")
        spec = ScenarioSpec(app=AppSection("lu", {"blocksize": 48}))
        with pytest.raises(
            ConfigurationError, match=r"unknown keys \['blocksize'\] in app.options"
        ):
            plugin.make_config(spec)

    def test_events_rejected_for_schedule_free_apps(self):
        plugin = default_registry().resolve("app", "sort")
        spec = ScenarioSpec(app=AppSection("sort"), events=("1@1",))
        with pytest.raises(ConfigurationError, match="does not support"):
            plugin.make_config(spec)

    def test_events_accepted_for_lu(self):
        plugin = default_registry().resolve("app", "lu")
        spec = ScenarioSpec(
            app=AppSection("lu", {"n": 192, "r": 48, "num_threads": 4,
                                  "num_nodes": 4}),
            engine=EngineSection(mode="noalloc"),
            events=("2,3@1",),
        )
        cfg = plugin.make_config(spec)
        assert cfg.schedule.total_removed == 2
