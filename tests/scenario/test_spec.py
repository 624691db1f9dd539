"""ScenarioSpec: round trips, validation, file loading."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.scenario import (
    AppSection,
    ClusterSection,
    EngineSection,
    ModelSection,
    PlatformSection,
    ProviderSection,
    ScenarioSpec,
)
from repro.sim.modes import SimulationMode

tomllib = pytest.importorskip("tomllib", reason="TOML specs need Python 3.11+")


def _full_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="lu-full",
        app=AppSection("lu", {"n": 648, "r": 216, "num_threads": 4, "num_nodes": 2}),
        engine=EngineSection(
            name="sim", mode="noalloc", seed=3, verify=False,
            shards=1, shard_mode="auto",
        ),
        netmodel=ModelSection("maxmin", {"cascade_threshold": 0.25}),
        cpumodel=ModelSection("shared"),
        provider=ProviderSection("costmodel"),
        platform=PlatformSection("paper", calibrate=True),
        cluster=ClusterSection(nodes=12, jobs=6),
        events=("2,3@1",),
    )


# --------------------------------------------------------------------------
# round trips
# --------------------------------------------------------------------------


class TestRoundTrip:
    def test_dict_to_spec_to_dict_is_identity(self):
        spec = _full_spec()
        canonical = spec.to_dict()
        assert ScenarioSpec.from_dict(canonical).to_dict() == canonical

    def test_spec_to_dict_to_spec_is_identity(self):
        spec = _full_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_is_identity(self):
        spec = _full_spec()
        text = spec.to_json()
        assert ScenarioSpec.from_json(text) == spec
        assert json.loads(text) == spec.to_dict()

    def test_default_spec_round_trips(self):
        spec = ScenarioSpec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_toml_document_expands_to_canonical_dict(self):
        text = """
            name = "lu-toml"
            events = ["2,3@1"]

            [app]
            name = "lu"

            [app.options]
            n = 648
            r = 216

            [engine]
            name = "sim"
            mode = "noalloc"
        """
        spec = ScenarioSpec.from_toml(text)
        expected = ScenarioSpec(
            name="lu-toml",
            app=AppSection("lu", {"n": 648, "r": 216}),
            engine=EngineSection(name="sim", mode="noalloc"),
            events=("2,3@1",),
        )
        assert spec == expected
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_partial_dict_gets_defaults(self):
        spec = ScenarioSpec.from_dict({"name": "tiny", "app": {"name": "sort"}})
        assert spec.engine.name == "sim"
        assert spec.netmodel.name == "star"
        assert spec.cluster.nodes == 16
        assert spec.events == ()

    def test_mode_and_schedule_helpers(self):
        spec = _full_spec()
        assert spec.mode() is SimulationMode.PDEXEC_NOALLOC
        schedule = spec.schedule()
        assert schedule.events[0].after_phase == "iter1"
        assert schedule.events[0].thread_indices == (2, 3)


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------


class TestValidation:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown top-level"):
            ScenarioSpec.from_dict({"name": "x", "appp": {}})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            ScenarioSpec.from_dict({"engine": {"nam": "sim"}})

    def test_reserved_app_options_rejected(self):
        with pytest.raises(ConfigurationError, match="reserved"):
            AppSection("lu", {"mode": "direct"})
        with pytest.raises(ConfigurationError, match="reserved"):
            AppSection("lu", {"schedule": None})

    def test_bad_engine_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="engine.mode"):
            EngineSection(mode="warp")

    def test_bad_shards_rejected(self):
        with pytest.raises(ConfigurationError, match="shards"):
            EngineSection(shards=0)
        with pytest.raises(ConfigurationError, match="shard_mode"):
            EngineSection(shard_mode="quantum")

    def test_bad_events_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="kill spec"):
            ScenarioSpec(events=("oops",))

    def test_bad_cluster_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSection(nodes=0)
        with pytest.raises(ConfigurationError):
            ClusterSection(interarrival=0.0)

    @pytest.mark.parametrize(
        "section, key, bad",
        [("engine", "seed", -1), ("cluster", "nodes_per_job", 0),
         ("cluster", "nodes_per_job", -3)],
    )
    def test_out_of_range_scalar_rejected_at_load(self, section, key, bad):
        """Checked in the section, whatever engine or policy reads it."""
        with pytest.raises(ConfigurationError, match=f"{section}.{key} must be >="):
            ScenarioSpec.from_dict({section: {key: bad}})
        # faults.seed = -1 is a different field: "inherit engine.seed".
        assert ScenarioSpec.from_dict({"faults": {"seed": -1}}).faults.seed == -1

    @pytest.mark.parametrize(
        "section, key, least", [("engine", "seed", 0), ("cluster", "nodes_per_job", 1)]
    )
    def test_least_in_range_scalar_loads(self, section, key, least):
        spec = ScenarioSpec.from_dict({section: {key: least}})
        assert getattr(getattr(spec, section), key) == least

    def test_non_dict_options_rejected(self):
        with pytest.raises(ConfigurationError, match="table/dict"):
            AppSection("lu", options=[1, 2])  # type: ignore[arg-type]

    @pytest.mark.parametrize(
        "section, key, bad, complaint",
        [
            ("cluster", "nodes", "16", "must be of type int, got str"),
            ("cluster", "nodes", 16.5, "must be of type int, got float"),
            ("cluster", "nodes", True, "must be of type int, got bool"),
            ("engine", "shards", "2", "must be of type int, got str"),
            ("engine", "shards", 2.5, "must be of type int, got float"),
            ("engine", "verify", 1, "must be of type bool, got int"),
            ("engine", "name", 3, "must be of type str, got int"),
            ("cluster", "efficiency_floor", "x",
             "must be of type int or float, got str"),
            ("cluster", "efficiency_floor", float("nan"),
             "must be finite, got nan"),
            ("cluster", "interarrival", float("inf"), "must be finite, got inf"),
            ("faults", "max_retries", None, "must be of type int, got NoneType"),
        ],
    )
    def test_mistyped_scalar_rejected_at_load(self, section, key, bad, complaint):
        """Spec files and ``POST /run`` bodies are outside input: a value
        of the wrong type is named, not compared — while an integer still
        loads into a float field (TOML ``efficiency_floor = 1``)."""
        with pytest.raises(
            ConfigurationError, match=f"{section}.{key} {complaint}"
        ):
            ScenarioSpec.from_dict({section: {key: bad}})
        spec = ScenarioSpec.from_dict({"cluster": {"efficiency_floor": 1}})
        assert spec.cluster.efficiency_floor == 1

    def test_invalid_json_text(self):
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            ScenarioSpec.from_json("{nope")

    def test_invalid_toml_text(self):
        with pytest.raises(ConfigurationError, match="invalid TOML"):
            ScenarioSpec.from_toml("= garbage =")


# --------------------------------------------------------------------------
# open-system arrivals and the deprecated interarrival alias
# --------------------------------------------------------------------------


def _open_cluster(**arrivals):
    return {
        "name": "open",
        "engine": {"name": "server"},
        "cluster": {"nodes": 8, "arrivals": dict(arrivals)},
    }


class TestArrivalsShim:
    # tests/conftest.py re-arms the once-per-process deprecation warning
    # before every test, so each one observes (or asserts the absence
    # of) its own copy.

    def test_arrivals_requires_process_name(self):
        with pytest.raises(ConfigurationError, match="'process' name"):
            ClusterSection(arrivals={"mean_interarrival": 10.0})
        with pytest.raises(ConfigurationError, match="'process' name"):
            ClusterSection(arrivals={"process": 7})

    def test_open_spec_round_trips_without_interarrival(self):
        spec = ScenarioSpec.from_dict(
            _open_cluster(process="poisson", mean_interarrival=10.0, jobs=50)
        )
        canonical = spec.to_dict()
        assert "interarrival" not in canonical["cluster"]
        assert canonical["cluster"]["arrivals"]["process"] == "poisson"
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert ScenarioSpec.from_dict(canonical) == spec

    def test_policy_options_round_trip(self):
        payload = _open_cluster(process="poisson", jobs=10)
        payload["cluster"]["policy"] = "admission"
        payload["cluster"]["policy_options"] = {"max_active": 4}
        spec = ScenarioSpec.from_dict(payload)
        assert spec.cluster.policy_options == {"max_active": 4}
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_legacy_interarrival_warns_once(self):
        payload = {"cluster": {"nodes": 8, "interarrival": 20.0}}
        with pytest.warns(DeprecationWarning, match="deprecated"):
            spec = ScenarioSpec.from_dict(payload)
        assert spec.cluster.interarrival == 20.0
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ScenarioSpec.from_dict(payload)  # second load stays quiet

    def test_conflicting_interarrival_and_arrivals_rejected(self):
        payload = _open_cluster(process="poisson", mean_interarrival=5.0)
        payload["cluster"]["interarrival"] = 20.0
        with pytest.raises(ConfigurationError, match="conflicts"):
            ScenarioSpec.from_dict(payload)

    def test_consistent_interarrival_and_arrivals_accepted(self):
        payload = _open_cluster(process="poisson", mean_interarrival=20.0)
        payload["cluster"]["interarrival"] = 20.0
        with pytest.warns(DeprecationWarning):
            spec = ScenarioSpec.from_dict(payload)
        assert spec.cluster.arrivals["process"] == "poisson"


# --------------------------------------------------------------------------
# files
# --------------------------------------------------------------------------


class TestFiles:
    def test_from_file_by_suffix(self, tmp_path):
        spec = _full_spec()
        json_path = tmp_path / "spec.json"
        json_path.write_text(spec.to_json(), encoding="utf-8")
        assert ScenarioSpec.from_file(json_path) == spec

    def test_unknown_suffix_rejected(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("name: x", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="unknown scenario spec format"):
            ScenarioSpec.from_file(path)

    def test_missing_file_reports_cleanly(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            ScenarioSpec.from_file(tmp_path / "absent.toml")

    def test_example_specs_load(self):
        from pathlib import Path

        examples = Path(__file__).resolve().parents[2] / "examples"
        for name in (
            "lu_sim.toml",
            "lu_testbed.toml",
            "matmul_packet.json",
            "server_eager.toml",
            "server_sharded.toml",
            "server_open_poisson.toml",
            "server_bursty_admission.toml",
        ):
            spec = ScenarioSpec.from_file(examples / name)
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec
