"""The declarative fault layer: events, plans, specs, registry plumbing.

Covers the ``[faults]`` section's contract (``docs/faults.md``): lossless
TOML/JSON round-trip through the canonical spec dict, strict structural
validation, deterministic seeded target-node resolution, pluggable fault
kinds through the scenario registry, and the DPS engines' refusal of the
section: they lose capacity only through a spec's ``events`` list.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    BUILTIN_FAULT_KINDS,
    FaultEvent,
    FaultKind,
    FaultPlan,
    event_from_dict,
    normalize_fault_event,
    resolve_fault_kind,
)
from repro.scenario import run_scenario
from repro.scenario.builtins import install_builtins
from repro.scenario.registry import Registry
from repro.scenario.spec import FaultsSection, ScenarioSpec

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


class TestEvents:
    def test_to_dict_round_trips_and_omits_defaults(self):
        ev = FaultEvent(kind="crash", at=10.0, node=3)
        payload = ev.to_dict()
        assert payload == {"kind": "crash", "at": 10.0, "node": 3}
        assert event_from_dict(payload) == ev

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            normalize_fault_event({"kind": "crash", "at": 1.0, "when": 2.0})

    def test_float_keys_coerce_ints_and_int_keys_stay_strict(self):
        ev = event_from_dict({"kind": "crash", "at": 5, "node": 2})
        assert ev.at == 5.0 and isinstance(ev.at, float)
        with pytest.raises(ConfigurationError):
            normalize_fault_event({"kind": "crash", "at": 1.0, "node": 2.5})
        with pytest.raises(ConfigurationError):
            normalize_fault_event({"kind": "crash", "at": 1.0, "node": True})

    def test_builtin_validation(self):
        resolve_fault_kind("brownout").validate(
            FaultEvent(kind="brownout", at=1.0, duration=2.0)
        )
        with pytest.raises(ConfigurationError):
            resolve_fault_kind("brownout").validate(
                FaultEvent(kind="brownout", at=1.0)  # needs duration > 0
            )
        with pytest.raises(ConfigurationError):
            resolve_fault_kind("degrade").validate(
                FaultEvent(kind="degrade", at=1.0, factor=1.5)
            )
        with pytest.raises(ConfigurationError):
            resolve_fault_kind("killjob").validate(
                FaultEvent(kind="killjob", at=1.0)  # needs a job index
            )
        with pytest.raises(ConfigurationError, match="'at'"):
            resolve_fault_kind("crash").validate(FaultEvent(kind="crash"))

    def test_unknown_kind_names_choices(self):
        with pytest.raises(ConfigurationError, match="crash"):
            resolve_fault_kind("meteor")

    def test_removed_after_key_names_events_at_parse(self):
        crash = {"kind": "crash", "node": 1, "after": 2}
        with pytest.raises(ConfigurationError, match="'events'"):
            normalize_fault_event(crash)
        with pytest.raises(ConfigurationError, match="'events'"):
            ScenarioSpec.from_dict({"faults": {"events": [crash]}})


class TestSpecSection:
    def _dict_spec(self):
        return {
            "name": "faulty",
            "app": {"name": "lu"},
            "engine": {"name": "server", "seed": 11},
            "cluster": {
                "nodes": 8,
                "policy": "equipartition",
                "arrivals": {"process": "poisson", "jobs": 4},
            },
            "faults": {
                "max_retries": 1,
                "events": [
                    {"kind": "crash", "at": 50.0, "node": 2},
                    {"kind": "degrade", "at": 10.0, "factor": 0.5,
                     "duration": 30.0},
                ],
            },
        }

    def test_dict_round_trip_is_fixed_point(self):
        spec = ScenarioSpec.from_dict(self._dict_spec())
        canonical = spec.to_dict()
        again = ScenarioSpec.from_dict(json.loads(json.dumps(canonical)))
        assert again == spec
        assert again.to_dict() == canonical

    def test_toml_and_dict_forms_agree(self):
        toml_text = """
name = "faulty"

[app]
name = "lu"

[engine]
name = "server"
seed = 11

[cluster]
nodes = 8
policy = "equipartition"
arrivals = {process = "poisson", jobs = 4}

[faults]
max_retries = 1

[[faults.events]]
kind = "crash"
at = 50.0
node = 2

[[faults.events]]
kind = "degrade"
at = 10.0
factor = 0.5
duration = 30.0
"""
        assert ScenarioSpec.from_toml(toml_text) == ScenarioSpec.from_dict(
            self._dict_spec()
        )

    def test_default_section_is_omitted_from_canonical_dict(self):
        # Pre-fault specs must keep their spec_key: no faults, no key.
        spec = ScenarioSpec.from_dict({"name": "plain"})
        assert spec.faults == FaultsSection()
        assert "faults" not in spec.to_dict()

    def test_bad_section_values_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict(
                {"name": "bad", "faults": {"max_retries": -1}}
            )
        with pytest.raises(ConfigurationError):
            # builtin kinds are semantically validated at parse time
            ScenarioSpec.from_dict(
                {"name": "bad",
                 "faults": {"events": [{"kind": "brownout", "at": 1.0}]}}
            )

    def test_unknown_kinds_parse_cleanly(self):
        # Custom registry kinds must survive spec parsing; they resolve
        # (and fail, if unregistered) when the engine builds the plan.
        spec = ScenarioSpec.from_dict(
            {"name": "custom",
             "faults": {"events": [{"kind": "flicker", "at": 1.0}]}}
        )
        assert spec.faults.events[0]["kind"] == "flicker"


class TestPlanResolution:
    def test_seeded_node_resolution_is_deterministic(self):
        plan = FaultPlan(
            events=(FaultEvent(kind="crash", at=5.0),), seed=42
        )
        a = plan.resolve(total_nodes=16)
        b = plan.resolve(total_nodes=16)
        assert a == b
        assert 0 <= a.events[0].node < 16
        other = FaultPlan(
            events=(FaultEvent(kind="crash", at=5.0),), seed=43
        ).resolve(total_nodes=10**6)
        assert other.events[0].node != a.events[0].node  # seed matters

    def test_section_seed_inherits_engine_seed(self):
        section = FaultsSection(
            events=({"kind": "crash", "at": 1.0},), max_retries=0
        )
        plan = FaultPlan.from_section(section, engine_seed=7)
        assert plan.seed == 7
        pinned = FaultPlan.from_section(
            FaultsSection(seed=3, events=({"kind": "crash", "at": 1.0},)),
            engine_seed=7,
        )
        assert pinned.seed == 3

    def test_out_of_range_node_rejected(self):
        plan = FaultPlan(events=(FaultEvent(kind="crash", at=1.0, node=9),))
        with pytest.raises(ConfigurationError):
            plan.compile(total_nodes=4)

    def test_empty_plan_compiles_to_no_entries(self):
        compiled = FaultPlan().compile(total_nodes=4)
        assert compiled.entries == ()


class TestRegistryPluggability:
    def test_builtins_registered_under_fault_kind(self):
        registry = install_builtins(Registry(name="t"))
        for name in BUILTIN_FAULT_KINDS:
            assert registry.resolve("fault", name).name == name

    def test_custom_kind_resolves_and_compiles(self):
        registry = install_builtins(Registry(name="t"))

        def _validate(ev):
            if ev.at < 0:
                raise ConfigurationError("flicker needs at >= 0")

        def _timeline(ev):
            # A one-tick brown-out: down and back up immediately after.
            return [(ev.at, "down", ev.node), (ev.at + 0.5, "up", ev.node)]

        registry.register(
            "fault",
            "flicker",
            FaultKind(
                name="flicker",
                validate=_validate,
                timeline=_timeline,
                targets_node=True,
            ),
            description="instant node flicker",
        )
        plan = FaultPlan(
            events=(FaultEvent(kind="flicker", at=3.0, node=1),)
        )
        compiled = plan.compile(total_nodes=4, registry=registry)
        ops = [(t, op, arg) for t, _seq, op, arg in compiled.entries]
        assert ops == [(3.0, "down", 1), (3.5, "up", 1)]


class TestDpsEngines:
    """A DPS run loses capacity only through the spec's ``events`` list."""

    #: (makespan repr, events) of ``lu_crash_malleability.toml`` per engine,
    #: recorded when the example still spelled its kill as a ``crash``
    #: fault with ``after = 2``; the ``events`` spelling replays them.
    PINS = {
        "sim": ("2.4035289652510947", 202),
        "testbed": ("2.4380696543513296", 222),
    }

    def _spec(self, engine):
        # engine.seed stays the default 1: the testbed twin's noise seed.
        spec = ScenarioSpec.from_file(EXAMPLES / "lu_crash_malleability.toml")
        return dataclasses.replace(
            spec, engine=dataclasses.replace(spec.engine, name=engine)
        )

    @pytest.mark.parametrize("engine", sorted(PINS))
    def test_crash_example_replays_its_pin(self, engine):
        pytest.importorskip("numpy")  # the LU kernels and testbed noise
        record = run_scenario(self._spec(engine))
        assert (repr(record.makespan), record.events) == self.PINS[engine]

    @pytest.mark.parametrize("engine", sorted(PINS))
    def test_faults_section_is_refused_naming_events(self, engine):
        spec = dataclasses.replace(
            self._spec(engine),
            faults=FaultsSection(
                events=({"kind": "crash", "at": 1.0, "node": 1},)
            ),
        )
        with pytest.raises(ConfigurationError, match="'events'"):
            run_scenario(spec)
