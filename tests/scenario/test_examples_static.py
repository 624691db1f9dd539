"""Every shipped example spec loads through the strict ScenarioSpec
loaders without executing an engine (the static half of the
scenario-matrix CI job; REP-R002 enforces the same contract)."""

from pathlib import Path

import pytest

from repro.scenario import ScenarioSpec, default_registry
from repro.scenario.spec import tomllib

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
SPECS = sorted(
    p for p in EXAMPLES.iterdir() if p.suffix in (".toml", ".json")
)


def test_examples_directory_has_specs():
    assert SPECS, f"no example specs found under {EXAMPLES}"


@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.name)
def test_example_spec_loads(path):
    if path.suffix == ".toml" and tomllib is None:
        pytest.skip("TOML specs need Python 3.11+")
    spec = ScenarioSpec.from_file(path)
    assert spec.name, f"{path.name}: spec must carry a name"
    assert spec.app.name
    assert spec.engine.name
    # The app config's own type and range checks accept it too.
    default_registry().resolve("app", spec.app.name).make_config(spec)
