"""Integration: the paper's measured-vs-predicted loop, pinned.

``benchmarks/fidelity.py`` holds the 34 LU configurations of Figs. 8-13
and the rows of the paper's other claims; ``FIDELITY.json`` is their
committed outcome.  Tier-1 regenerates the ``reduced`` section once —
calibrate the network on the testbed, measure, simulate, compare, at
n = 1296 — and expects every ``repr`` back, so a refactor cannot move a
prediction inside its band unseen; the tests below then assert the
paper's qualitative claims on those pairs.  The ``apps`` section is
replayed the same way.  Every other section (paper size; regenerated by
``--check`` in CI) is only re-read: every view's shape must hold on the
committed numbers.  Measurement noise is the one claim that needs seeds
the ``reduced`` section does not hold; its test runs them.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.analysis.parallel import run_records

pytest.importorskip("numpy")

_spec = importlib.util.spec_from_file_location(
    "fidelity", Path(__file__).resolve().parents[2] / "benchmarks" / "fidelity.py"
)
fidelity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fidelity)

COMMITTED = json.loads(fidelity.FIDELITY_JSON.read_text())
ITERATIONS = fidelity.ITERATIONS


@pytest.fixture(scope="module")
def reduced():
    return fidelity.run_section("reduced")


@pytest.fixture(scope="module")
def pair(reduced):
    """``pair(label)``: one regenerated seed-1 pair of the reduced section."""
    return lambda label: fidelity.Pair(reduced["pairs"][f"{label}/s1"])


def test_table_is_the_papers_34_configurations():
    assert len(fidelity.CONFIGS) == 34
    labels = fidelity.SECTIONS["reduced"].labels
    reduced = [fidelity.CONFIGS[label] for label in labels]
    # Every variant and every removal schedule at least once.
    variants = {
        (o.get("pipelined", False), "flow_control" in o, "pm_subblock" in o)
        for o, _ in reduced
    }
    assert len(variants) == 6
    assert {events for _, events in fidelity.CONFIGS.values()} == {
        events for _, events in reduced
    }


def test_every_section_spec_builds_its_app_config():
    """Every section's specs pass their app config's type and range checks."""
    from repro.scenario import default_registry

    registry = default_registry()
    for name, section in fidelity.SECTIONS.items():
        if isinstance(section, fidelity.Rows):
            specs = section.rows().values()
        else:
            specs = [
                spec
                for label in section.labels
                for spec in fidelity.section_pair(name, label, section.seeds[0])
            ]
        for spec in specs:
            registry.resolve("app", spec.app.name).make_config(spec)


def test_reduced_section_replays_bit_exactly(reduced):
    assert fidelity.differences(COMMITTED["reduced"], reduced) == []


def test_apps_section_replays_bit_exactly():
    assert fidelity.differences(COMMITTED["apps"], fidelity.run_section("apps")) == []


def test_every_registered_app_has_a_pinned_claim():
    """An app earns its registry entry with a measured-vs-predicted row;
    LU's are the ``CONFIGS`` sections."""
    from repro.scenario import default_registry

    labels = COMMITTED["apps"]["rows"]
    for app in default_registry().names("app"):
        if app != "lu":
            assert any(label.startswith(f"{app}-") for label in labels), app


@pytest.mark.parametrize(
    "name", [name for name, section in fidelity.SECTIONS.items() if section.views]
)
def test_every_view_holds_on_the_committed_section(name):
    section = COMMITTED[name]
    assert fidelity.check_views(name, section) == section["figures"]


def test_every_label_predicts_one_value_on_every_seed():
    pairs = COMMITTED["full"]["pairs"]
    assert len(pairs) == 34 * 5 == 170
    # A prediction draws nothing from the seed: one value per label.
    predictions = {}
    for key, entry in pairs.items():
        predictions.setdefault(key.rsplit("/", 1)[0], set()).add(entry["predicted"])
    assert len(predictions) == 34
    assert all(len(values) == 1 for values in predictions.values())


def test_measurement_noise_across_seeds_is_small(pair):
    # Two more "runs of the real cluster" beside the section's seed 1: the
    # testbed honours ``engine.seed``, and run-to-run variation is percent-level.
    specs = [fidelity.section_pair("reduced", "4thr", seed)[0] for seed in (2, 3)]
    records = run_records(specs, jobs=1)
    times = [pair("4thr").measured, *(record.makespan for record in records)]
    assert 0 < (max(times) - min(times)) / min(times) < 0.05


def test_prediction_accuracy_across_variants(pair):
    # basic, P, P+FC at r = 162 and a coarser / finer basic (labels name
    # the paper-size r; this section runs r/2).
    labels = ("4thr", "P-r324-4n", "P+FC-r324-4n", "basic-r648-4n", "basic-r216-4n")
    errors = [abs(pair(label).error) for label in labels]
    # Every prediction within the paper's overall +-12% envelope.
    assert max(errors) <= 0.12
    assert sum(errors) / len(errors) < 0.06


def test_pipelining_improves_at_scale(pair):
    basic, piped = pair("basic-r324-8n"), pair("P-r324-8n")
    assert piped.measured < basic.measured
    assert piped.predicted < basic.predicted


def test_dynamic_removal_measured_and_predicted_agree(pair):
    kill = pair("kill4@1")
    assert abs(kill.error) < 0.12
    # Both engines record the node deallocation after the same iteration.
    for nodes in kill.nodes.values():
        assert nodes["iter1"] > 7.99 and nodes["iter2"] == nodes["iter8"] == 4.0


def test_dynamic_efficiency_decays_and_prediction_tracks_it(pair):
    efficiency = pair("basic-r324-8n").efficiency
    measured, predicted = efficiency["measured"], efficiency["predicted"]
    assert list(measured) == ITERATIONS
    # Efficiency decreases from the first to the last iterations.
    assert measured["iter1"] > measured["iter7"]
    assert predicted["iter1"] > predicted["iter7"]
    # Predicted per-iteration efficiency tracks the measured one early on.
    for it in ITERATIONS[:4]:
        assert predicted[it] == pytest.approx(measured[it], rel=0.25)


def test_fewer_nodes_higher_efficiency_lower_speed(pair):
    small, large = pair("4thr"), pair("basic-r324-8n")
    assert large.measured < small.measured  # more nodes: faster...
    assert large.iteration_efficiency < small.iteration_efficiency  # ...less efficient
