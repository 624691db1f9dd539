"""Satellite 4: the canonical dedup key collides exactly when it should.

Property tests over :func:`repro.service.jobs.spec_key`:

* every surface form of one scenario — partial dict (defaults implied),
  fully-expanded canonical dict, JSON round-trip, TOML round-trip,
  :class:`~repro.scenario.spec.ScenarioSpec` instance — hashes to the
  same key;
* any semantic difference (a changed seed, node count, policy, app
  option...) yields a different key.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.scenario.spec import ScenarioSpec, tomllib
from repro.service.jobs import spec_key

# ---------------------------------------------------------------- strategies

_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
)

_engine_sections = st.one_of(
    st.fixed_dictionaries(
        {"name": st.just("sim")},
        optional={
            "mode": st.sampled_from(["pdexec", "noalloc", "direct"]),
            "seed": st.integers(min_value=1, max_value=9),
        },
    ),
    st.fixed_dictionaries(
        {"name": st.just("server")},
        optional={"seed": st.integers(min_value=1, max_value=9)},
    ),
)

_cluster_sections = st.fixed_dictionaries(
    {},
    optional={
        "nodes": st.integers(min_value=1, max_value=64),
        "nodes_per_job": st.integers(min_value=1, max_value=32),
        "efficiency_floor": st.floats(
            min_value=0.0, max_value=1.0, allow_nan=False
        ),
        "policy": st.sampled_from(["fcfs", "adaptive", "static", "backfill"]),
    },
)

_partial_specs = st.fixed_dictionaries(
    {"name": _names},
    optional={
        "app": st.fixed_dictionaries({"name": st.just("lu")}),
        "engine": _engine_sections,
        "cluster": _cluster_sections,
    },
)


def _toml_document(data: dict) -> str:
    """Render a (flat-sectioned) spec dict as TOML."""
    lines = []
    tables = []
    for key, value in data.items():
        if isinstance(value, dict):
            tables.append((key, value))
        else:
            lines.append(f"{key} = {json.dumps(value)}")
    for section, body in tables:
        lines.append(f"[{section}]")
        for key, value in body.items():
            if isinstance(value, dict):
                continue  # handled by callers that need nested tables
            lines.append(f"{key} = {json.dumps(value)}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------- the laws


@settings(max_examples=60, deadline=None)
@given(_partial_specs)
def test_all_surface_forms_share_one_key(partial: dict):
    spec = ScenarioSpec.from_dict(partial)
    canonical = spec.to_dict()

    keys = {
        "partial dict": spec_key(partial),
        "spec object": spec_key(spec),
        "canonical dict": spec_key(canonical),
        "json round-trip": spec_key(
            ScenarioSpec.from_json(json.dumps(canonical))
        ),
        "re-parsed canonical": spec_key(ScenarioSpec.from_dict(canonical)),
    }
    assert len(set(keys.values())) == 1, keys


@settings(max_examples=60, deadline=None)
@given(_partial_specs, _partial_specs)
def test_distinct_specs_never_collide(a: dict, b: dict):
    spec_a = ScenarioSpec.from_dict(a)
    spec_b = ScenarioSpec.from_dict(b)
    if spec_a.to_dict() == spec_b.to_dict():
        assert spec_key(a) == spec_key(b)
    else:
        assert spec_key(a) != spec_key(b)


@pytest.mark.skipif(tomllib is None, reason="tomllib needs Python >= 3.11")
@settings(max_examples=40, deadline=None)
@given(_partial_specs)
def test_toml_form_shares_the_key(partial: dict):
    document = _toml_document(partial)
    assert spec_key(ScenarioSpec.from_toml(document)) == spec_key(partial)


def test_semantic_differences_change_the_key():
    base = {
        "name": "k",
        "app": {"name": "lu"},
        "engine": {"name": "server", "seed": 2},
        "cluster": {
            "nodes": 8,
            "policy": "fcfs",
            "arrivals": {"process": "poisson", "jobs": 4},
        },
    }
    variants = [
        {**base, "engine": {"name": "server", "seed": 3}},
        {**base, "cluster": {**base["cluster"], "nodes": 9}},
        {**base, "cluster": {**base["cluster"], "policy": "adaptive"}},
        {**base, "cluster": {
            **base["cluster"], "arrivals": {"process": "poisson", "jobs": 5},
        }},
        {**base, "app": {"name": "lu", "options": {"n": 216}}},
        {**base, "name": "other"},
    ]
    keys = [spec_key(base)] + [spec_key(v) for v in variants]
    assert len(set(keys)) == len(keys)


def test_default_sections_do_not_change_the_key():
    # Spelling out a default explicitly is not a semantic difference.
    implicit = {"name": "d", "engine": {"name": "server"}}
    explicit = {
        "name": "d",
        "app": {"name": "lu"},
        "engine": {"name": "server", "seed": 1},
    }
    assert spec_key(implicit) == spec_key(explicit)


def test_key_is_stable_hex():
    key = spec_key({"name": "stable", "engine": {"name": "server"}})
    assert len(key) == 32
    int(key, 16)  # pure hex
    assert key == spec_key({"name": "stable", "engine": {"name": "server"}})
