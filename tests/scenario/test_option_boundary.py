"""One option boundary: every option a spec can set is checked against the
signature of the callable it is passed to.

The options are enumerated from the signatures themselves — every
registered plugin of every kind, every spec section field, every fault
event field — and each gets a wrong-typed value, a ``bool`` where an
``int`` is declared and ``NaN`` where a ``float`` is.  Each must be a
:class:`ConfigurationError` naming the option before any engine runs.  A
new plugin whose keyword parameter carries no annotation the checker
understands fails :func:`test_every_option_is_declared`.

Runs on the numpy-less install too: options are checked before a model
is built, and building is all that needs numpy.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.clusterserver.server import ClusterServer
from repro.clusterserver.sharded import ShardedServer
from repro.errors import ConfigurationError
from repro.faults import FaultEvent
from repro.netmodel.params import NetworkParams
from repro.scenario import ScenarioSpec, default_registry, run_scenario
from repro.scenario.spec import _SECTION_TYPES
from repro.sim.simulator import DPSSimulator
from repro.testbed.executor import TestbedExecutor
from repro.util.validation import _declaration

REGISTRY = default_registry()
LU = {"n": 192, "r": 48, "num_threads": 4, "num_nodes": 2}
NAN = float("nan")

#: Parameters whose type a spec cannot express: setting one is an error
#: naming it, and they are the only such parameters a plugin may have.
NOT_SETTABLE = {"packet_params"}


def _dps(**sections) -> dict:
    payload = {
        "app": {"name": "lu", "options": dict(LU)},
        "engine": {"name": "sim", "mode": "noalloc"},
    }
    payload.update(sections)
    return payload


def _server(arrivals=None, **cluster) -> dict:
    arrivals = arrivals or {"process": "poisson", "jobs": 2}
    return {
        "app": {"name": "lu"},
        "engine": {"name": "server"},
        "cluster": {"nodes": 8, "arrivals": arrivals, **cluster},
    }


def _trace(tmp_path: Path, *lines) -> str:
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return str(path)


# --------------------------------------------------------------------------
# the declarations, per option table
# --------------------------------------------------------------------------


def _tables(tmp_path: Path):
    """``(label, declaration, where, build)`` for every option table:
    ``build(options)`` is a spec payload setting them."""
    for section, cls in _SECTION_TYPES.items():
        base = {"name": "star"} if section in ("netmodel", "cpumodel") else {}
        yield (
            f"section {section}", _declaration(cls, 0, ()), section,
            lambda o, s=section, b=base: {s: {**b, **o}},
        )
    yield (
        "fault event", _declaration(FaultEvent, 0, ()), "faults.events",
        lambda o: {"faults": {"events": [{"kind": "crash", "at": 1.0, **o}]}},
    )
    yield (
        "platform", _declaration(NetworkParams, 0, ("per_object_overhead",)),
        "platform.options",
        lambda o: _dps(platform={"options": o}),
    )
    for name in REGISTRY.names("app"):
        cls = REGISTRY.resolve("app", name).config_cls
        base = LU if name == "lu" else {}
        yield (
            f"app {name}", _declaration(cls, 0, ("mode", "schedule")),
            "app.options",
            lambda o, n=name, b=base: _dps(
                app={"name": n, "options": {**b, **o}}
            ),
        )
    for kind in ("netmodel", "cpumodel"):
        for name in REGISTRY.names(kind):
            yield (
                f"{kind} {name}", _declaration(REGISTRY.resolve(kind, name), 2, ()),
                f"{kind}.options",
                lambda o, k=kind, n=name: _dps(**{k: {"name": n, "options": o}}),
            )
    for name in REGISTRY.names("provider"):
        yield (
            f"provider {name}",
            _declaration(REGISTRY.resolve("provider", name), 5, ()),
            "provider.options",
            lambda o, n=name: _dps(provider={"name": n, "options": o}),
        )
    path = _trace(tmp_path, {"arrival": 1.0, "phase_work": [2.0]})
    for name in REGISTRY.names("workload"):
        base = {"process": name, "jobs": 2}
        if name == "trace":
            base["path"] = path
        yield (
            f"workload {name}",
            _declaration(REGISTRY.resolve("workload", name), 0, ("shape",)),
            "cluster.arrivals",
            lambda o, b=base: _server(arrivals={**b, **o}),
        )
    for name in REGISTRY.names("policy"):
        factory = REGISTRY.resolve("policy", name)
        if not hasattr(factory, "__wrapped__"):
            continue  # a plain policy takes no policy_options
        base = {"max_active": 4} if name == "admission" else {}
        settable, fixed, open_ = _declaration(factory, 1, ())
        settable = {**settable, "inner": (str, False, False)}
        yield (
            f"policy {name}", (settable, fixed, open_), "cluster.policy_options",
            lambda o, n=name, b=base: _server(
                policy=n, policy_options={**b, **o}
            ),
        )


def _bad_values(expected):
    yield 3 if isinstance("x", expected) else "x"
    if expected is int:
        yield True
    if expected is float:
        yield NAN


@pytest.fixture
def no_engine(monkeypatch):
    """Every engine refuses to start: errors must come before."""

    def started(*args, **kwargs):
        raise AssertionError("an engine started")

    for cls in (DPSSimulator, TestbedExecutor, ClusterServer, ShardedServer):
        monkeypatch.setattr(cls, "run", started)


def test_every_option_is_declared(tmp_path):
    """A keyword parameter a spec can reach has an annotation the checker
    understands, and no option table runs into ``**kwargs``."""
    for label, (settable, fixed, open_), _, _ in _tables(tmp_path):
        assert not open_, f"{label} takes **kwargs: its options go unchecked"
        undeclared = {
            name for name, why in fixed.items()
            if why != "is supplied by the engine"
        }
        assert undeclared <= NOT_SETTABLE, (label, undeclared)


def test_every_bad_option_names_itself_before_any_engine_runs(
    tmp_path, no_engine
):
    checked = 0
    for label, (settable, fixed, _), where, build in _tables(tmp_path):
        for name, (expected, _, _) in settable.items():
            for bad in _bad_values(expected):
                with pytest.raises(ConfigurationError) as exc:
                    run_scenario(ScenarioSpec.from_dict(build({name: bad})))
                assert f"{where}.{name} " in str(exc.value), (label, bad)
                checked += 1
        for name in fixed:
            with pytest.raises(ConfigurationError, match=f"{where}.{name} "):
                run_scenario(ScenarioSpec.from_dict(build({name: 3})))
    assert checked > 150


# --------------------------------------------------------------------------
# the reproduced cases, one row each
# --------------------------------------------------------------------------

REPRODUCED = [
    # tracebacks
    ({"app": {"name": "stencil", "options": {"iterations": 2.0}}},
     "app.options.iterations must be of type int"),
    ({"app": {"name": "matmul", "options": {"s": 16.0}}},
     "app.options.s must be of type int"),
    ({"app": {"name": "lu", "options": {**LU, "flow_control": 2.5}}},
     "app.options.flow_control must be of type int"),
    ({"netmodel": {"name": "backplane", "options": {"capacity": "x"}}},
     "netmodel.options.capacity must be of type int or float"),
    ({"netmodel": {"name": "maxmin", "options": {"cascade_threshold": NAN}}},
     "netmodel.options.cascade_threshold must be finite"),
    ({"netmodel": {"name": "packet", "options": {"packet_params": 3}}},
     "netmodel.options.packet_params cannot be set in a spec"),
    # silent runs
    ({"app": {"name": "sort", "options": {"m": 4096.5}}},
     "app.options.m must be of type int"),
    ({"app": {"name": "sort", "options": {"seed": 1.5}}},
     "app.options.seed must be of type int"),
    ({"app": {"name": "lu", "options": {**LU, "matrix_seed": 1.5}}},
     "app.options.matrix_seed must be of type int"),
    ({"app": {"name": "stencil", "options": {"barrier": "no"}}},
     "app.options.barrier must be of type bool"),
    ({"netmodel": {"name": "backplane", "options": {"capacity": NAN}}},
     "netmodel.options.capacity must be finite"),
    (_server(policy="admission", policy_options={"max_active": 2.5}),
     "cluster.policy_options.max_active must be of type int"),
    (_server(policy="admission", policy_options={"max_active": 2, "defer": "no"}),
     "cluster.policy_options.defer must be of type bool"),
    (_server(policy="autoscale", policy_options={"min_nodes": 1.5}),
     "cluster.policy_options.min_nodes must be of type int"),
    # Python's internal TypeError text
    ({"app": {"name": "sort", "options": {"oversample": "4"}}},
     "app.options.oversample must be of type int"),
    ({"app": {"name": "matmul", "options": {"n": "64"}}},
     "app.options.n must be of type int"),
    ({"cpumodel": {"name": "shared", "options": {"comm_cost": 3}}},
     "cpumodel.options.comm_cost is supplied by the engine"),
    # non-finite fault times and factors
    ({"faults": {"events": [{"kind": "crash", "node": 1, "at": float("inf")}]}},
     "faults.events.at must be finite"),
    ({"faults": {"events": [
        {"kind": "brownout", "at": 1.0, "duration": 2.0, "factor": NAN}]}},
     "faults.events.factor must be finite"),
    # top-level keys
    ({"events": 3}, "events must be a string or a list of strings"),
    ({"name": 3}, "name must be of type str"),
    ({"name": ""}, "non-empty name"),
    # the numpy-less install gives the same errors
    ({"netmodel": {"name": "packet", "options": {"verify_incremental": "no"}}},
     "netmodel.options.verify_incremental must be of type bool"),
    ({"netmodel": {"name": "packet", "options": {"cascade_threshold": "x"}}},
     "netmodel.options.cascade_threshold must be of type int or float"),
    ({"netmodel": {"name": "packet-soa", "options": {"seed": "x"}}},
     "netmodel.options.seed must be of type int"),
]


@pytest.mark.parametrize(
    "change, complaint", REPRODUCED, ids=[c for _, c in REPRODUCED]
)
def test_reproduced_case_is_a_configuration_error(change, complaint, no_engine):
    payload = change if "engine" in change else _dps(**change)
    with pytest.raises(ConfigurationError) as exc:
        run_scenario(ScenarioSpec.from_dict(payload))
    assert complaint in str(exc.value)


TRACE_LINES = [
    ({"arrival": 1.0, "phase_work": "12"}, "phase_work must be of type list or tuple"),
    ({"arrival": "5", "phase_work": [1.0]}, "arrival must be of type int or float"),
    ({"arrival": True, "phase_work": [1.0]}, "arrival must be of type int or float"),
    ({"arrival": 1.0, "phase_work": [1.0], "max_nodes": 2.7},
     "max_nodes must be of type int"),
    ({"arrival": 1.0, "phase_work": [1.0], "max_nodes": "4"},
     "max_nodes must be of type int"),
    ({"arrival": 1.0, "phase_work": [NAN]}, "phase_work must be finite"),
    ({"arrival": 1.0, "phase_work": []}, "at least one phase"),
    ({"arrival": NAN, "phase_work": [1.0]}, "arrival must be finite"),
]


@pytest.mark.parametrize(
    "line, complaint", TRACE_LINES, ids=[c for _, c in TRACE_LINES]
)
def test_trace_line_is_checked_not_coerced(tmp_path, line, complaint):
    path = _trace(tmp_path, {"arrival": 0.0, "phase_work": [1.0]}, line)
    spec = ScenarioSpec.from_dict(
        _server(arrivals={"process": "trace", "path": path})
    )
    with pytest.raises(ConfigurationError) as exc:
        run_scenario(spec)
    assert str(exc.value).startswith("trace.jsonl:2: ")
    assert complaint in str(exc.value)
