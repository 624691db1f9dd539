"""The command-line interface: parsing, each subcommand, error paths."""

import json

import pytest

from repro.cli import build_parser, main
from repro.dps.malleability import STATIC
from repro.errors import ConfigurationError
from repro.scenario.spec import MODE_NAMES, parse_kill_events, parse_mode
from repro.sim.modes import SimulationMode


# --------------------------------------------------------------------------
# option parsing helpers
# --------------------------------------------------------------------------


class TestParseMode:
    def test_known_modes(self):
        assert parse_mode("direct") is SimulationMode.DIRECT
        assert parse_mode("pdexec") is SimulationMode.PDEXEC
        assert parse_mode("noalloc") is SimulationMode.PDEXEC_NOALLOC

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            parse_mode("direct-but-wrong")

    def test_mode_names_cover_enum(self):
        assert set(MODE_NAMES.values()) == set(SimulationMode)


def run_spec(tmp_path, app, options, engine=None, **sections):
    """``repro run`` on a JSON spec written from its sections."""
    payload = {
        "app": {"name": app, "options": options},
        "engine": {"name": "sim", **(engine or {})},
        **sections,
    }
    path = tmp_path / f"{app}.json"
    path.write_text(json.dumps(payload))
    return main(["run", str(path)])


MATMUL = {"n": 96, "s": 24, "num_threads": 4, "num_nodes": 2}
STENCIL = {"n": 48, "stripes": 4, "iterations": 3, "num_threads": 4}


def test_matmul_direct_mode(tmp_path, capsys):
    code = run_spec(
        tmp_path, "matmul", MATMUL, {"mode": "direct", "verify": True}
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "verification           : OK" in out


class TestParseKill:
    def test_none_is_static(self):
        assert parse_kill_events(None) is STATIC
        assert parse_kill_events([]) is STATIC

    def test_single_event(self):
        sched = parse_kill_events(["4,5,6,7@1"])
        assert len(sched.events) == 1
        event = sched.events[0]
        assert event.after_phase == "iter1"
        assert event.group == "workers"
        assert event.thread_indices == (4, 5, 6, 7)

    def test_multiple_events(self):
        sched = parse_kill_events(["6,7@2", "4,5@3"])
        assert [e.after_phase for e in sched.events] == ["iter2", "iter3"]
        assert sched.total_removed == 4

    def test_bad_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_kill_events(["4,5"])
        with pytest.raises(ConfigurationError):
            parse_kill_events(["x@1"])
        with pytest.raises(ConfigurationError):
            parse_kill_events(["@1"])


# --------------------------------------------------------------------------
# parser structure
# --------------------------------------------------------------------------


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


@pytest.mark.parametrize("command", ["calibrate", "graph"])
def test_all_commands_registered(command):
    parser = build_parser()
    extra = ["lu"] if command == "graph" else []
    args = parser.parse_args([command] + extra)
    assert callable(args.func)


def test_help_lists_exactly_the_commands(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    out = capsys.readouterr().out
    assert "{run,scenarios,calibrate,cache,graph,serve,trend,check}" in out


@pytest.mark.parametrize(
    "command", ["lu", "stencil", "sort", "matmul", "server", "efficiency", "sweep"]
)
def test_removed_run_commands_are_invalid_choices(command, capsys):
    """A scenario runs only as ``repro run SPEC``; no alias remains.

    ``sweep`` was a second spelling of ``validation_pair`` rows; the pinned
    pairs live in ``benchmarks/fidelity.py``."""
    with pytest.raises(SystemExit) as stop:
        main([command])
    assert stop.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


# --------------------------------------------------------------------------
# one spec per app and engine (small configurations)
# --------------------------------------------------------------------------


def test_lu_variants_and_kill(tmp_path, capsys):
    lu = {"n": 648, "r": 162, "num_threads": 4, "num_nodes": 2}
    code = run_spec(
        tmp_path, "lu", dict(lu, pipelined=True, flow_control=4),
        {"mode": "noalloc"},
    )
    assert code == 0
    assert "per-phase dynamic efficiency" in capsys.readouterr().out

    code = run_spec(
        tmp_path, "lu", dict(lu, num_nodes=4), {"mode": "noalloc"},
        events=["2,3@1"],
    )
    out = capsys.readouterr().out
    assert code == 0
    # Fig. 11: after the removal the remaining iterations run on 2 nodes.
    rows = [line.split() for line in out.splitlines() if line.startswith("iter")]
    assert rows[0][3] == "4.00" and rows[-1][3] == "2.00"


def test_stencil_both_engines_with_verify(tmp_path, capsys):
    """Predicting and measuring one configuration is two specs."""
    for engine in ("sim", "testbed"):
        code = run_spec(
            tmp_path, "stencil", dict(STENCIL, num_nodes=2),
            {"name": engine, "verify": True},
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"engine={engine}" in out
        assert "verification           : OK" in out


def test_stencil_kill_without_barrier_fails(tmp_path, capsys):
    code = run_spec(
        tmp_path, "stencil", dict(STENCIL, num_nodes=4), events=["2,3@1"]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_sort_testbed_with_verify(tmp_path, capsys):
    code = run_spec(
        tmp_path, "sort", {"m": 3000, "num_threads": 4, "num_nodes": 2},
        {"name": "testbed", "verify": True},
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "engine=testbed" in out
    assert "verification           : OK" in out


def test_matmul_sim(tmp_path, capsys):
    code = run_spec(tmp_path, "matmul", MATMUL, {"verify": True})
    out = capsys.readouterr().out
    assert code == 0
    assert "verification           : OK" in out


def test_calibrate_star_matches_parameters(capsys):
    code = main(["calibrate", "--target", "star"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fitted latency" in out
    assert "fitted bandwidth : 11.6" in out  # the paper's Fast Ethernet


def test_calibrate_testbed(capsys):
    code = main(["calibrate", "--target", "testbed", "--nodes", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fitted bandwidth" in out


@pytest.mark.parametrize(
    "app", ["lu", "lu-pipelined", "stencil", "stencil-barrier", "sort", "matmul"]
)
def test_graph_dump(app, capsys):
    code = main(["graph", app])
    out = capsys.readouterr().out
    assert code == 0
    assert "flow graph" in out
    assert "edges" in out


def test_graph_lu_pipelined_has_streams(capsys):
    main(["graph", "lu-pipelined"])
    out = capsys.readouterr().out
    assert "stream" in out


def server_spec(tmp_path, policy, shards=1):
    payload = {
        "app": {"name": "mixed"},
        "engine": {"name": "server", "shards": shards},
        "cluster": {
            "nodes": 16,
            "arrivals": {"process": "poisson", "jobs": 4},
            "policy": policy,
        },
    }
    path = tmp_path / f"server-{policy}-{shards}.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("shards", [1, 2])
def test_server_record_carries_reallocation_counts(shards, tmp_path, capsys):
    """One kernel or many, the record says how often the policy was asked."""
    path = server_spec(tmp_path, "adaptive", shards)
    assert main(["run", str(path), "--json"]) == 0
    metrics = json.loads(capsys.readouterr().out)["metrics"]
    # fault-free: one decision per admission and per completion
    assert metrics["allocations"] == 2 * metrics["jobs"] == 8
    assert metrics["allocations_elided"] >= 0


def test_server_unknown_policy_fails(tmp_path, capsys):
    assert main(["run", str(server_spec(tmp_path, "wishful"))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown policy 'wishful'")


# --------------------------------------------------------------------------
# declarative scenarios: repro run / repro scenarios list
# --------------------------------------------------------------------------


EXAMPLES = __import__("pathlib").Path(__file__).resolve().parents[2] / "examples"

try:
    import tomllib  # noqa: F401
    _HAS_TOMLLIB = True
except ImportError:  # pragma: no cover - Python 3.10 CI leg
    _HAS_TOMLLIB = False

requires_toml = pytest.mark.skipif(
    not _HAS_TOMLLIB, reason="TOML specs need Python 3.11+ (tomllib)"
)


@requires_toml
def test_run_example_spec(capsys):
    code = main(["run", str(EXAMPLES / "lu_sim.toml")])
    out = capsys.readouterr().out
    assert code == 0
    assert "scenario 'lu-sim': app=lu engine=sim" in out
    assert "makespan" in out
    assert "per-phase dynamic efficiency" in out


def test_run_json_output(capsys):
    code = main(["run", str(EXAMPLES / "matmul_packet.json"), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["engine"] == "sim"
    assert payload["app"] == "matmul"
    assert payload["makespan"] > 0


@requires_toml
def test_run_server_spec(capsys):
    code = main(["run", str(EXAMPLES / "server_sharded.toml")])
    out = capsys.readouterr().out
    assert code == 0
    assert "engine=server" in out
    assert "shard_epochs" in out


def test_run_missing_spec_fails(capsys):
    code = main(["run", "/nonexistent/spec.toml"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_run_bad_option_is_one_error_line(tmp_path, capsys):
    """Every option is checked against the signature it is passed to
    (``tests/scenario/test_option_boundary.py``); end to end, a bad one is
    one ``error:`` line and exit status 2."""
    payload = {
        "app": {"name": "stencil", "options": {"barrier": "no"}},
        "engine": {"name": "sim"},
    }
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(payload))
    assert main(["run", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "app.options.barrier must be of type bool, got str" in err


def test_scenarios_list(capsys):
    code = main(["scenarios", "list"])
    out = capsys.readouterr().out
    assert code == 0
    for line in ("app", "netmodel", "cpumodel", "provider", "engine",
                 "workload", "policy"):
        assert line in out
    assert "lu, matmul, sort, stencil" in out.replace("imgpipe, ", "")


def test_scenarios_list_kind_filter(capsys):
    code = main(["scenarios", "list", "--kind", "engine"])
    out = capsys.readouterr().out
    assert code == 0
    assert "server, sim, testbed" in out
    assert "maxmin" not in out

    code = main(["scenarios", "list", "--kind", "flavor"])
    assert code == 2
    assert "unknown plugin kind" in capsys.readouterr().err


# --------------------------------------------------------------------------
# cache info: per-family sizes and --json
# --------------------------------------------------------------------------


def test_cache_info_reports_both_families_with_sizes(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    code = main(["cache", "info"])
    out = capsys.readouterr().out
    assert code == 0
    assert "calibrations    : 0 (0 B)" in out
    assert "kernel benches  : 0 (0 B)" in out


def test_cache_info_json(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    # `calibrate` fits a model without touching the cache first.
    assert main(["calibrate", "--target", "star"]) == 0
    capsys.readouterr()
    code = main(["cache", "info", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"directory", "calibrations", "kernel_benches"}
    for family in ("calibrations", "kernel_benches"):
        assert {"entries", "count", "bytes"} <= set(payload[family])


# --------------------------------------------------------------------------
# persistent kernel-benchmark cache on direct-execution runs
# --------------------------------------------------------------------------


def test_direct_mode_persists_kernel_benchmarks(tmp_path, monkeypatch, capsys):
    from repro.analysis import benchcache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    engine = {"mode": "direct", "verify": True}
    assert run_spec(tmp_path, "matmul", MATMUL, engine) == 0
    assert benchcache.entries(), "direct run should persist sample tables"
    # The second run preloads the tables and still verifies.
    assert run_spec(tmp_path, "matmul", MATMUL, engine) == 0
    out = capsys.readouterr().out
    assert out.count("verification           : OK") == 2


def test_no_persist_cache_restores_raw_direct_timing(tmp_path, monkeypatch, capsys):
    from repro.analysis import benchcache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert run_spec(
        tmp_path, "matmul", MATMUL, {"mode": "direct"},
        provider={"name": "auto", "options": {"persist": False}},
    ) == 0
    capsys.readouterr()
    assert benchcache.entries() == []
