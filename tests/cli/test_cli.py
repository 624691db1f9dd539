"""The command-line interface: parsing, each subcommand, error paths."""

import pytest

from repro.cli import build_parser, main
from repro.cli.common import MODE_NAMES, parse_kill_events, parse_mode
from repro.dps.malleability import STATIC
from repro.errors import ConfigurationError
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


def test_matmul_direct_mode(capsys):
    code = main([
        "matmul", "--n", "96", "--s", "24", "--threads", "4", "--nodes", "2",
        "--mode", "direct", "--verify",
    ])
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


@pytest.mark.parametrize(
    "command",
    ["lu", "stencil", "sort", "matmul", "efficiency", "calibrate", "graph", "sweep"],
)
def test_all_commands_registered(command):
    parser = build_parser()
    extra = ["lu"] if command == "graph" else []
    args = parser.parse_args([command] + extra)
    assert callable(args.func)


# --------------------------------------------------------------------------
# subcommand runs (small configurations)
# --------------------------------------------------------------------------


def test_lu_sim(capsys):
    code = main([
        "lu", "--n", "648", "--r", "216", "--threads", "4", "--nodes", "2",
        "--mode", "noalloc",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "predicted running time" in out
    assert "variant=basic" in out


def test_lu_variants_and_kill(capsys):
    code = main([
        "lu", "--n", "648", "--r", "162", "--threads", "4", "--nodes", "2",
        "--pipelined", "--fc", "4", "--mode", "noalloc",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "variant=P+FC" in out

    code = main([
        "lu", "--n", "648", "--r", "162", "--threads", "4", "--nodes", "4",
        "--kill", "2,3@1", "--mode", "noalloc",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "kill 2,3@1" in out


def test_stencil_both_engines_with_verify(capsys):
    code = main([
        "stencil", "--n", "48", "--stripes", "4", "--iterations", "3",
        "--threads", "4", "--nodes", "2", "--engine", "both", "--verify",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "prediction error" in out
    assert out.count("verification           : OK") == 2


def test_stencil_kill_without_barrier_fails(capsys):
    code = main([
        "stencil", "--n", "48", "--stripes", "4", "--iterations", "3",
        "--threads", "4", "--nodes", "4", "--kill", "2,3@1",
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_sort_testbed_with_verify(capsys):
    code = main([
        "sort", "--m", "3000", "--threads", "4", "--nodes", "2",
        "--engine", "testbed", "--verify",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "measured running time" in out


def test_matmul_sim(capsys):
    code = main([
        "matmul", "--n", "96", "--s", "24", "--threads", "4", "--nodes", "2",
        "--engine", "sim", "--verify",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "verification           : OK" in out


def test_efficiency_table(capsys):
    code = main([
        "efficiency", "--n", "648", "--r", "81", "--threads", "8", "--nodes", "4",
        "--kill", "4,5,6,7@1",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "dynamic efficiency" in out
    assert "iter1" in out
    assert "whole-run efficiency" in out


def test_sweep_serial(capsys):
    code = main([
        "sweep", "--n", "192", "--r", "48,96", "--nodes", "2", "--jobs", "1",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "LU validation sweep" in out
    assert "r=48,nodes=2" in out and "r=96,nodes=2" in out
    # The paper's three Fig. 13 thresholds, widest share last.
    within = [line for line in out.splitlines() if line.startswith("within")]
    assert [line.split("%")[0] for line in within] == [
        "within  4", "within  6", "within 12"
    ]
    shares = [int(line.split(":")[1].strip().rstrip("%")) for line in within]
    assert shares == sorted(shares) and 0 <= shares[0] and shares[-1] <= 100
    assert "max abs prediction error" in out


def test_sweep_bad_r_list(capsys):
    code = main(["sweep", "--r", "48,oops"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


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


def test_server_all_policies(capsys):
    code = main(["server", "--jobs", "6", "--nodes", "12", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    for policy in ("static", "fcfs", "fcfs+backfill", "equipartition", "adaptive"):
        assert policy in out
    assert "service rate" in out


def test_server_policy_selection(capsys):
    code = main([
        "server", "--jobs", "4", "--policy", "adaptive",
        "--workload", "mixed",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "adaptive" in out
    assert "static" not in out
    # one kernel or many, the decision counters are printed
    assert "[adaptive] " in out and " reallocations (" in out


def test_server_unknown_policy_fails(capsys):
    code = main(["server", "--jobs", "4", "--policy", "wishful"])
    assert code == 2
    assert "unknown policies" in capsys.readouterr().err


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
    import json as _json

    code = main(["run", str(EXAMPLES / "matmul_packet.json"), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = _json.loads(out)
    assert payload["engine"] == "sim"
    assert payload["app"] == "matmul"
    assert payload["makespan"] > 0


@requires_toml
def test_run_spec_matches_legacy_subcommand(tmp_path, capsys):
    """The acceptance criterion: identical RunRecord metrics, bit-equal."""
    import json as _json

    run_path = tmp_path / "run.json"
    lu_path = tmp_path / "lu.json"
    assert main([
        "run", str(EXAMPLES / "lu_sim.toml"), "--record-json", str(run_path),
    ]) == 0
    assert main([
        "lu", "--n", "648", "--r", "216", "--threads", "4", "--nodes", "2",
        "--mode", "noalloc", "--record-json", str(lu_path),
    ]) == 0
    capsys.readouterr()
    via_spec = _json.loads(run_path.read_text())[0]
    via_legacy = _json.loads(lu_path.read_text())[0]
    assert via_spec["makespan"] == via_legacy["makespan"]
    assert via_spec["phases"] == via_legacy["phases"]
    assert via_spec["events"] == via_legacy["events"]


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


@pytest.mark.parametrize(
    "section, key, bad, complaint",
    [
        ("cluster", "nodes", "16", "cluster.nodes must be of type int"),
        ("engine", "shards", 2.5, "engine.shards must be of type int"),
        ("engine", "seed", -1, "engine.seed must be >= 0, got -1"),
        ("cluster", "nodes_per_job", 0, "cluster.nodes_per_job must be >= 1"),
        ("arrivals", "jobs", "abc", "arrivals.jobs must be of type int"),
        ("arrivals", "jobs", float("nan"), "arrivals.jobs must be of type int"),
        ("arrivals", "mean_interarrival", "x",
         "arrivals.mean_interarrival must be of type int or float"),
    ],
)
def test_run_bad_spec_value_is_one_error_line(
    tmp_path, capsys, section, key, bad, complaint
):
    import json as _json

    payload = {
        "app": {"name": "lu"},
        "engine": {"name": "server"},
        "cluster": {"nodes": 8, "arrivals": {"process": "poisson", "jobs": 4}},
    }
    target = payload["cluster"] if section == "arrivals" else payload
    target[section][key] = bad
    path = tmp_path / "bad.json"
    path.write_text(_json.dumps(payload))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert complaint in err


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
    import json as _json

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    # Populate one calibration entry via a tiny serial sweep case.
    assert main(["calibrate", "--target", "star"]) == 0
    capsys.readouterr()
    code = main(["cache", "info", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = _json.loads(out)
    assert set(payload) == {"directory", "calibrations", "kernel_benches"}
    for family in ("calibrations", "kernel_benches"):
        assert {"entries", "count", "bytes"} <= set(payload[family])


# --------------------------------------------------------------------------
# persistent kernel-benchmark cache on direct-execution runs
# --------------------------------------------------------------------------


def test_direct_mode_persists_kernel_benchmarks(tmp_path, monkeypatch, capsys):
    from repro.analysis import benchcache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    args = ["matmul", "--n", "96", "--s", "24", "--threads", "4",
            "--nodes", "2", "--mode", "direct", "--verify"]
    assert main(args) == 0
    assert benchcache.entries(), "direct run should persist sample tables"
    # The second run preloads the tables and still verifies.
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out.count("verification           : OK") == 2


def test_no_persist_cache_restores_raw_direct_timing(tmp_path, monkeypatch, capsys):
    from repro.analysis import benchcache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert main([
        "matmul", "--n", "96", "--s", "24", "--threads", "4", "--nodes", "2",
        "--mode", "direct", "--no-persist-cache",
    ]) == 0
    capsys.readouterr()
    assert benchcache.entries() == []
