"""RunRecord normalization parity: the same tiny LU scenario under every
engine, compared field-by-field against the engine-native APIs."""

import dataclasses
import json

import pytest

from repro.clusterserver import ClusterServer
from repro.clusterserver.arrivals import poisson_arrivals
from repro.clusterserver.scheduler import AdaptiveEfficiencyScheduler
from repro.errors import ConfigurationError
from repro.scenario import (
    AppSection,
    EngineSection,
    ScenarioSpec,
    run_scenario,
)
from repro.scenario.builtins import install_builtins
from repro.scenario.registry import Registry
from repro.scenario.spec import ClusterSection, ModelSection
from repro.sim.efficiency import dynamic_efficiency
from repro.sim.modes import SimulationMode
from repro.sim.platform import PAPER_CLUSTER
from repro.sim.providers import CostModelProvider
from repro.sim.simulator import DPSSimulator
from repro.testbed.cluster import VirtualCluster
from repro.testbed.executor import TestbedExecutor

# Every scenario here runs a real app (LU kernels etc.) — numpy territory.
pytest.importorskip("numpy")

LU_OPTIONS = {"n": 192, "r": 48, "num_threads": 4, "num_nodes": 2}


def _lu_config():
    from repro.apps.lu.config import LUConfig

    return LUConfig(mode=SimulationMode.PDEXEC_NOALLOC, **LU_OPTIONS)


def _lu_spec(engine: str, **engine_kwargs) -> ScenarioSpec:
    return ScenarioSpec(
        name="lu-tiny",
        app=AppSection("lu", dict(LU_OPTIONS)),
        engine=EngineSection(name=engine, mode="noalloc", **engine_kwargs),
    )


def _server_spec(shards: int = 1) -> ScenarioSpec:
    return ScenarioSpec(
        name="srv-tiny",
        app=AppSection("lu"),
        engine=EngineSection(name="server", seed=2, shards=shards),
        cluster=ClusterSection(
            nodes=12,
            policy="adaptive",
            arrivals={"process": "poisson", "mean_interarrival": 20.0, "jobs": 6},
        ),
    )


# --------------------------------------------------------------------------
# per-engine parity
# --------------------------------------------------------------------------


class TestSimParity:
    def test_record_matches_native_simulator(self):
        from repro.apps.lu.app import LUApplication
        from repro.apps.lu.costs import LUCostModel

        record = run_scenario(_lu_spec("sim"))
        cfg = _lu_config()
        native = DPSSimulator(
            PAPER_CLUSTER,
            CostModelProvider(
                LUCostModel(PAPER_CLUSTER.machine, cfg.r), run_kernels=False
            ),
        ).run(LUApplication(cfg))
        assert record.engine == "sim"
        assert record.makespan == native.predicted_time
        assert record.events == native.events
        native_phases = dynamic_efficiency(native.run)
        assert len(record.phases) == len(native_phases)
        for rec_phase, nat_phase in zip(record.phases, native_phases):
            assert rec_phase.label == nat_phase.label
            assert rec_phase.efficiency == nat_phase.efficiency
            assert rec_phase.mean_nodes == nat_phase.mean_nodes

    def test_verified_flag_and_payload_modes(self):
        spec = ScenarioSpec(
            name="matmul-verify",
            app=AppSection(
                "matmul", {"n": 96, "s": 24, "num_threads": 4, "num_nodes": 2}
            ),
            engine=EngineSection(name="sim", mode="pdexec", verify=True),
        )
        record = run_scenario(spec)
        assert record.verified is True

    def test_model_overrides_run(self):
        spec = dataclasses.replace(
            _lu_spec("sim"),
            netmodel=ModelSection("maxmin"),
            cpumodel=ModelSection("timeslice", {"seed": 5}),
        )
        record = run_scenario(spec)
        assert record.makespan > 0
        # the maxmin allocator's counters surface in the metrics
        assert "net_warm_starts" in record.metrics

    def test_unknown_model_option_reports_cleanly(self):
        spec = dataclasses.replace(
            _lu_spec("sim"), netmodel=ModelSection("star", {"warp": 9})
        )
        with pytest.raises(
            ConfigurationError, match=r"unknown keys \['warp'\] in netmodel.options"
        ):
            run_scenario(spec)

    @pytest.mark.parametrize(
        "section, model, complaint",
        [
            # used to pass construction and die on the first cascade with
            # TypeError: '>' not supported between 'int' and 'str'
            ("netmodel", ModelSection("maxmin", {"cascade_threshold": "abc"}),
             "cascade_threshold must be of type"),
            ("netmodel", ModelSection("maxmin", {"cascade_threshold": 1.5}),
             "cascade_threshold must satisfy"),
            ("netmodel", ModelSection("packet", {"cascade_threshold": float("nan")}),
             "cascade_threshold must be finite"),
            # a string is truthy, "no" included
            ("netmodel", ModelSection("star", {"verify_incremental": "no"}),
             "verify_incremental must be of type bool"),
            ("netmodel", ModelSection("maxmin-soa", {"verify_incremental": 1}),
             "verify_incremental must be of type bool"),
            ("cpumodel", ModelSection("shared", {"verify_incremental": "yes"}),
             "verify_incremental must be of type bool"),
            ("cpumodel", ModelSection("timeslice", {"seed": 1.7}),
             "seed must be of type int"),
            ("netmodel", ModelSection("packet", {"seed": "abc"}),
             "seed must be of type int"),
        ],
    )
    def test_bad_model_option_value_is_a_configuration_error(
        self, section, model, complaint
    ):
        spec = dataclasses.replace(_lu_spec("sim"), **{section: model})
        with pytest.raises(ConfigurationError, match=complaint):
            run_scenario(spec)

    @pytest.mark.parametrize(
        "changes, complaint",
        [
            ({"netmodel": {"name": "star-soa"}}, "unknown netmodel 'star-soa'"),
            ({"cpumodel": {"name": "shared-soa"}}, "unknown cpumodel 'shared-soa'"),
            ({"cpumodel": {"name": "timeslice-soa"}}, "unknown cpumodel"),
            ({"netmodel": {"name": "maxmin", "options": {"incremental": False}}},
             r"unknown keys \['incremental'\] in netmodel.options"),
            ({"netmodel": {"name": "maxmin", "options": {"warm_start": False}}},
             r"unknown keys \['warm_start'\] in netmodel.options"),
            ({"netmodel": {"name": "packet", "options": {"warm_insert": False}}},
             r"unknown keys \['warm_insert'\] in netmodel.options"),
            ({"cpumodel": {"name": "shared", "options": {"incremental": False}}},
             r"unknown keys \['incremental'\] in cpumodel.options"),
            ({"engine": {"name": "server", "shards": 2, "shard_mode": "process"}},
             "shard_mode 'process' was removed"),
        ],
    )
    def test_removed_plugins_and_switches_are_rejected(self, changes, complaint):
        """One allocator per rate law, one shard transport: the SoA twins
        and worker-process shards that lost at every scale and the
        baseline-selecting switches are gone, not aliased."""
        payload = {
            "app": {"name": "lu", "options": dict(LU_OPTIONS)},
            "engine": {"name": "sim", "mode": "noalloc"},
            **changes,
        }
        with pytest.raises(ConfigurationError, match=complaint):
            run_scenario(ScenarioSpec.from_dict(payload))


class TestTestbedParity:
    def test_record_matches_native_executor(self):
        from repro.apps.lu.app import LUApplication

        record = run_scenario(_lu_spec("testbed", seed=1))
        cluster = VirtualCluster(num_nodes=2, seed=1)
        native = TestbedExecutor(cluster, run_kernels=False).run(
            LUApplication(_lu_config())
        )
        assert record.engine == "testbed"
        assert record.makespan == native.measured_time
        assert record.events == native.run.events_executed
        assert [p.label for p in record.phases] == [
            p.label for p in dynamic_efficiency(native.run)
        ]

    def test_seed_changes_measurement(self):
        a = run_scenario(_lu_spec("testbed", seed=1))
        b = run_scenario(_lu_spec("testbed", seed=2))
        assert a.makespan != b.makespan

    @pytest.mark.parametrize(
        "options, complaint",
        [
            ({"incremental": False}, r"unknown testbed engine options \['incremental'\]"),
            ({"backend": "soa"}, r"unknown testbed engine options \['backend'\]"),
            ({"verify_incremental": "no"}, "verify_incremental must be of type bool"),
            ({"trace_level": "bogus"}, "engine.options.trace_level must be one of"),
            ({"trace_level": 3}, "engine.options.trace_level must be one of"),
        ],
    )
    def test_bad_engine_options_report_cleanly(self, options, complaint):
        with pytest.raises(ConfigurationError, match=complaint):
            run_scenario(_lu_spec("testbed", options=options))


class TestServerParity:
    def test_record_matches_native_cluster_server(self):
        record = run_scenario(_server_spec(shards=1))
        stream = poisson_arrivals(20.0, seed=2, max_nodes=8, jobs=6)
        native = ClusterServer(12, AdaptiveEfficiencyScheduler(0.5)).run(stream)
        assert record.engine == "server"
        assert record.makespan == native.makespan
        assert record.events == native.events
        assert record.metrics["mean_turnaround"] == native.mean_turnaround
        assert record.metrics["cluster_efficiency"] == native.cluster_efficiency
        assert record.metrics["service_rate"] == native.service_rate
        assert record.phases == ()

    def test_sharded_record_agrees_with_eager(self):
        eager = run_scenario(_server_spec(shards=1))
        sharded = run_scenario(_server_spec(shards=2))
        # The documented eager-vs-sharded agreement bound (docs/sharding.md).
        assert sharded.makespan == pytest.approx(eager.makespan, rel=1e-9)
        for key in ("mean_turnaround", "mean_slowdown", "cluster_efficiency"):
            assert sharded.metrics[key] == pytest.approx(
                eager.metrics[key], rel=1e-9
            )
        assert sharded.metrics["shard_epochs"] > 0
        assert sharded.metrics["shard_shards"] == 2

    def test_sharded_is_deterministic_across_shard_counts(self):
        two = run_scenario(_server_spec(shards=2))
        three = run_scenario(_server_spec(shards=3))
        # Bit-identical across K, per the sharding determinism contract.
        assert two.makespan == three.makespan
        assert two.metrics["mean_turnaround"] == three.metrics["mean_turnaround"]


class TestOpenSystemRecords:
    @staticmethod
    def _open_spec(shards: int = 1, **cluster_kwargs) -> ScenarioSpec:
        defaults = dict(
            nodes=16,
            policy="adaptive",
            arrivals={
                "process": "poisson",
                "mean_interarrival": 5.0,
                "jobs": 30,
            },
        )
        defaults.update(cluster_kwargs)
        return ScenarioSpec(
            name="srv-open",
            app=AppSection("lu"),
            engine=EngineSection(name="server", seed=2, shards=shards),
            cluster=ClusterSection(**defaults),
        )

    def test_open_run_reports_slo_metrics(self):
        record = run_scenario(self._open_spec())
        metrics = record.metrics
        assert metrics["jobs"] == 30
        assert metrics["jobs_completed"] == 30
        assert metrics["jobs_rejected"] == 0
        assert metrics["rejection_rate"] == 0.0
        assert metrics["throughput"] == pytest.approx(30 / record.makespan)
        assert 0 < metrics["sojourn_p50"] <= metrics["sojourn_p99"]
        assert metrics["sojourn_mean"] > 0
        assert metrics["slowdown_mean"] >= 1.0
        assert 0 < metrics["utilization_mean"] <= 1.0

    def test_open_sharded_identical_across_shard_counts(self):
        records = {k: run_scenario(self._open_spec(shards=k)) for k in (2, 3, 4)}
        for k in (3, 4):
            # Bit-identical across K, per the sharding determinism contract.
            assert records[k].makespan == records[2].makespan
            for key in ("sojourn_mean", "sojourn_p99", "throughput"):
                assert records[k].metrics[key] == records[2].metrics[key]
        # The eager engine agrees to the documented reassociation bound.
        eager = run_scenario(self._open_spec(shards=1))
        assert records[2].makespan == pytest.approx(eager.makespan, rel=1e-9)

    def test_open_run_with_admission_policy(self):
        record = run_scenario(
            self._open_spec(
                policy="admission",
                policy_options={"max_active": 2, "inner": "adaptive"},
                arrivals={
                    "process": "bursty",
                    "mean_interarrival": 2.0,
                    "jobs": 40,
                },
            )
        )
        metrics = record.metrics
        assert metrics["jobs_completed"] + metrics["jobs_rejected"] == 40
        assert metrics["jobs_rejected"] > 0
        assert metrics["rejection_rate"] == pytest.approx(
            metrics["jobs_rejected"] / 40
        )

    def test_plain_policy_rejects_policy_options(self):
        spec = self._open_spec(policy_options={"max_active": 2})
        with pytest.raises(ConfigurationError, match="no policy_options"):
            run_scenario(spec)

    def test_bad_arrivals_options_report_cleanly(self):
        spec = self._open_spec(
            arrivals={"process": "poisson", "warp": 9, "jobs": 5}
        )
        with pytest.raises(ConfigurationError, match="cluster.arrivals"):
            run_scenario(spec)

    @pytest.mark.parametrize(
        "app, process, option, bad",
        [
            ("lu", "poisson", "jobs", "abc"), ("lu", "poisson", "jobs", 2.5),
            ("lu", "poisson", "jobs", float("nan")),
            ("lu", "poisson", "jobs", True),
            ("lu", "poisson", "mean_interarrival", "x"),
            ("lu", "poisson", "mean_interarrival", float("nan")),
            ("lu", "poisson", "horizon", "soon"),
            ("lu", "poisson", "horizon", float("inf")),
            ("lu", "poisson", "max_nodes", "x"),
            ("lu", "bursty", "jobs", "abc"), ("lu", "diurnal", "jobs", "abc"),
            # a DPS app is no job shape
            ("stencil", "poisson", "jobs", 5), ("stencil", "bursty", "jobs", 5),
            ("stencil", "diurnal", "jobs", 5),
        ],
    )
    def test_bad_arrival_values_fail_before_the_engine_starts(
        self, monkeypatch, app, process, option, bad
    ):
        """The arrival processes are lazy, their argument checks are not:
        a bad value never reaches an engine's first ``next()``."""
        from repro.clusterserver import server, sharded

        def no_engine(*args, **kwargs):
            raise AssertionError("the engine started")

        monkeypatch.setattr(server.ClusterServer, "run", no_engine)
        monkeypatch.setattr(sharded.ShardedServer, "run", no_engine)
        arrivals = {"process": process, "jobs": 5, option: bad}
        complaint = (
            f"arrivals.{option}" if app == "lu" else "unknown job shape 'stencil'"
        )
        for shards in (1, 2):
            spec = dataclasses.replace(
                self._open_spec(shards=shards, arrivals=arrivals),
                app=AppSection(app),
            )
            with pytest.raises(ConfigurationError, match=complaint):
                run_scenario(spec)

    def test_bad_trace_stop_condition_reports_cleanly(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text('{"arrival": 1.0, "phase_work": [5.0]}\n')
        for option, bad in (("jobs", "abc"), ("horizon", "soon")):
            spec = self._open_spec(
                arrivals={"process": "trace", "path": str(trace), option: bad}
            )
            with pytest.raises(ConfigurationError, match=f"arrivals.{option}"):
                run_scenario(spec)

    def test_surviving_shard_modes_are_synonyms(self, monkeypatch):
        """``engine.shard_mode`` still loads for older specs and chooses
        nothing: shards run on the calling thread, whatever the host."""
        import multiprocessing.process

        def no_fork(self):
            raise AssertionError("a shard left the calling process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_fork)
        payload = self._open_spec(shards=2).to_dict()
        records = []
        for mode in ("auto", "inprocess"):
            payload["engine"]["shard_mode"] = mode
            record = run_scenario(ScenarioSpec.from_dict(payload))
            records.append(
                (record.makespan, record.events, record.raw["result"])
            )
        assert records[0] == records[1]


# --------------------------------------------------------------------------
# the record schema itself
# --------------------------------------------------------------------------


class TestRunRecordSchema:
    def test_to_dict_is_json_ready_and_raw_free(self):
        record = run_scenario(_lu_spec("sim"))
        payload = record.to_dict()
        text = json.dumps(payload)  # must not raise
        assert "raw" not in payload
        assert json.loads(text)["scenario"] == "lu-tiny"
        assert payload["phases"][0]["label"] == "iter1"

    def test_without_raw_preserves_equality(self):
        record = run_scenario(_lu_spec("sim"))
        stripped = record.without_raw()
        assert stripped == record  # raw is excluded from comparison
        assert stripped.raw == {}
        assert record.raw  # the in-process record keeps the native objects

    def test_mean_efficiency_property(self):
        record = run_scenario(_lu_spec("sim"))
        assert record.mean_efficiency is not None
        assert 0.0 < record.mean_efficiency <= 1.0
        server = run_scenario(_server_spec())
        assert server.mean_efficiency is None

    def test_the_two_mean_efficiencies_cover_different_spans(self):
        from repro.sim.efficiency import mean_efficiency

        record = run_scenario(_lu_spec("testbed"))
        run = record.raw["result"].run
        phases = record.phases
        nodes = phases[0].mean_nodes  # static allocation
        # The record: the iteration phases' work over their node-seconds,
        # first iteration's start to the last one's end.
        iterations = phases[-1].end - phases[0].start
        assert record.mean_efficiency == pytest.approx(
            sum(p.work for p in phases) / (nodes * iterations)
        )
        # sim.efficiency: all work over the whole makespan — the initial
        # distribution before iter1 adds little work and many node-seconds.
        assert 0.0 < phases[0].start and phases[-1].end <= run.makespan
        assert run.total_work > sum(p.work for p in phases)
        assert mean_efficiency(run) == pytest.approx(
            run.total_work / (nodes * run.makespan)
        )
        assert mean_efficiency(run) < record.mean_efficiency

    def test_unknown_engine_and_app_error_paths(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            run_scenario(ScenarioSpec.from_dict({"engine": {"name": "quantum"}}))
        with pytest.raises(ConfigurationError, match="unknown app"):
            run_scenario(ScenarioSpec.from_dict({"app": {"name": "nbody"}}))

    def test_engines_reject_sections_they_do_not_use(self):
        # sim: the cluster section is server-only.
        with pytest.raises(ConfigurationError, match="does not use the 'cluster'"):
            run_scenario(dataclasses.replace(
                _lu_spec("sim"), cluster=ClusterSection(nodes=4)
            ))
        # sim/testbed: sharding is server-only.
        with pytest.raises(ConfigurationError, match="does not shard"):
            run_scenario(_lu_spec("sim", shards=2))
        # testbed: its models, provider and platform are the ground truth.
        with pytest.raises(ConfigurationError, match="does not use the 'netmodel'"):
            run_scenario(dataclasses.replace(
                _lu_spec("testbed"), netmodel=ModelSection("maxmin")
            ))
        from repro.scenario import PlatformSection

        with pytest.raises(ConfigurationError, match="does not use the 'platform'"):
            run_scenario(dataclasses.replace(
                _lu_spec("testbed"), platform=PlatformSection(calibrate=True)
            ))
        # server: no DPS models, app options, kill events, modes or verify.
        with pytest.raises(ConfigurationError, match="does not use the 'netmodel'"):
            run_scenario(dataclasses.replace(
                _server_spec(), netmodel=ModelSection("maxmin")
            ))
        with pytest.raises(ConfigurationError, match="no app options"):
            run_scenario(dataclasses.replace(
                _server_spec(), app=AppSection("lu", {"n": 648})
            ))
        with pytest.raises(ConfigurationError, match="kill events"):
            run_scenario(dataclasses.replace(_server_spec(), events=("1@1",)))
        with pytest.raises(ConfigurationError, match="unknown server engine"):
            run_scenario(dataclasses.replace(
                _server_spec(),
                engine=dataclasses.replace(
                    _server_spec().engine, options={"trace_levle": "full"}
                ),
            ))
        with pytest.raises(ConfigurationError, match="no numerical result"):
            run_scenario(dataclasses.replace(
                _server_spec(),
                engine=dataclasses.replace(_server_spec().engine, verify=True),
            ))

    def test_verify_without_verifier_rejected(self):
        # A user plugin may omit its verifier; engine.verify then refuses.
        registry = Registry()
        install_builtins(registry)
        stencil = registry.resolve("app", "stencil")
        registry.register(
            "app", "quiet", dataclasses.replace(stencil, name="quiet", verify=None)
        )
        spec = ScenarioSpec(
            app=AppSection("quiet", {"n": 16, "stripes": 2, "iterations": 2}),
            engine=EngineSection(name="sim", verify=True),
        )
        with pytest.raises(ConfigurationError, match="no verification"):
            run_scenario(spec, registry)
