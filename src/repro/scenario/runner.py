"""The ``run_scenario`` facade and the unified :class:`RunRecord` schema.

One entry point for every engine: :func:`run_scenario` takes a
:class:`~repro.scenario.spec.ScenarioSpec`, resolves the named plugins
from a :class:`~repro.scenario.registry.Registry`, executes the scenario
under the requested engine, and normalizes the engine-native result —
:class:`~repro.sim.simulator.SimulationResult`,
:class:`~repro.testbed.executor.Measurement` or
:class:`~repro.clusterserver.server.ServerResult` — into one
:class:`RunRecord`: makespan, per-phase efficiency, event counts,
allocator/horizon/shard statistics, all JSON-exportable via
:meth:`RunRecord.to_dict`.

The equivalence contract: for the same spec, the record's metrics are
bit-identical regardless of *how* the scenario was launched (``repro run
spec.toml``, ``POST /run``, a sweep worker process) — the spec is the
whole truth, and nothing about the launcher leaks into the results.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import ConfigurationError
from repro.scenario.registry import AppPlugin, Registry, default_registry
from repro.scenario.spec import ScenarioSpec
from repro.sim.modes import SimulationMode
from repro.util.validation import check_options, check_type


# --------------------------------------------------------------------------
# the unified result schema
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseRecord:
    """Per-phase efficiency of a run (the paper's dynamic efficiency)."""

    label: str
    start: float
    end: float
    work: float
    mean_nodes: float
    efficiency: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class RunRecord:
    """The engine-independent outcome of one scenario run.

    ``makespan`` is the engine's headline time: the simulator's
    *predicted* running time, the testbed's *measured* running time, or
    the cluster server's workload makespan.  ``metrics`` holds flat
    engine-specific scalars (turnaround/efficiency aggregates, allocator
    and horizon work counters, shard statistics); ``raw`` keeps the
    engine-native objects for in-process callers and is excluded from
    serialization and equality.
    """

    scenario: str
    app: str
    engine: str
    makespan: float
    wall_time_s: float
    events: int
    seed: int
    phases: tuple[PhaseRecord, ...] = ()
    metrics: dict[str, float] = field(default_factory=dict)
    verified: Optional[bool] = None
    raw: dict[str, Any] = field(default_factory=dict, compare=False, repr=False)

    @property
    def mean_efficiency(self) -> Optional[float]:
        """Efficiency over the recorded phases only (None if none).

        Work over node-seconds from the first phase's start to the last
        phase's end.  What runs outside a phase — LU's initial block
        distribution — is not charged, so this reads higher than
        :func:`repro.sim.efficiency.mean_efficiency`, which divides by
        the node-seconds of the whole makespan.
        """
        denom = sum(p.mean_nodes * p.duration for p in self.phases)
        if denom <= 0:
            return None
        return sum(p.work for p in self.phases) / denom

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict of everything except ``raw``."""
        return {
            "scenario": self.scenario,
            "app": self.app,
            "engine": self.engine,
            "makespan": self.makespan,
            "wall_time_s": self.wall_time_s,
            "events": self.events,
            "seed": self.seed,
            "verified": self.verified,
            "phases": [dataclasses.asdict(p) for p in self.phases],
            "metrics": dict(self.metrics),
        }

    def without_raw(self) -> "RunRecord":
        """A copy with the engine-native objects dropped (picklable)."""
        return dataclasses.replace(self, raw={})


# --------------------------------------------------------------------------
# shared assembly helpers
# --------------------------------------------------------------------------


def _platform(spec: ScenarioSpec, num_nodes: int):
    """Resolve the spec's platform (optionally testbed-calibrated)."""
    from repro.netmodel.params import NetworkParams
    from repro.sim.platform import PAPER_CLUSTER

    if spec.platform.name != "paper":
        raise ConfigurationError(
            f"unknown platform {spec.platform.name!r}; choose from ['paper']"
        )
    options = check_options(
        "platform.options", spec.platform.options, NetworkParams,
        supplied=("per_object_overhead",),
    )
    if spec.platform.calibrate:
        from repro.analysis.parallel import cached_platform

        platform = cached_platform((num_nodes, spec.engine.seed))
    else:
        platform = PAPER_CLUSTER
    if options:
        platform = platform.with_network(
            dataclasses.replace(platform.network, **options)
        )
    return platform


def calibration_key(
    spec: ScenarioSpec, registry: Optional[Registry] = None
) -> Optional[tuple[int, int]]:
    """The platform-calibration cache key a spec will use, or None.

    Sweep runners prewarm these keys (in parallel, exactly once per
    distinct key) before fanning cases out — see
    :func:`repro.analysis.parallel.run_records`.
    """
    if spec.engine.name == "sim" and spec.platform.calibrate:
        registry = registry or default_registry()
        plugin: AppPlugin = registry.resolve("app", spec.app.name)
        cfg = plugin.make_config(spec)
        return (cfg.num_nodes, spec.engine.seed)
    return None


def _fault_plan(spec: ScenarioSpec, registry: Registry):
    """The spec's resolved :class:`~repro.faults.FaultPlan`, or None.

    A default (empty) ``[faults]`` section yields None so fault-free runs
    take literally the same code path — and produce bit-identical results
    — as before the fault layer existed.
    """
    from repro.faults import FaultPlan
    from repro.scenario.spec import FaultsSection

    if spec.faults == FaultsSection():
        return None
    return FaultPlan.from_section(spec.faults, spec.engine.seed, registry)


def _make_provider(
    spec: ScenarioSpec,
    plugin: AppPlugin,
    cfg: Any,
    platform: Any,
    registry: Registry,
):
    """Resolve the duration provider for a sim-engine run."""
    provider_name = spec.provider.name
    mode = spec.mode()
    options = spec.provider.options
    if provider_name == "auto":
        if mode is SimulationMode.DIRECT:
            # The named provider's signature type-checks ``persist``.
            persist = options.get("persist", True)
            provider_name = "measure_first_n" if persist else "direct"
        else:
            provider_name = "costmodel"
    factory = registry.resolve("provider", provider_name)
    check_options("provider.options", options, factory, skip=5)
    return factory(spec, plugin, cfg, platform, mode, **options)


def _flatten_stats(prefix: str, stats: Any, out: dict[str, float]) -> None:
    """Flatten a stats dataclass's scalar fields into ``out``."""
    if stats is None:
        return
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[f"{prefix}{f.name}"] = value


def _model_stats(runtime: Any) -> dict[str, float]:
    """Allocator + horizon counters of a DPS run's resource models."""
    out: dict[str, float] = {}
    backend = getattr(runtime, "backend", None)
    if backend is None:
        return out
    for prefix, model in (("net_", backend.network), ("cpu_", backend.cpu)):
        allocator = getattr(model, "allocator", None)
        _flatten_stats(prefix, getattr(allocator, "stats", None), out)
        _flatten_stats(
            f"{prefix}horizon_", getattr(model, "horizon_stats", None), out
        )
    return out


def _phase_records(run_result: Any) -> tuple[PhaseRecord, ...]:
    """Dynamic-efficiency series of a DPS run, normalized."""
    from repro.sim.efficiency import dynamic_efficiency

    return tuple(
        PhaseRecord(
            label=p.label,
            start=p.start,
            end=p.end,
            work=p.work,
            mean_nodes=p.mean_nodes,
            efficiency=p.efficiency,
        )
        for p in dynamic_efficiency(run_result)
    )


def _verify_app(
    spec: ScenarioSpec, plugin: AppPlugin, app: Any, runtime: Any
) -> Optional[bool]:
    if not spec.engine.verify:
        return None
    if plugin.verify is None:
        raise ConfigurationError(
            f"app {plugin.name!r} has no verification; drop engine.verify"
        )
    plugin.verify(app, runtime)
    return True


# --------------------------------------------------------------------------
# engines
# --------------------------------------------------------------------------

_DEFAULT_SPEC = ScenarioSpec()

#: Where a refused [faults] section's intent goes on a DPS engine.
_EVENTS_HINT = " (a DPS run loses threads through its 'events' list)"


def _require_unused(spec: ScenarioSpec, engine: str, sections: tuple) -> None:
    """Reject sections an engine does not consume.

    The spec's contract is that nothing the user declared is silently
    ignored; an engine that has no use for a section must refuse a
    non-default one rather than run something other than what the spec
    says.
    """
    for section in sections:
        if getattr(spec, section) != getattr(_DEFAULT_SPEC, section):
            hint = _EVENTS_HINT if section == "faults" else ""
            raise ConfigurationError(
                f"the {engine!r} engine does not use the {section!r} "
                f"section; remove it from the spec{hint}"
            )


def _require_unsharded(spec: ScenarioSpec, engine: str) -> None:
    if spec.engine.shards != 1 or spec.engine.shard_mode != "auto":
        raise ConfigurationError(
            f"the {engine!r} engine does not shard; engine.shards/"
            "shard_mode apply to the 'server' engine only"
        )


def _trace_level(engine_options: dict) -> Any:
    """Pop ``engine.options.trace_level``, a :class:`~repro.dps.trace.TraceLevel` name."""
    from repro.dps.trace import TraceLevel

    value = engine_options.pop("trace_level", "SUMMARY")
    names = [level.name for level in TraceLevel]
    if not isinstance(value, str) or value.upper() not in names:
        raise ConfigurationError(
            f"engine.options.trace_level must be one of {names}, "
            f"got {value!r}"
        )
    return TraceLevel[value.upper()]


def run_sim(spec: ScenarioSpec, registry: Registry) -> RunRecord:
    """The ``sim`` engine: predict under the paper's performance models."""
    from repro.sim.simulator import DPSSimulator

    _require_unused(spec, "sim", ("cluster", "faults"))
    _require_unsharded(spec, "sim")
    plugin: AppPlugin = registry.resolve("app", spec.app.name)
    cfg = plugin.make_config(spec)
    net_entry = registry.resolve("netmodel", spec.netmodel.name)
    net_options = check_options(
        "netmodel.options", spec.netmodel.options, net_entry, skip=2
    )
    cpu_entry = registry.resolve("cpumodel", spec.cpumodel.name)
    cpu_options = check_options(
        "cpumodel.options", spec.cpumodel.options, cpu_entry, skip=2
    )
    platform = _platform(spec, cfg.num_nodes)
    app = plugin.build(cfg)
    provider = _make_provider(spec, plugin, cfg, platform, registry)

    engine_options = dict(spec.engine.options)
    trace = _trace_level(engine_options)
    if engine_options:
        raise ConfigurationError(
            f"unknown sim engine options {sorted(engine_options)}; "
            "valid: ['trace_level']"
        )

    simulator = DPSSimulator(
        platform,
        provider,
        trace_level=trace,
        network_factory=lambda kernel, params: net_entry(
            kernel, params, **net_options
        ),
        cpu_factory=lambda kernel: cpu_entry(kernel, platform, **cpu_options),
    )
    result = simulator.run(app)
    verified = _verify_app(spec, plugin, app, result.runtime)
    metrics = {"simulation_wall_time": result.simulation_wall_time}
    metrics.update(_model_stats(result.runtime))
    return RunRecord(
        scenario=spec.name,
        app=spec.app.name,
        engine="sim",
        makespan=result.predicted_time,
        wall_time_s=result.simulation_wall_time,
        events=result.events,
        seed=spec.engine.seed,
        phases=_phase_records(result.run),
        metrics=metrics,
        verified=verified,
        raw={"result": result, "runtime": result.runtime},
    )


def run_testbed(spec: ScenarioSpec, registry: Registry) -> RunRecord:
    """The ``testbed`` engine: measure on the ground-truth virtual cluster."""
    from repro.testbed.cluster import VirtualCluster
    from repro.testbed.executor import TestbedExecutor

    # The testbed IS the ground truth: its packet network, timeslice CPU,
    # noisy duration provider and platform are fixed by construction.
    _require_unused(
        spec, "testbed",
        ("cluster", "faults", "netmodel", "cpumodel", "provider", "platform"),
    )
    _require_unsharded(spec, "testbed")
    plugin: AppPlugin = registry.resolve("app", spec.app.name)
    cfg = plugin.make_config(spec)
    mode = spec.mode()
    engine_options = dict(spec.engine.options)
    trace = _trace_level(engine_options)
    verify_incremental = engine_options.pop("verify_incremental", False)
    check_type("engine.options.verify_incremental", verify_incremental, bool)
    if engine_options:
        raise ConfigurationError(
            f"unknown testbed engine options {sorted(engine_options)}; "
            "valid: ['trace_level', 'verify_incremental']"
        )
    cluster = VirtualCluster(num_nodes=cfg.num_nodes, seed=spec.engine.seed)
    executor = TestbedExecutor(
        cluster,
        run_kernels=mode.runs_kernels,
        trace_level=trace,
        verify_incremental=verify_incremental,
    )
    app = plugin.build(cfg)
    measurement = executor.run(app)
    verified = _verify_app(spec, plugin, app, measurement.runtime)
    metrics = {"executor_wall_time": measurement.wall_time}
    metrics.update(_model_stats(measurement.runtime))
    return RunRecord(
        scenario=spec.name,
        app=spec.app.name,
        engine="testbed",
        makespan=measurement.measured_time,
        wall_time_s=measurement.wall_time,
        events=measurement.run.events_executed,
        seed=spec.engine.seed,
        phases=_phase_records(measurement.run),
        metrics=metrics,
        verified=verified,
        raw={"result": measurement, "runtime": measurement.runtime},
    )


def run_server(spec: ScenarioSpec, registry: Registry) -> RunRecord:
    """The ``server`` engine: a malleable-job workload under one policy.

    ``engine.shards == 1`` runs the eager single-kernel
    :class:`~repro.clusterserver.server.ClusterServer`; ``shards > 1``
    the epoch-barrier :class:`~repro.clusterserver.sharded.ShardedServer`
    (bit-identical results, by the sharding determinism contract).
    """
    from repro.clusterserver.server import ClusterServer
    from repro.clusterserver.sharded import ShardedServer

    # Fluid malleable jobs have no DPS flow graph: no models, providers,
    # payload modes, numerical verification or kill events apply.
    _require_unused(
        spec, "server",
        ("netmodel", "cpumodel", "provider", "platform"),
    )
    if spec.app.options:
        raise ConfigurationError(
            "the 'server' engine's workloads take no app options; size "
            "the stream via the 'cluster' section"
        )
    if spec.events:
        raise ConfigurationError(
            "the 'server' engine does not apply kill events; use an "
            "adaptive scheduling policy instead"
        )
    if spec.engine.mode != _DEFAULT_SPEC.engine.mode:
        raise ConfigurationError(
            "the 'server' engine has no simulation mode; drop engine.mode"
        )
    if spec.engine.verify:
        raise ConfigurationError(
            "the 'server' engine has no numerical result; drop engine.verify"
        )
    if spec.engine.options:
        raise ConfigurationError(
            f"unknown server engine options "
            f"{sorted(spec.engine.options)}; valid: []"
        )
    cluster = spec.cluster
    if not cluster.arrivals:
        raise ConfigurationError(
            "the 'server' engine needs a cluster.arrivals table, e.g. "
            'arrivals = {process = "poisson", mean_interarrival = 25.0, '
            "jobs = 16}"
        )
    params = dict(cluster.arrivals)
    process = params.pop("process")
    processes = registry.names("workload")
    if process not in processes:
        raise ConfigurationError(
            f"unknown cluster.arrivals.process {process!r}; choose from "
            f"{processes}"
        )
    workload = registry.resolve("workload", process)(
        cluster, spec.engine.seed, spec.app.name, params
    )
    policy = registry.resolve("policy", cluster.policy)(cluster)
    plan = _fault_plan(spec, registry)
    stats = None
    wall_start = time.perf_counter()
    if spec.engine.shards > 1:
        server = ShardedServer(
            cluster.nodes,
            policy,
            shards=spec.engine.shards,
            faults=plan,
        )
        result = server.run(workload)
        stats = server.stats
    else:
        result = ClusterServer(cluster.nodes, policy, faults=plan).run(
            workload
        )
    wall = time.perf_counter() - wall_start

    metrics: dict[str, float] = {
        "mean_turnaround": result.mean_turnaround,
        "mean_wait": result.mean_wait,
        "mean_slowdown": result.mean_slowdown,
        "max_slowdown": result.max_slowdown,
        "cluster_efficiency": result.cluster_efficiency,
        "utilization": result.utilization,
        "service_rate": result.service_rate,
        "throughput": result.throughput,
        "total_nodes": result.total_nodes,
        "jobs": result.jobs_completed,
        "allocations": result.allocations,
        "allocations_elided": result.allocations_elided,
    }
    # The streaming SLO summary: quantile sojourns, rejection rate,
    # utilization aggregates and the fault counters.
    metrics.update(result.slo.to_metrics())
    if stats is not None:
        _flatten_stats("shard_", stats, metrics)
    return RunRecord(
        scenario=spec.name,
        app=spec.app.name,
        engine="server",
        makespan=result.makespan,
        wall_time_s=wall,
        events=result.events,
        seed=spec.engine.seed,
        metrics=metrics,
        raw={"result": result, "stats": stats},
    )


# --------------------------------------------------------------------------
# the facade
# --------------------------------------------------------------------------


def run_scenario(
    spec: ScenarioSpec, registry: Optional[Registry] = None
) -> RunRecord:
    """Run one scenario under its declared engine; normalize the result.

    The single entry point ``repro run``, ``repro serve``, sweeps and CI
    smoke jobs all delegate to.
    """
    registry = registry or default_registry()
    engine = registry.resolve("engine", spec.engine.name)
    return engine(spec, registry)
