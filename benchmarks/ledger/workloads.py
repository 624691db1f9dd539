"""The six ledger workloads: inputs from the seed, one repetition, outputs.

Every workload drives the program through its public entry points only —
``ScenarioSpec.from_dict`` -> ``run_scenario``, the registry-resolved
network models' ``submit``, ``python -m repro serve`` + ``ServiceClient``.
Importing this module imports ``repro`` and every module the bodies call,
which is what the set-up launches time as ``scenario.import_s``.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import statistics
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import repro.scenario as scenario
from repro.analysis.parallel import cached_platform
from repro.clusterserver.server import ClusterServer
from repro.clusterserver.sharded import ShardedServer
from repro.cpumodel.shared import SharedCpuModel
from repro.cpumodel.timeslice import TimesliceCpuModel
from repro.des.epoch import EpochController
from repro.des.kernel import Kernel
from repro.netmodel.base import NetworkModel
from repro.netmodel.params import NetworkParams
from repro.service.client import ServiceClient
from repro.sim.simulator import DPSSimulator
from repro.testbed.executor import TestbedExecutor

from daemon import Daemon, peak_rss_mb
from tracing import Tracer, defining_class

#: The paper's Fig. 12 removal strategy: two threads after iteration 2,
#: two more after iteration 3 (basic flow graph, as in the paper).
FIG12_REMOVALS = ["6,7@2", "4,5@3"]


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload; the seed never changes them."""

    lu_n: int
    lu_predict_r: tuple[int, int]
    lu_measure_r: tuple[int, int]
    #: (nodes, mean_interarrival, jobs, shards) of each of the two streams
    #: a server workload runs
    eager: tuple[int, float, int, int]
    stream: tuple[int, float, int, int]
    churn_flows: int
    #: completions of the maxmin and of the packet segment
    churn_completions: tuple[int, int]
    service_warmup_requests: int
    #: requests of one repetition, sent as ``service_slices`` timed slices
    service_block_requests: int
    service_slices: int


#: Sized so each body takes 1-2.5 s on the reference 2-vCPU host.
FULL = Sizes(
    lu_n=2592,
    lu_predict_r=(108, 162),
    lu_measure_r=(162, 162),
    # jobs x mean_interarrival stays below 2**14 simulated seconds: past
    # that the eager open loop livelocks (see README).  Utilization 0.75:
    # nearer saturation the queue length, and with it the host time,
    # swings by 20 % from one seed to the next.
    eager=(128, 5.0, 1200, 1),
    stream=(128, 4.0, 2500, 4),
    churn_flows=256,
    churn_completions=(1000, 600),
    service_warmup_requests=100,
    service_block_requests=600,
    service_slices=3,
)

#: Tiny inputs for ``--smoke``: every code path, a few seconds in total.
SMOKE = Sizes(
    lu_n=192,
    lu_predict_r=(16, 24),
    lu_measure_r=(24, 24),
    eager=(16, 10.0, 40, 1),
    stream=(32, 5.0, 80, 4),
    churn_flows=32,
    churn_completions=(60, 40),
    service_warmup_requests=4,
    service_block_requests=20,
    service_slices=2,
)


@dataclass
class Case:
    """What one part of a repetition did and what it simulated."""

    name: str
    #: operations attempted: one ``run_scenario`` call, one churn
    #: segment, or one HTTP request each
    ops: int = 1
    #: the scenario engine that ran it, if one did
    engine: str = ""
    errors: list[str] = field(default_factory=list)
    #: simulated outputs that must repeat exactly
    outputs: dict[str, Any] = field(default_factory=dict)
    wall_s: float = 0.0
    #: work counters feeding the per-layer metrics
    counters: dict[str, float] = field(default_factory=dict)
    latencies_s: list[float] = field(default_factory=list)


def _guard(case: Case, body: Callable[[], None]) -> Case:
    """Run ``body``; an exception becomes the case's failed operation."""
    started = time.perf_counter()
    try:
        body()
    except Exception as exc:  # the benchmark must report, not die
        case.errors.append(f"{type(exc).__name__}: {exc}")
    case.wall_s = time.perf_counter() - started
    return case


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


# --------------------------------------------------------------------------
# scenario workloads: lu_predict, lu_measure, server_eager, server_stream
# --------------------------------------------------------------------------


def _lu_dict(
    engine: str, seed: int, n: int, r: int, removal: bool
) -> dict[str, Any]:
    options: dict[str, Any] = {
        "n": n, "r": r, "num_threads": 8, "num_nodes": 8,
    }
    if not removal:
        options.update(pipelined=True, flow_control=16)
    payload: dict[str, Any] = {
        "name": f"ledger-lu-{engine}-r{r}{'-removal' if removal else ''}",
        "app": {"name": "lu", "options": options},
        "engine": {"name": engine, "mode": "noalloc", "seed": seed},
    }
    if engine == "sim":
        payload["platform"] = {"calibrate": True}
    if removal:
        payload["events"] = list(FIG12_REMOVALS)
    return payload


def _server_dict(
    name: str, seed: int, shape: tuple[int, float, int, int]
) -> dict[str, Any]:
    nodes, interarrival, jobs, shards = shape
    engine: dict[str, Any] = {"name": "server", "seed": seed, "shards": shards}
    if shards > 1:
        engine["shard_mode"] = "inprocess"
    return {
        "name": name,
        "app": {"name": "lu"},
        "engine": engine,
        "cluster": {
            "nodes": nodes,
            "policy": "adaptive",
            "arrivals": {
                "process": "poisson",
                "mean_interarrival": interarrival,
                "jobs": jobs,
            },
        },
    }


def _two_streams(
    name: str, seed: int, shape: tuple[int, float, int, int]
) -> list[tuple[str, dict]]:
    """Two independent arrival streams of one shape, timed one by one."""
    return [
        ("first", _server_dict(f"{name}-1", seed, shape)),
        ("second", _server_dict(f"{name}-2", seed + 7919, shape)),
    ]


def _record_outputs(record: Any) -> dict[str, Any]:
    outputs: dict[str, Any] = {
        "makespan": repr(record.makespan),
        "events": record.events,
    }
    if record.engine == "server":
        outputs["jobs"] = int(record.metrics["jobs"])
        outputs["sojourn_p99"] = repr(record.metrics["sojourn_p99"])
    return outputs


class Workload:
    """What ``child.py`` asks of a workload; the defaults do nothing."""

    name: str
    #: expected seconds of one repetition on the reference host; a
    #: repetition is killed at 20x this
    nominal_s: float

    def load(self, seed: int, sizes: Sizes, workdir: str) -> None:
        """Make the inputs from the seed."""
        raise NotImplementedError

    def calibrate(self) -> None:
        """Load the platform calibrations the inputs will ask for."""

    def build_inputs(self) -> None:
        """Build what the engine consumes, as far as the public API allows."""

    def repetition(self) -> list[Case]:
        """Run the body once."""
        raise NotImplementedError

    def warmup(self) -> list[Case]:
        return self.repetition()

    def untraced_extras(self, cases: list[Case]) -> list[Case]:
        """Cases only the traced run adds, run with the spans taken off."""
        return []

    def policy_classes(self) -> set[type]:
        """Scheduler classes whose ``allocate`` gets a span."""
        return set()

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the process that runs the body."""
        return peak_rss_mb()

    def own_layers(
        self, fastest: list[Case], traced: list[Case], pins: dict[str, Any]
    ) -> dict[str, float]:
        """Per-layer metrics only this workload has.

        ``fastest`` are the cases of the fastest timed repetition,
        ``traced`` those of the traced one, ``pins`` the workload's entry
        in ``expected.json``.
        """
        return {}

    def pin_extras(self) -> dict[str, Any]:
        """What ``--pin`` stores for this workload besides its outputs."""
        return {}

    def close(self) -> None:
        """Stop whatever ``load`` started."""


class ScenarioWorkload(Workload):
    """A list of scenario specs, each run through ``run_scenario``."""

    def __init__(
        self,
        name: str,
        nominal_s: float,
        make_dicts: Callable[[int, Sizes], list[tuple[str, dict]]],
        measured: Optional[Callable[[int, Sizes], list[tuple[str, dict]]]] = None,
    ) -> None:
        self.name = name
        self.nominal_s = nominal_s
        self._make_dicts = make_dicts
        #: ground-truth twins of the cases, for the prediction error
        self._measured = measured

    # -------------------------------------------------------------- set-up
    def load(self, seed: int, sizes: Sizes, workdir: str) -> None:
        self.seed = seed
        self.sizes = sizes
        self.registry = scenario.default_registry()
        self.dicts = self._make_dicts(seed, sizes)
        self.specs = [
            scenario.ScenarioSpec.from_dict(payload) for _, payload in self.dicts
        ]

    def calibrate(self) -> None:
        for spec in self.specs:
            key = scenario.calibration_key(spec, self.registry)
            if key is not None:
                cached_platform(key)

    def build_inputs(self) -> None:
        """Build what an engine consumes: the app graph or the policy."""
        for spec in self.specs:
            if spec.engine.name == "server":
                self.registry.resolve("policy", spec.cluster.policy)(spec.cluster)
            else:
                plugin = self.registry.resolve("app", spec.app.name)
                plugin.build(plugin.make_config(spec))

    def policy_classes(self) -> set[type]:
        return {
            type(self.registry.resolve("policy", s.cluster.policy)(s.cluster))
            for s in self.specs
            if s.engine.name == "server"
        }

    # ---------------------------------------------------------------- body
    def _run_case(self, name: str, payload: dict) -> Case:
        case = Case(name)

        def body() -> None:
            spec = scenario.ScenarioSpec.from_dict(payload)
            record = scenario.run_scenario(spec, self.registry)
            case.outputs = _record_outputs(record)
            case.counters = {"events": record.events, **record.metrics}
            case.engine = record.engine

        return _guard(case, body)

    def repetition(self) -> list[Case]:
        return [self._run_case(name, payload) for name, payload in self.dicts]

    def pin_extras(self) -> dict[str, Any]:
        if self._measured is None:
            return {}
        twins = [
            self._run_case(name, payload)
            for name, payload in self._measured(self.seed, self.sizes)
        ]
        failed = [e for twin in twins for e in twin.errors]
        if failed:
            raise RuntimeError(f"measuring {self.name}: {failed}")
        return {"measured": {t.name: t.outputs["makespan"] for t in twins}}

    def own_layers(
        self, fastest: list[Case], traced: list[Case], pins: dict[str, Any]
    ) -> dict[str, float]:
        if "measured" not in pins:
            return {}
        return {"sim.pred_err_pct": prediction_error_pct(traced, pins["measured"])}


class EagerServerWorkload(ScenarioWorkload):
    """``server_eager``; its warm-up also checks eager == sharded."""

    def warmup(self) -> list[Case]:
        cases = self.repetition()
        _, payload = self.dicts[0]
        sharded = dict(payload, engine=dict(
            payload["engine"], shards=4, shard_mode="inprocess"
        ))
        twin = self._run_case("eager_vs_sharded", sharded)
        eager = cases[0]
        if not (eager.errors or twin.errors):
            for key in ("makespan", "sojourn_p99"):
                a, b = float(eager.outputs[key]), float(twin.outputs[key])
                if not _close(a, b):
                    twin.errors.append(f"eager {key} {a!r} != sharded {b!r}")
            a = eager.counters["mean_slowdown"]
            b = twin.counters["mean_slowdown"]
            if not _close(a, b):
                twin.errors.append(f"eager mean_slowdown {a!r} != sharded {b!r}")
        twin.outputs = {}  # compared with the eager run, not with a pin
        return cases + [twin]


def _lu_cases(
    engine: str, seed: int, n: int, rs: tuple[int, int]
) -> list[tuple[str, dict]]:
    """The pipelined case at ``rs[0]`` and the removal case at ``rs[1]``."""
    return [
        ("pipelined", _lu_dict(engine, seed, n, rs[0], removal=False)),
        ("removal", _lu_dict(engine, seed, n, rs[1], removal=True)),
    ]


# --------------------------------------------------------------------------
# churn_dense
# --------------------------------------------------------------------------


def _flatten(prefix: str, stats: Any, out: dict[str, float]) -> None:
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[prefix + f.name] = value


class ChurnWorkload(Workload):
    """Steady-state dense churn over the registry's ``maxmin`` and ``packet``.

    ``flows`` concurrent transfers all-to-all on the smallest node count
    whose pair space holds them — one giant link component, every change
    cascades — each completion replaced until ``completions`` are done.
    """

    name = "churn_dense"
    nominal_s = 2.5

    def load(self, seed: int, sizes: Sizes, workdir: str) -> None:
        self.seed = seed
        self.sizes = sizes
        self.registry = scenario.default_registry()
        self.nodes = 2
        while self.nodes * (self.nodes - 1) < sizes.churn_flows:
            self.nodes += 1

    def _model(self, kernel: Kernel, name: str) -> Any:
        options = {"seed": self.seed} if name.startswith("packet") else {}
        factory = self.registry.resolve("netmodel", name)
        return factory(
            kernel, NetworkParams(latency=0.0, bandwidth=1e6), **options
        )

    def build_inputs(self) -> None:
        for name in ("maxmin", "packet"):
            self._model(Kernel(), name)

    def _segment(self, case_name: str, model: str, completions: int) -> Case:
        case = Case(case_name)

        def body() -> None:
            kernel = Kernel()
            rng = random.Random(self.seed)
            network = self._model(kernel, model)
            nodes = self.nodes
            total = self.sizes.churn_flows + completions
            spawned = 0

            def submit() -> None:
                nonlocal spawned
                spawned += 1
                src = rng.randrange(nodes)
                dst = rng.randrange(nodes)
                while dst == src:
                    dst = rng.randrange(nodes)
                network.submit(src, dst, rng.uniform(0.5e6, 1.5e6), on_done)

            def on_done(_transfer: Any) -> None:
                if spawned < total:
                    submit()

            for _ in range(self.sizes.churn_flows):
                submit()
            kernel.run()
            case.outputs = {
                "makespan": repr(kernel.now),
                "events": kernel.events_executed,
                "jobs": spawned,
            }
            _flatten("net_", network.allocator.stats, case.counters)
            _flatten("net_horizon_", network.horizon_stats, case.counters)

        return _guard(case, body)

    def repetition(self) -> list[Case]:
        n_maxmin, n_packet = self.sizes.churn_completions
        return [
            self._segment("maxmin", "maxmin", n_maxmin),
            self._segment("packet", "packet", n_packet),
        ]

    def untraced_extras(self, cases: list[Case]) -> list[Case]:
        """The SoA twins, so the scalar/SoA crossover is on record.

        They must land on the scalar makespans (the 1e-9 backend contract).
        """
        twins = []
        for scalar, completions in zip(cases, self.sizes.churn_completions):
            twin = self._segment(
                scalar.name + "_soa", scalar.name + "-soa", completions
            )
            if not (scalar.errors or twin.errors):
                a = float(scalar.outputs["makespan"])
                b = float(twin.outputs["makespan"])
                if not _close(a, b):
                    twin.errors.append(f"scalar {a!r} != soa {b!r}")
            twin.outputs = {}  # compared with the scalar run, not with a pin
            twins.append(twin)
        return twins


# --------------------------------------------------------------------------
# service_closed
# --------------------------------------------------------------------------


class ServiceWorkload(Workload):
    """Closed loop against ``repro serve``: one client that waits for each reply.

    Every request of a repetition is a distinct seed of a small server
    spec, so nothing deduplicates; every repetition sends the same
    requests, in slices that are timed one by one, so each slice's summed
    outputs repeat exactly.
    """

    name = "service_closed"
    nominal_s = 2.8

    def load(self, seed: int, sizes: Sizes, workdir: str) -> None:
        self.seed = seed
        self.sizes = sizes
        # Client and daemon share one vCPU.  A closed loop with one client
        # never has both busy, and on the reference VM every wake-up across
        # vCPUs costs an exit to the hypervisor: unpinned, the fastest of
        # 5 repetitions ranged 1.67-1.91 s over six daemons; pinned,
        # 1.61-1.73 s.
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(self._affinity)})
        self.daemon = Daemon(workdir)
        self.client = ServiceClient(port=self.daemon.port, timeout=60.0)

    def close(self) -> None:
        self.daemon.stop()
        os.sched_setaffinity(0, self._affinity)

    def peak_rss_mb(self) -> float:
        return self.daemon.peak_rss_mb()

    def _request(self, index: int) -> dict[str, Any]:
        return _server_dict(
            "ledger-service",
            self.seed * 100_000 + index,
            (12, 20.0, 8, 1),
        )

    def _block(self, case_name: str, first: int, requests: int) -> Case:
        """Requests ``first .. first + requests - 1``, one after the other."""
        case = Case(case_name, ops=requests)
        records: list[dict] = []

        def body() -> None:
            for index in range(first, first + requests):
                started = time.perf_counter()
                try:
                    records.append(self.client.run(self._request(index)))
                except Exception as exc:  # non-2xx, timeout, reset: a failed op
                    case.errors.append(f"request {index}: {exc}")
                case.latencies_s.append(time.perf_counter() - started)

        _guard(case, body)
        case.outputs = {
            "makespan": repr(sum(r["makespan"] for r in records)),
            "events": sum(r["events"] for r in records),
            "jobs": sum(int(r["metrics"]["jobs"]) for r in records),
            "sojourn_p99": repr(
                max((r["metrics"]["sojourn_p99"] for r in records), default=0.0)
            ),
        }
        return case

    def repetition(self) -> list[Case]:
        per_slice = self.sizes.service_block_requests // self.sizes.service_slices
        return [
            self._block(f"slice{k}", k * per_slice, per_slice)
            for k in range(self.sizes.service_slices)
        ]

    def warmup(self) -> list[Case]:
        block = self._block("warmup_block", 0, self.sizes.service_warmup_requests)
        block.outputs = {}  # its size differs from a timed block's: no pin
        return [block]

    def own_layers(
        self, fastest: list[Case], traced: list[Case], pins: dict[str, Any]
    ) -> dict[str, float]:
        return service_metrics(fastest, self.client.stats())


WORKLOADS: dict[str, Callable[[], Any]] = {
    "lu_predict": lambda: ScenarioWorkload(
        "lu_predict", 2.5,
        lambda seed, sizes: _lu_cases("sim", seed, sizes.lu_n, sizes.lu_predict_r),
        # measured = the testbed twins of the same cases
        measured=lambda seed, sizes: _lu_cases(
            "testbed", seed, sizes.lu_n, sizes.lu_predict_r),
    ),
    "lu_measure": lambda: ScenarioWorkload(
        "lu_measure", 2.5,
        lambda seed, sizes: _lu_cases(
            "testbed", seed, sizes.lu_n, sizes.lu_measure_r),
    ),
    "server_eager": lambda: EagerServerWorkload(
        "server_eager", 2.0,
        lambda seed, sizes: _two_streams("ledger-server-eager", seed, sizes.eager),
    ),
    "server_stream": lambda: ScenarioWorkload(
        "server_stream", 2.4,
        lambda seed, sizes: _two_streams("ledger-server-stream", seed, sizes.stream),
    ),
    "churn_dense": ChurnWorkload,
    "service_closed": ServiceWorkload,
}


# --------------------------------------------------------------------------
# tracing: which calls get a span
# --------------------------------------------------------------------------


def install_spans(tracer: Tracer, policy_classes: set[type]) -> None:
    """Wrap the calls into each layer (see README, 'Traced run')."""

    def stream_arg(args: tuple) -> tuple:
        server, workload = args
        if isinstance(workload, Sequence):
            return args
        return server, tracer.iterate("clusterserver.arrivals", workload)

    tracer.wrap(scenario, "run_scenario", "scenario.run_scenario")
    tracer.wrap(scenario, "default_registry", "scenario.default_registry")
    tracer.wrap(scenario.ScenarioSpec, "from_dict", "scenario.from_dict")
    tracer.wrap(DPSSimulator, "run", "sim.run")
    tracer.wrap(TestbedExecutor, "run", "testbed.run")
    tracer.wrap(ClusterServer, "run", "clusterserver.run", adapt=stream_arg)
    tracer.wrap(ShardedServer, "run", "clusterserver.run", adapt=stream_arg)
    tracer.wrap(EpochController, "run", "des.epoch_run")
    tracer.wrap(
        Kernel, "run", "des.kernel_run",
        probe=lambda args: args[0].events_executed,
    )
    for cls in sorted(
        {defining_class(c, "allocate") for c in policy_classes},
        key=lambda c: c.__qualname__,
    ):
        tracer.wrap(cls, "allocate", "clusterserver.allocate")
    tracer.wrap(NetworkModel, "submit", "netmodel.submit")
    tracer.wrap(SharedCpuModel, "submit", "cpumodel.submit")
    tracer.wrap(TimesliceCpuModel, "submit", "cpumodel.submit")
    tracer.wrap(ServiceClient, "run", "service.client_run")


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def prediction_error_pct(cases: list[Case], measured: dict[str, str]) -> float:
    """Largest |predicted - measured| / measured over the cases, in percent."""
    worst = 0.0
    for case in cases:
        if case.name in measured and "makespan" in case.outputs:
            reference = float(measured[case.name])
            predicted = float(case.outputs["makespan"])
            worst = max(worst, abs(predicted - reference) / reference * 100.0)
    return worst


def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def layer_metrics(
    cases: list[Case], extras: list[Case], spans: dict[str, dict[str, float]]
) -> dict[str, float]:
    """Per-layer metrics of the traced repetition: its cases, its spans,
    and the wall times of the untraced ``extras`` that followed it."""

    def span(name: str, key: str = "total_s") -> float:
        return spans.get(name, {}).get(key, 0.0)

    def counter(*keys: str) -> float:
        return sum(case.counters.get(key, 0) for case in cases for key in keys)

    def case_wall(name: str) -> float:
        return sum(c.wall_s for c in cases + extras if c.name == name)

    def per_event_us(seconds: float, events: float) -> float:
        return seconds / events * 1e6 if events else 0.0

    dps_events = sum(
        c.counters.get("events", 0) for c in cases
        if c.engine in ("sim", "testbed")
    )
    server_events = sum(
        c.counters.get("events", 0) for c in cases if c.engine == "server"
    )
    dps_run_s = span("sim.run") + span("testbed.run")
    return {
        "scenario.run_self_s": span("scenario.run_scenario", "self_s"),
        "sim.run_s": span("sim.run"),
        "testbed.run_s": span("testbed.run"),
        "dps.events": dps_events,
        "dps.us_per_event": per_event_us(dps_run_s, dps_events),
        "des.kernel_run_s": span("des.kernel_run"),
        "des.events": span("des.kernel_run", "count"),
        "des.us_per_event": per_event_us(
            span("des.kernel_run"), span("des.kernel_run", "count")
        ),
        "des.horizon_heap_ops": counter(
            "net_horizon_heap_pushes", "net_horizon_heap_pops",
            "cpu_horizon_heap_pushes", "cpu_horizon_heap_pops",
        ),
        "des.horizon_stale_discards": counter(
            "net_horizon_stale_discards", "cpu_horizon_stale_discards"
        ),
        "des.epoch_count": counter("shard_epochs"),
        "des.barrier_wait_s": counter("shard_barrier_wait_s"),
        "netmodel.submit_s": span("netmodel.submit"),
        "netmodel.updates": counter(
            "net_incremental_updates", "net_full_allocations"
        ),
        "netmodel.rates_computed": counter("net_rates_computed"),
        "netmodel.full_fallbacks": counter("net_full_fallbacks"),
        "netmodel.warm_starts": counter("net_warm_starts"),
        "netmodel.warm_inserts": counter("net_warm_inserts"),
        "netmodel.maxmin_s": case_wall("maxmin"),
        "netmodel.packet_s": case_wall("packet"),
        "netmodel.maxmin_soa_s": case_wall("maxmin_soa"),
        "netmodel.packet_soa_s": case_wall("packet_soa"),
        "cpumodel.submit_s": span("cpumodel.submit"),
        "cpumodel.updates": counter(
            "cpu_incremental_updates", "cpu_full_allocations"
        ),
        "cpumodel.rates_computed": counter("cpu_rates_computed"),
        "clusterserver.run_s": span("clusterserver.run"),
        "clusterserver.sched_allocate_s": span("clusterserver.allocate"),
        "clusterserver.sched_allocate_calls": span(
            "clusterserver.allocate", "calls"
        ),
        "clusterserver.allocations_elided": counter("shard_allocations_elided"),
        "clusterserver.arrivals_s": span("clusterserver.arrivals"),
        "clusterserver.events": server_events,
    }


def service_metrics(
    slices: list[Case], stats: dict[str, Any]
) -> dict[str, float]:
    """``service.*`` from the fastest repetition's slices and ``GET /stats``."""
    out: dict[str, float] = {}
    lat = sorted(x for case in slices for x in case.latencies_s)
    if lat:
        out["service.throughput_rps"] = (
            sum(c.ops for c in slices) / sum(c.wall_s for c in slices)
        )
        out["service.req_p50_ms"] = statistics.median(lat) * 1e3
        out["service.req_p99_ms"] = percentile(lat, 99.0) * 1e3
    if stats:
        exec_p50 = stats["latency"]["p50_s"] or 0.0
        out["service.exec_p50_ms"] = exec_p50 * 1e3
        if "service.req_p50_ms" in out:
            out["service.http_overhead_ms"] = (
                out["service.req_p50_ms"] - exec_p50 * 1e3
            )
        counters = stats["counters"]
        out["service.executed"] = counters["executed"]
        out["service.deduplicated"] = counters["deduplicated"]
        out["service.rejected_429"] = counters["rejected"]
    return out
