"""Built-in plugins for the default scenario registry.

One place wires every name a :class:`~repro.scenario.spec.ScenarioSpec`
may use to the concrete classes of the repository:

* **apps** — ``lu``, ``stencil``, ``sort``, ``matmul``;
* **netmodels** — ``star`` (equal share, the paper's model), ``maxmin``,
  ``packet``, ``backplane``, ``analytic``, plus the numpy
  structure-of-arrays variants ``maxmin-soa`` and ``packet-soa`` (scalar
  fallback when numpy is absent);
* **cpumodels** — ``shared`` (the simulator's), ``timeslice`` (the
  testbed's);
* **providers** — ``costmodel`` (PDEXEC), ``direct``,
  ``measure_first_n`` (plus the ``auto`` mode-derived default);
* **engines** — ``sim``, ``testbed``, ``server``;
* **workloads** — the ``poisson``, ``bursty``, ``diurnal``, ``trace``
  arrival streams a ``cluster.arrivals`` table names;
* **policies** — ``static``, ``fcfs``, ``backfill``, ``equipartition``,
  ``adaptive`` schedulers plus the ``admission`` and ``autoscale``
  wrappers.

Extension guide: register your own under a new name (see
``docs/scenarios.md``); the spec format never needs to change.
"""

from __future__ import annotations

import functools
import inspect
import sys
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.scenario.registry import AppPlugin, Registry
from repro.util.validation import check_options, check_type


def _stderr_hint(message: str) -> None:
    print(message, file=sys.stderr)


class _Deferred:
    """A model plugin imported on first use: ``load()`` returns the
    callable that builds the model, whose signature is the plugin's."""

    def __init__(self, load: Callable[[], Callable[..., Any]]) -> None:
        self._load = load

    @property
    def __signature__(self) -> inspect.Signature:
        return inspect.signature(self._load())

    def __call__(self, *args: Any, **options: Any) -> Any:
        return self._load()(*args, **options)


def _soa_or_scalar(
    attr: str, load_scalar: Callable[[], Callable[..., Any]]
) -> _Deferred:
    """A ``*-soa`` plugin: ``repro.netmodel.soa``'s ``attr`` with numpy,
    else the scalar equivalent after a one-line hint on stderr.  The SoA
    models accept a subset of the scalar options, so a spec that resolves
    on a full install resolves on a numpy-less one too."""

    def load() -> Callable[..., Any]:
        from repro.des.soa import emit_numpy_hint_once, soa_available

        if soa_available():
            from repro.netmodel import soa

            return getattr(soa, attr)
        emit_numpy_hint_once(_stderr_hint)
        return load_scalar()

    return _Deferred(load)


# --------------------------------------------------------------------------
# apps
# --------------------------------------------------------------------------


def _install_apps(registry: Registry) -> None:
    from repro.apps.lu.app import LUApplication
    from repro.apps.lu.config import LUConfig
    from repro.apps.lu.costs import LUCostModel
    from repro.apps.matmul import MatmulApplication, MatmulConfig
    from repro.apps.sort import (
        SampleSortApplication,
        SampleSortConfig,
        SampleSortCostModel,
    )
    from repro.apps.stencil import (
        StencilApplication,
        StencilConfig,
        StencilCostModel,
    )
    from repro.sim.providers import MachineCostModel

    registry.register(
        "app",
        "lu",
        AppPlugin(
            name="lu",
            config_cls=LUConfig,
            build=LUApplication,
            cost_model=lambda machine, cfg: LUCostModel(machine, cfg.r),
            verify=lambda app, runtime: app.verify(runtime),
            supports_schedule=True,
        ),
    )
    registry.register(
        "app",
        "stencil",
        AppPlugin(
            name="stencil",
            config_cls=StencilConfig,
            build=StencilApplication,
            cost_model=lambda machine, cfg: StencilCostModel(
                machine, cfg.rows, cfg.n
            ),
            verify=lambda app, runtime: app.verify(runtime),
            supports_schedule=True,
        ),
    )
    registry.register(
        "app",
        "sort",
        AppPlugin(
            name="sort",
            config_cls=SampleSortConfig,
            build=SampleSortApplication,
            cost_model=lambda machine, cfg: SampleSortCostModel(
                machine, cfg.block, cfg.num_threads
            ),
            verify=lambda app, runtime: app.verify(),
        ),
    )
    registry.register(
        "app",
        "matmul",
        AppPlugin(
            name="matmul",
            config_cls=MatmulConfig,
            build=MatmulApplication,
            cost_model=lambda machine, cfg: MachineCostModel(machine),
            verify=lambda app, runtime: app.verify(),
        ),
    )


# --------------------------------------------------------------------------
# models
# --------------------------------------------------------------------------


def _install_netmodels(registry: Registry) -> None:
    from repro.netmodel.analytic import AnalyticNetwork
    from repro.netmodel.backplane import BackplaneStarNetwork
    from repro.netmodel.maxmin import MaxMinStarNetwork
    from repro.netmodel.star import EqualShareStarNetwork

    def packet() -> Callable[..., Any]:
        from repro.netmodel.packet import PacketNetwork

        return PacketNetwork

    registry.register(
        "netmodel", "star",
        EqualShareStarNetwork,
        description="equal-share star, the paper's model (scalar backend)",
    )
    registry.register(
        "netmodel", "maxmin",
        MaxMinStarNetwork,
        description="max-min fair star, incremental water-fill (scalar backend)",
    )
    registry.register(
        "netmodel", "packet",
        _Deferred(packet),
        description="chunked noisy testbed network (scalar backend)",
    )
    registry.register(
        "netmodel", "backplane",
        BackplaneStarNetwork,
        description="star with a shared-backplane cap (scalar backend)",
    )
    registry.register(
        "netmodel", "analytic",
        AnalyticNetwork,
        description="contention-free closed-form latency+size (scalar backend)",
    )
    registry.register(
        "netmodel", "maxmin-soa",
        _soa_or_scalar("MaxMinStarNetworkSoA", lambda: MaxMinStarNetwork),
        description="max-min fair star over numpy arrays (soa backend)",
    )
    registry.register(
        "netmodel", "packet-soa",
        _soa_or_scalar("PacketNetworkSoA", packet),
        description="chunked noisy network over numpy arrays (soa backend)",
    )


def _install_cpumodels(registry: Registry) -> None:
    from repro.cpumodel.commcost import CommCostModel
    from repro.cpumodel.shared import SharedCpuModel

    # Each adapter turns the platform into the model's second argument.
    @functools.wraps(SharedCpuModel, updated=())
    def shared(kernel: Any, platform: Any, **options: Any) -> Any:
        return SharedCpuModel(
            kernel, CommCostModel(platform.comm_cost), **options
        )

    def timeslice() -> Callable[..., Any]:
        from repro.cpumodel.timeslice import TimesliceCpuModel, TimesliceParams

        @functools.wraps(TimesliceCpuModel, updated=())
        def build(kernel: Any, platform: Any, **options: Any) -> Any:
            return TimesliceCpuModel(kernel, TimesliceParams(), **options)

        return build

    registry.register(
        "cpumodel", "shared",
        shared,
        description="even-share fluid CPU, the paper's model (scalar backend)",
    )
    registry.register(
        "cpumodel", "timeslice",
        _Deferred(timeslice),
        description="noisy overhead-laden testbed CPU (scalar backend)",
    )


# --------------------------------------------------------------------------
# providers
# --------------------------------------------------------------------------


def _install_providers(registry: Registry) -> None:
    from repro.sim.providers import (
        CostModelProvider,
        DirectExecutionProvider,
        HostCalibration,
        MeasureFirstNProvider,
    )

    def costmodel(spec, plugin, cfg, platform, mode):
        return CostModelProvider(
            plugin.cost_model(platform.machine, cfg),
            run_kernels=mode.runs_kernels,
        )

    def direct(spec, plugin, cfg, platform, mode, *, persist: bool = True):
        # ``persist`` only steers ``auto`` between this and measure_first_n.
        return DirectExecutionProvider(HostCalibration(platform.machine))

    def measure_first_n(
        spec, plugin, cfg, platform, mode, *, n: int = 3, persist: bool = True
    ):
        return MeasureFirstNProvider(
            DirectExecutionProvider(HostCalibration(platform.machine)),
            n=n,
            run_kernels_after=mode.allocates,
            persist=persist,
        )

    registry.register("provider", "costmodel", costmodel)
    registry.register("provider", "direct", direct)
    registry.register("provider", "measure_first_n", measure_first_n)


# --------------------------------------------------------------------------
# engines, workloads, policies
# --------------------------------------------------------------------------


def _install_engines(registry: Registry) -> None:
    from repro.scenario.runner import run_server, run_sim, run_testbed

    registry.register("engine", "sim", run_sim)
    registry.register("engine", "testbed", run_testbed)
    registry.register("engine", "server", run_server)


def _install_workloads(registry: Registry) -> None:
    """Each workload is a stream factory ``(cluster, seed, shape, params)
    -> ArrivalProcess``: ``params`` is the spec's ``cluster.arrivals``
    table less ``process``, checked against the generator's signature
    (which each adapter exposes as its own); ``shape`` is ``app.name``."""
    from repro.clusterserver.arrivals import (
        bursty_arrivals,
        diurnal_arrivals,
        poisson_arrivals,
        trace_arrivals,
    )

    def _synthetic_stream(fn: Callable[..., Any]) -> Callable[..., Any]:
        """Adapt a shape-sampling generator to the stream contract."""

        @functools.wraps(fn)
        def stream(cluster: Any, seed: int, shape: str, params: dict) -> Any:
            check_options("cluster.arrivals", params, fn, supplied=("shape",))
            kwargs = dict(params, shape=shape)
            kwargs.setdefault("seed", seed)
            kwargs.setdefault("max_nodes", cluster.job_max_nodes)
            return fn(**kwargs)

        return stream

    @functools.wraps(trace_arrivals)
    def _trace_stream(cluster: Any, seed: int, shape: str, params: dict) -> Any:
        return trace_arrivals(
            **check_options("cluster.arrivals", params, trace_arrivals)
        )

    for name, stream, description in (
        ("poisson", _synthetic_stream(poisson_arrivals),
         "constant-rate memoryless arrivals"),
        ("bursty", _synthetic_stream(bursty_arrivals),
         "two-state MMPP quiet/burst phases"),
        ("diurnal", _synthetic_stream(diurnal_arrivals),
         "sinusoidal daily-cycle arrival rate"),
        ("trace", _trace_stream, "JSON-lines trace replay (path = ...)"),
    ):
        registry.register("workload", name, stream, description=description)


def _install_policies(registry: Registry) -> None:
    import dataclasses

    from repro.clusterserver.scheduler import (
        AdaptiveEfficiencyScheduler,
        AdmissionControlScheduler,
        AutoscalingScheduler,
        EquipartitionScheduler,
        FcfsScheduler,
        StaticScheduler,
    )

    def plain(make: Callable[[Any], Any]) -> Callable[[Any], Any]:
        """Plain policies take no policy_options — reject them loudly."""

        def factory(c: Any) -> Any:
            if c.policy_options:
                raise ConfigurationError(
                    f"policy {c.policy!r} takes no policy_options "
                    f"({sorted(c.policy_options)} given); only 'admission' "
                    "and 'autoscale' are configurable"
                )
            return make(c)

        return factory

    def wrapper(cls: Callable[..., Any]) -> Callable[[Any], Any]:
        """Admission/autoscaling wrap an inner policy named in options;
        the rest are checked against ``cls``'s signature (exposed as the
        factory's own)."""

        @functools.wraps(cls, updated=())
        def factory(c: Any) -> Any:
            options = dict(c.policy_options)
            inner_name = check_type(
                "cluster.policy_options.inner",
                options.pop("inner", "adaptive"),
                str,
            )
            check_options("cluster.policy_options", options, cls, skip=1)
            inner_section = dataclasses.replace(
                c, policy=inner_name, policy_options={}
            )
            inner = registry.resolve("policy", inner_name)(inner_section)
            return cls(inner, **options)

        return factory

    registry.register(
        "policy",
        "static",
        plain(lambda c: StaticScheduler(c.nodes_per_job)),
        description="fixed nodes_per_job grant, FCFS admission",
    )
    registry.register(
        "policy",
        "fcfs",
        plain(lambda c: FcfsScheduler()),
        description="first-come-first-served up to each job's maximum",
    )
    registry.register(
        "policy",
        "backfill",
        plain(lambda c: FcfsScheduler(backfill=True)),
        description="FCFS with backfilling of later runnable jobs",
    )
    registry.register(
        "policy",
        "equipartition",
        plain(lambda c: EquipartitionScheduler()),
        description="equal node shares across running jobs",
    )
    registry.register(
        "policy",
        "adaptive",
        plain(lambda c: AdaptiveEfficiencyScheduler(c.efficiency_floor)),
        description="efficiency-aware shares (paper's dynamic policy)",
    )
    registry.register(
        "policy",
        "admission",
        wrapper(AdmissionControlScheduler),
        description=(
            "admission control around an inner policy "
            "(max_active/max_queued/load_max, defer)"
        ),
    )
    registry.register(
        "policy",
        "autoscale",
        wrapper(AutoscalingScheduler),
        description=(
            "utilization-driven node-pool autoscaling around an inner "
            "policy"
        ),
    )


def _install_faults(registry: Registry) -> None:
    from repro.faults import BUILTIN_FAULT_KINDS

    for kind in BUILTIN_FAULT_KINDS.values():
        registry.register(
            "fault", kind.name, kind, description=kind.description
        )


def install_builtins(registry: Registry) -> Registry:
    """Install every built-in plugin into ``registry``; returns it."""
    _install_apps(registry)
    _install_netmodels(registry)
    _install_cpumodels(registry)
    _install_providers(registry)
    _install_engines(registry)
    _install_workloads(registry)
    _install_policies(registry)
    _install_faults(registry)
    return registry
