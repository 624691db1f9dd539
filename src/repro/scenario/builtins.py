"""Built-in plugins for the default scenario registry.

One place wires every name a :class:`~repro.scenario.spec.ScenarioSpec`
may use to the concrete classes of the repository:

* **apps** — ``lu``, ``stencil``, ``sort``, ``matmul``, ``imgpipe``;
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

import sys
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.scenario.registry import AppPlugin, Registry
from repro.util.validation import check_type


def _strict(name: str, cls: Callable[..., Any]) -> Callable[..., Any]:
    """Wrap a model constructor so bad option names configuration-error."""

    def factory(*args: Any, **options: Any) -> Any:
        try:
            return cls(*args, **options)
        except TypeError as exc:
            raise ConfigurationError(
                f"invalid options for {name!r}: {exc}"
            ) from None

    return factory


def _stderr_hint(message: str) -> None:
    print(message, file=sys.stderr)


def _soa_or_scalar(
    name: str,
    load_soa: Callable[[], Callable[..., Any]],
    scalar_factory: Callable[..., Any],
) -> Callable[..., Any]:
    """A ``*-soa`` plugin factory with the graceful scalar fallback.

    With numpy present the SoA class (imported lazily — its module chain
    needs numpy) is built strictly; without it the scalar equivalent runs
    instead, after a one-line hint (not an error) on stderr.  The SoA
    models accept a subset of the scalar options, so every spec that
    resolves on a numpy-less install resolves identically on a full one.
    """

    def factory(*args: Any, **options: Any) -> Any:
        from repro.des.soa import emit_numpy_hint_once, soa_available

        if soa_available():
            return _strict(name, load_soa())(*args, **options)
        emit_numpy_hint_once(_stderr_hint)
        return scalar_factory(*args, **options)

    return factory


# --------------------------------------------------------------------------
# apps
# --------------------------------------------------------------------------


def _install_apps(registry: Registry) -> None:
    from repro.apps.imgpipe import ImagePipelineApplication, ImagePipelineConfig
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
    registry.register(
        "app",
        "imgpipe",
        AppPlugin(
            name="imgpipe",
            config_cls=ImagePipelineConfig,
            build=ImagePipelineApplication,
            cost_model=lambda machine, cfg: MachineCostModel(machine),
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

    def packet_scalar(*args: Any, **options: Any) -> Any:
        # Lazy: the scalar packet model seeds its noise through numpy's
        # RNG, and the registry must import on numpy-less installs.
        from repro.netmodel.packet import PacketNetwork

        return _strict("netmodel packet", PacketNetwork)(*args, **options)

    def _soa(attr: str) -> Callable[[], Callable[..., Any]]:
        def load() -> Callable[..., Any]:
            from repro.netmodel import soa

            return getattr(soa, attr)

        return load

    registry.register(
        "netmodel", "star",
        _strict("netmodel star", EqualShareStarNetwork),
        description="equal-share star, the paper's model (scalar backend)",
    )
    registry.register(
        "netmodel", "maxmin",
        _strict("netmodel maxmin", MaxMinStarNetwork),
        description="max-min fair star, incremental water-fill (scalar backend)",
    )
    registry.register(
        "netmodel", "packet",
        packet_scalar,
        description="chunked noisy testbed network (scalar backend)",
    )
    registry.register(
        "netmodel", "backplane",
        _strict("netmodel backplane", BackplaneStarNetwork),
        description="star with a shared-backplane cap (scalar backend)",
    )
    registry.register(
        "netmodel", "analytic",
        _strict("netmodel analytic", AnalyticNetwork),
        description="contention-free closed-form latency+size (scalar backend)",
    )
    registry.register(
        "netmodel", "maxmin-soa",
        _soa_or_scalar(
            "netmodel maxmin-soa",
            _soa("MaxMinStarNetworkSoA"),
            _strict("netmodel maxmin-soa", MaxMinStarNetwork),
        ),
        description="max-min fair star over numpy arrays (soa backend)",
    )
    registry.register(
        "netmodel", "packet-soa",
        _soa_or_scalar(
            "netmodel packet-soa", _soa("PacketNetworkSoA"), packet_scalar
        ),
        description="chunked noisy network over numpy arrays (soa backend)",
    )


def _install_cpumodels(registry: Registry) -> None:
    from repro.cpumodel.commcost import CommCostModel
    from repro.cpumodel.shared import SharedCpuModel

    def shared(kernel: Any, platform: Any, **options: Any) -> Any:
        return _strict("cpumodel shared", SharedCpuModel)(
            kernel, CommCostModel(platform.comm_cost), **options
        )

    def timeslice(kernel: Any, platform: Any, **options: Any) -> Any:
        # Lazy: the timeslice model seeds its OS noise through numpy's
        # RNG, and the registry must import on numpy-less installs.
        from repro.cpumodel.timeslice import TimesliceCpuModel, TimesliceParams

        return _strict("cpumodel timeslice", TimesliceCpuModel)(
            kernel, TimesliceParams(), **options
        )

    registry.register(
        "cpumodel", "shared",
        shared,
        description="even-share fluid CPU, the paper's model (scalar backend)",
    )
    registry.register(
        "cpumodel", "timeslice",
        timeslice,
        description="noisy overhead-laden testbed CPU (scalar backend)",
    )


# --------------------------------------------------------------------------
# providers
# --------------------------------------------------------------------------


def _check_options(name: str, options: dict, valid: set[str]) -> None:
    """Reject unknown provider options and wrong-typed known ones."""
    unknown = sorted(set(options) - valid)
    if unknown:
        raise ConfigurationError(
            f"unknown provider options {unknown} for {name!r}; "
            f"valid: {sorted(valid)}"
        )
    if "n" in options:
        n = check_type("provider.options.n", options["n"], int)
        if n < 1:
            raise ConfigurationError(f"provider.options.n must be >= 1, got {n}")
    if "persist" in options:
        check_type("provider.options.persist", options["persist"], bool)


def _install_providers(registry: Registry) -> None:
    from repro.sim.providers import (
        CostModelProvider,
        DirectExecutionProvider,
        HostCalibration,
        MeasureFirstNProvider,
    )

    def costmodel(spec, plugin, cfg, platform, mode, options):
        _check_options("costmodel", options, set())
        return CostModelProvider(
            plugin.cost_model(platform.machine, cfg),
            run_kernels=mode.runs_kernels,
        )

    def direct(spec, plugin, cfg, platform, mode, options):
        _check_options("direct", options, {"persist"})
        return DirectExecutionProvider(HostCalibration(platform.machine))

    def measure_first_n(spec, plugin, cfg, platform, mode, options):
        _check_options("measure_first_n", options, {"n", "persist"})
        return MeasureFirstNProvider(
            DirectExecutionProvider(HostCalibration(platform.machine)),
            n=options.get("n", 3),
            run_kernels_after=mode.allocates,
            persist=options.get("persist", True),
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
    table less ``process``, ``shape`` its ``app.name``."""
    from repro.clusterserver.arrivals import (
        bursty_arrivals,
        diurnal_arrivals,
        poisson_arrivals,
        trace_arrivals,
    )

    def _stream_call(name: str, fn: Callable[..., Any], kwargs: dict) -> Any:
        try:
            return fn(**kwargs)
        except TypeError as exc:
            raise ConfigurationError(
                f"invalid cluster.arrivals options for {name!r}: {exc}"
            ) from None

    def _synthetic_stream(name: str, fn: Callable[..., Any]):
        """Adapt a shape-sampling generator to the stream contract."""

        def stream(cluster: Any, seed: int, shape: str, params: dict) -> Any:
            kwargs = dict(params, shape=shape)
            kwargs.setdefault("seed", seed)
            kwargs.setdefault("max_nodes", cluster.job_max_nodes)
            return _stream_call(name, fn, kwargs)

        return stream

    def _trace_stream(cluster: Any, seed: int, shape: str, params: dict) -> Any:
        return _stream_call("trace", trace_arrivals, dict(params))

    for name, stream, description in (
        ("poisson", _synthetic_stream("poisson", poisson_arrivals),
         "constant-rate memoryless arrivals"),
        ("bursty", _synthetic_stream("bursty", bursty_arrivals),
         "two-state MMPP quiet/burst phases"),
        ("diurnal", _synthetic_stream("diurnal", diurnal_arrivals),
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

    def wrapper(name: str, cls: Callable[..., Any]) -> Callable[[Any], Any]:
        """Admission/autoscaling wrap an inner policy named in options."""

        def factory(c: Any) -> Any:
            options = dict(c.policy_options)
            inner_name = str(options.pop("inner", "adaptive"))
            inner_section = dataclasses.replace(
                c, policy=inner_name, policy_options={}
            )
            inner = registry.resolve("policy", inner_name)(inner_section)
            try:
                return cls(inner, **options)
            except TypeError as exc:
                raise ConfigurationError(
                    f"invalid policy_options for {name!r}: {exc}"
                ) from None

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
        wrapper("admission", AdmissionControlScheduler),
        description=(
            "admission control around an inner policy "
            "(max_active/max_queued/load_max, defer)"
        ),
    )
    registry.register(
        "policy",
        "autoscale",
        wrapper("autoscale", AutoscalingScheduler),
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
