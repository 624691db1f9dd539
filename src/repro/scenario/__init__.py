"""Unified declarative scenario API: one spec, one registry, one entry point.

The subsystem the CLI, sweeps, benches and CI jobs all build on (see
``docs/scenarios.md``):

* :class:`~repro.scenario.spec.ScenarioSpec` — a serializable description
  of one run: app + options, performance models, duration provider,
  platform, engine (simulator / testbed / cluster server, optionally
  sharded), seeds and malleability events.  Loads from TOML, JSON or a
  plain dict; round-trips losslessly.
* :class:`~repro.scenario.registry.Registry` — name → plugin tables for
  apps, netmodels, cpumodels, providers, engines, workloads and
  scheduling policies; :func:`~repro.scenario.registry.default_registry`
  carries the built-ins, and new plugins snap in without CLI surgery.
* :func:`~repro.scenario.runner.run_scenario` — the single entry point:
  resolve, execute, and normalize any engine's native result into a
  :class:`~repro.scenario.runner.RunRecord` (makespan, per-phase
  efficiency, allocator/horizon/shard statistics).
"""

from repro.scenario.registry import (
    AppPlugin,
    Registry,
    WorkloadPlugin,
    default_registry,
)
from repro.scenario.runner import RunRecord, calibration_key, run_scenario
from repro.scenario.spec import (
    AppSection,
    ClusterSection,
    EngineSection,
    ModelSection,
    PlatformSection,
    ProviderSection,
    ScenarioSpec,
)

__all__ = [
    "AppPlugin",
    "AppSection",
    "ClusterSection",
    "EngineSection",
    "ModelSection",
    "PlatformSection",
    "ProviderSection",
    "Registry",
    "RunRecord",
    "ScenarioSpec",
    "WorkloadPlugin",
    "calibration_key",
    "default_registry",
    "run_scenario",
]
