"""The declarative scenario specification.

A :class:`ScenarioSpec` is the single description format every execution
engine understands: one spec names an application (or cluster workload),
the performance models to assemble around it, a duration provider, the
target platform, and the engine that should run it — the simulator, the
ground-truth testbed, or the (optionally sharded) cluster server.  Specs
are plain data: they round-trip through ``dict``/JSON/TOML, pickle across
process pools, and compare by value, which is what lets sweeps, benches
and CI jobs all speak one format (see ``docs/scenarios.md``).

Loading: :meth:`ScenarioSpec.from_dict`, :meth:`ScenarioSpec.from_file`
(``.toml``/``.json`` by suffix).  Serializing:
:meth:`ScenarioSpec.to_dict` emits the canonical fully-expanded dict —
every scalar field explicit, empty option tables omitted — so that
``from_dict(spec.to_dict()).to_dict() == spec.to_dict()`` is an identity.

Unknown section or field names are rejected with a
:class:`~repro.errors.ConfigurationError` naming the valid choices; a
typo'd key can never be silently ignored.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.dps.malleability import STATIC, AllocationEvent, AllocationSchedule
from repro.errors import ConfigurationError
from repro.sim.modes import SimulationMode
from repro.util.validation import check_options, check_type

try:  # Python >= 3.11; TOML specs degrade gracefully to JSON below that.
    import tomllib
except ImportError:  # pragma: no cover - exercised only on 3.10
    tomllib = None  # type: ignore[assignment]


#: CLI names for the simulation modes.
MODE_NAMES = {
    "direct": SimulationMode.DIRECT,
    "pdexec": SimulationMode.PDEXEC,
    "noalloc": SimulationMode.PDEXEC_NOALLOC,
}


def parse_mode(name: str) -> SimulationMode:
    """Map a mode name to a :class:`SimulationMode`."""
    try:
        return MODE_NAMES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown mode {name!r}; choose from {sorted(MODE_NAMES)}"
        ) from None


def parse_kill_events(specs: Optional[list[str]]) -> AllocationSchedule:
    """Parse ``"4,5,6,7@1"`` kill specifications into a schedule.

    Each spec reads *remove threads <indices> after iteration <k>*; the
    phase label follows the apps' ``iter<k>`` convention.
    """
    if not specs:
        return STATIC
    events = []
    for spec in specs:
        try:
            indices_part, phase_part = spec.split("@", 1)
            indices = tuple(int(x) for x in indices_part.split(",") if x.strip())
            after = int(phase_part)
        except ValueError:
            raise ConfigurationError(
                f"bad kill spec {spec!r}; expected e.g. '4,5,6,7@1'"
            ) from None
        if not indices:
            raise ConfigurationError(f"kill spec {spec!r} removes no threads")
        events.append(AllocationEvent(f"iter{after}", "workers", indices))
    name = " + ".join(specs)
    return AllocationSchedule(events=tuple(events), name=f"kill {name}")


# --------------------------------------------------------------------------
# sections
# --------------------------------------------------------------------------


def _freeze_options(options: Optional[Mapping[str, Any]]) -> dict[str, Any]:
    if options is None:
        return {}
    if not isinstance(options, Mapping):
        raise ConfigurationError(
            f"options must be a table/dict, got {type(options).__name__}"
        )
    return dict(options)


@dataclass(frozen=True)
class AppSection:
    """What to run: a registered application (or cluster workload) name.

    ``options`` are keyword arguments of the app's config dataclass
    (``n``, ``r``, ``num_threads``, ...); the engine supplies ``mode``
    and ``schedule`` itself (from ``engine.mode`` and ``events``), so
    setting those is an error when the config is built.
    """

    name: str = "lu"
    options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", _freeze_options(self.options))


@dataclass(frozen=True)
class EngineSection:
    """Which engine executes the scenario, and how.

    ``mode`` and ``verify`` apply to the DPS engines (``sim``,
    ``testbed``); ``shards`` to the ``server`` engine (``shards > 1``
    selects the sharded epoch-barrier engine).  ``shard_mode`` chooses
    nothing — shards run in process — and is accepted for older specs.
    ``seed`` is the measurement seed: testbed noise for ``testbed``, the
    workload stream for ``server``, and the calibration cluster for
    calibrated ``sim`` platforms.
    """

    name: str = "sim"
    mode: str = "pdexec"
    seed: int = 1
    verify: bool = False
    shards: int = 1
    shard_mode: str = "auto"
    options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", _freeze_options(self.options))
        if self.mode not in MODE_NAMES:
            raise ConfigurationError(
                f"unknown engine.mode {self.mode!r}; choose from "
                f"{sorted(MODE_NAMES)}"
            )
        if self.verify and self.mode == "noalloc":
            raise ConfigurationError(
                "engine.verify needs the computed data, which engine.mode "
                "'noalloc' never allocates; use mode 'pdexec' or 'direct', "
                "or drop engine.verify"
            )
        if self.seed < 0:
            raise ConfigurationError(
                f"engine.seed must be >= 0, got {self.seed}"
            )
        if self.shards < 1:
            raise ConfigurationError("engine.shards must be >= 1")
        if self.shard_mode == "process":
            raise ConfigurationError(
                "engine.shard_mode 'process' was removed (worker-process "
                "shards were slower at every shard count); drop the key"
            )
        if self.shard_mode not in ("auto", "inprocess"):
            raise ConfigurationError(
                f"unknown engine.shard_mode {self.shard_mode!r}; choose from "
                "['auto', 'inprocess']"
            )


@dataclass(frozen=True)
class ModelSection:
    """A registered model (net or CPU) plus its constructor options."""

    name: str
    options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", _freeze_options(self.options))


@dataclass(frozen=True)
class ProviderSection:
    """Duration provider choice.

    ``auto`` derives the provider from the engine mode the way the CLI
    always has: ``direct`` mode runs kernels for real (wrapped in the
    persistent measure-first-n cache unless ``persist`` is false), the
    PDEXEC modes use the app's cost model.
    """

    name: str = "auto"
    options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", _freeze_options(self.options))


@dataclass(frozen=True)
class PlatformSection:
    """Target platform: the paper cluster, optionally testbed-calibrated.

    ``calibrate=True`` replaces the paper's nominal network parameters
    with a (cached) latency/bandwidth fit measured against the
    ground-truth packet network — the sweep workflow.  ``options`` may
    override ``latency``/``bandwidth`` directly (what-if studies).
    """

    name: str = "paper"
    calibrate: bool = False
    options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", _freeze_options(self.options))


@dataclass(frozen=True)
class ClusterSection:
    """The ``server`` engine's scenario shape (paper §9 workloads).

    ``arrivals`` names the streaming arrival process (``process =
    "poisson" | "bursty" | "diurnal" | "trace"``) plus its parameters and
    a stop condition (``jobs`` and/or ``horizon``); jobs are generated
    lazily and memory stays bounded by the active-job count (see
    ``docs/workloads.md``).  The job shape is the spec's ``app.name``.
    A ``server`` run needs a non-empty table.

    ``policy_options`` are keyword arguments of the policy factory —
    admission/autoscaling limits, and ``inner`` for wrapper policies.
    """

    nodes: int = 16
    policy: str = "adaptive"
    nodes_per_job: int = 8
    efficiency_floor: float = 0.5
    max_nodes: int = 0  # 0: min(8, nodes), the CLI default
    arrivals: dict[str, Any] = field(default_factory=dict)
    policy_options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "arrivals", _freeze_options(self.arrivals))
        object.__setattr__(
            self, "policy_options", _freeze_options(self.policy_options)
        )
        if self.nodes < 1:
            raise ConfigurationError("cluster.nodes must be >= 1")
        if self.nodes_per_job < 1:
            raise ConfigurationError(
                f"cluster.nodes_per_job must be >= 1, got {self.nodes_per_job}"
            )
        if self.arrivals and not isinstance(self.arrivals.get("process"), str):
            raise ConfigurationError(
                "cluster.arrivals needs a 'process' name (string); e.g. "
                'arrivals = {process = "poisson", mean_interarrival = 25.0, '
                "jobs = 1000}"
            )

    @property
    def job_max_nodes(self) -> int:
        """Per-job allocation cap handed to the workload generator."""
        return self.max_nodes or min(8, self.nodes)


@dataclass(frozen=True)
class FaultsSection:
    """Deterministic failure injection (see ``docs/faults.md``).

    ``events`` is a list of fault tables — ``{kind = "crash", node = 3,
    at = 120.0}`` and friends; the key vocabulary and numeric types are
    validated here (registry-free), per-kind semantics when the engine
    builds its :class:`~repro.faults.FaultPlan`, so registry-registered
    custom kinds parse cleanly.  ``seed = -1`` (the default) inherits
    ``engine.seed``; ``max_retries`` bounds per-job restarts on the
    server engines.
    """

    max_retries: int = 2
    seed: int = -1
    events: tuple = ()

    def __post_init__(self) -> None:
        from repro.faults import BUILTIN_FAULT_KINDS, event_from_dict

        if self.max_retries < 0:
            raise ConfigurationError("faults.max_retries must be >= 0")
        normalized = []
        for raw in self.events:
            ev = event_from_dict(raw)
            kind = BUILTIN_FAULT_KINDS.get(ev.kind)
            if kind is not None:  # custom kinds validate at engine time
                kind.validate(ev)
            normalized.append(ev.to_dict())
        object.__setattr__(self, "events", tuple(normalized))


_SECTION_TYPES: dict[str, type] = {
    "app": AppSection,
    "engine": EngineSection,
    "netmodel": ModelSection,
    "cpumodel": ModelSection,
    "provider": ProviderSection,
    "platform": PlatformSection,
    "cluster": ClusterSection,
    "faults": FaultsSection,
}


def _section_from_dict(section: str, cls: type, payload: Any):
    if not isinstance(payload, Mapping):
        raise ConfigurationError(
            f"spec section {section!r} must be a table/dict, "
            f"got {type(payload).__name__}"
        )
    return cls(**check_options(section, payload, cls))


# --------------------------------------------------------------------------
# the spec
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, serializable scenario description.

    ``events`` are dynamic-allocation kill specs in the CLI's
    ``"4,5@1"`` syntax (remove threads 4 and 5 after iteration 1),
    applied to apps that support a removal schedule.
    """

    name: str = "scenario"
    app: AppSection = field(default_factory=AppSection)
    engine: EngineSection = field(default_factory=EngineSection)
    netmodel: ModelSection = field(default_factory=lambda: ModelSection("star"))
    cpumodel: ModelSection = field(default_factory=lambda: ModelSection("shared"))
    provider: ProviderSection = field(default_factory=ProviderSection)
    platform: PlatformSection = field(default_factory=PlatformSection)
    cluster: ClusterSection = field(default_factory=ClusterSection)
    faults: FaultsSection = field(default_factory=FaultsSection)
    events: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a scenario needs a non-empty name")
        object.__setattr__(self, "events", tuple(self.events))
        parse_kill_events(list(self.events))  # fail fast on bad syntax

    # ------------------------------------------------------------ schedule
    def schedule(self) -> AllocationSchedule:
        """The kill events compiled into an allocation schedule."""
        return parse_kill_events(list(self.events))

    def mode(self) -> SimulationMode:
        """The engine's simulation mode, parsed."""
        return parse_mode(self.engine.mode)

    # --------------------------------------------------------- serializing
    def to_dict(self) -> dict[str, Any]:
        """The canonical fully-expanded dict form.

        Every scalar field is explicit; empty ``options`` tables and
        empty ``events`` lists are omitted.  The result is its own fixed
        point: ``from_dict(d).to_dict() == d``.
        """
        payload: dict[str, Any] = {"name": self.name}
        for section in (
            "app", "engine", "netmodel", "cpumodel",
            "provider", "platform", "cluster",
        ):
            value = getattr(self, section)
            entry: dict[str, Any] = {}
            for f in dataclasses.fields(value):
                v = getattr(value, f.name)
                if isinstance(v, dict):
                    if v:  # empty option tables are omitted
                        entry[f.name] = dict(v)
                else:
                    entry[f.name] = v
            payload[section] = entry
        if self.faults != FaultsSection():
            # Omitted when default so pre-fault specs keep their spec_key;
            # events serialize as the canonical per-event dicts.
            faults: dict[str, Any] = {
                "max_retries": self.faults.max_retries,
                "seed": self.faults.seed,
            }
            if self.faults.events:
                faults["events"] = [dict(e) for e in self.faults.events]
            payload["faults"] = faults
        if self.events:
            payload["events"] = list(self.events)
        return payload

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The canonical dict rendered as JSON."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Build a spec from a (possibly partial) dict; defaults fill in."""
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"a scenario spec must be a table/dict, "
                f"got {type(payload).__name__}"
            )
        known = {"name", "events", *_SECTION_TYPES}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown top-level spec keys {unknown}; "
                f"valid keys: {sorted(known)}"
            )
        kwargs: dict[str, Any] = {}
        if "name" in payload:
            kwargs["name"] = check_type("name", payload["name"], str)
        for section, section_cls in _SECTION_TYPES.items():
            if section in payload:
                kwargs[section] = _section_from_dict(
                    section, section_cls, payload[section]
                )
        if "events" in payload:
            events = payload["events"]
            events = [events] if isinstance(events, str) else events
            if not isinstance(events, (list, tuple)) or not all(
                isinstance(e, str) for e in events
            ):
                raise ConfigurationError(
                    f"events must be a string or a list of strings, got {events!r}"
                )
            kwargs["events"] = tuple(events)
        return cls(**kwargs)

    # -------------------------------------------------------------- files
    @classmethod
    def from_toml(cls, text: str) -> "ScenarioSpec":
        """Parse a TOML scenario document (requires Python >= 3.11)."""
        if tomllib is None:  # pragma: no cover - 3.10 only
            raise ConfigurationError(
                "TOML scenario specs need Python >= 3.11 (tomllib); "
                "use the JSON form instead"
            )
        try:
            return cls.from_dict(tomllib.loads(text))
        except tomllib.TOMLDecodeError as exc:
            raise ConfigurationError(f"invalid TOML scenario spec: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a JSON scenario document."""
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid JSON scenario spec: {exc}") from None

    @classmethod
    def from_file(cls, path: "str | Path") -> "ScenarioSpec":
        """Load a spec from a ``.toml`` or ``.json`` file (by suffix)."""
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigurationError(f"cannot read scenario spec: {exc}") from None
        suffix = path.suffix.lower()
        if suffix == ".toml":
            return cls.from_toml(text)
        if suffix == ".json":
            return cls.from_json(text)
        raise ConfigurationError(
            f"unknown scenario spec format {suffix!r} for {path.name}; "
            "expected .toml or .json"
        )
