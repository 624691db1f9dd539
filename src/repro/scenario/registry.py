"""Plugin registry: apps, models, providers, engines by name.

Every extensible axis of a :class:`~repro.scenario.spec.ScenarioSpec`
resolves through a :class:`Registry`.  The default registry
(:func:`default_registry`) is populated with the built-ins of
:mod:`repro.scenario.builtins`; new plugins register under a fresh name:

.. code-block:: python

    from repro.scenario import default_registry

    reg = default_registry()
    reg.register("netmodel", "myfabric", my_factory)

Duplicate names raise (pass ``replace=True`` to shadow deliberately) and
unknown lookups raise with the sorted list of valid choices — both are
:class:`~repro.errors.ConfigurationError`, so the CLI reports them as
normal configuration mistakes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import ConfigurationError
from repro.scenario.spec import ScenarioSpec, parse_kill_events
from repro.util.validation import check_options

#: The registrable plugin kinds, in the order ``repro scenarios list``
#: reports them.
KINDS = (
    "app",
    "netmodel",
    "cpumodel",
    "provider",
    "engine",
    "workload",
    "policy",
    "fault",
)


class Registry:
    """Typed name → plugin tables, one per kind in :data:`KINDS`."""

    def __init__(self, name: str = "registry") -> None:
        self.name = name
        self._tables: dict[str, dict[str, Any]] = {kind: {} for kind in KINDS}
        self._descriptions: dict[str, dict[str, str]] = {
            kind: {} for kind in KINDS
        }

    # ------------------------------------------------------------ mutation
    def register(
        self,
        kind: str,
        name: str,
        plugin: Any,
        replace: bool = False,
        description: str = "",
    ) -> Any:
        """Register ``plugin`` under ``(kind, name)``.

        Raises on an unknown kind and on duplicate names unless
        ``replace=True``.  ``description`` is the one-line summary
        ``repro scenarios list`` prints next to the name.  Returns the
        plugin, so it composes as a decorator:
        ``registry.register("engine", "mine", fn)``.
        """
        table = self._table(kind)
        if not name:
            raise ConfigurationError(f"a {kind} plugin needs a non-empty name")
        if name in table and not replace:
            raise ConfigurationError(
                f"{kind} {name!r} is already registered in {self.name}; "
                "pass replace=True to shadow it"
            )
        table[name] = plugin
        if description:
            self._descriptions[kind][name] = description
        elif replace:
            self._descriptions[kind].pop(name, None)
        return plugin

    # ------------------------------------------------------------- lookup
    def resolve(self, kind: str, name: str) -> Any:
        """The plugin registered under ``(kind, name)``; raises if absent."""
        table = self._table(kind)
        try:
            return table[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown {kind} {name!r}; choose from {sorted(table)}"
            ) from None

    def names(self, kind: str) -> list[str]:
        """Sorted plugin names of one kind."""
        return sorted(self._table(kind))

    def describe(self, kind: str, name: str) -> str:
        """One-line description of a registered plugin ("" if none)."""
        self.resolve(kind, name)  # raise the usual error when absent
        return self._descriptions[kind].get(name, "")

    def kinds(self) -> tuple[str, ...]:
        """The registrable plugin kinds."""
        return KINDS

    def _table(self, kind: str) -> dict[str, Any]:
        try:
            return self._tables[kind]
        except KeyError:
            raise ConfigurationError(
                f"unknown plugin kind {kind!r}; choose from {sorted(self._tables)}"
            ) from None


# --------------------------------------------------------------------------
# the app plugin contract
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AppPlugin:
    """Everything the engines need to run one registered application.

    Parameters
    ----------
    name:
        Registry name (``lu``, ``stencil``...).
    config_cls:
        The app's frozen config dataclass; ``app.options`` of a spec are
        its keyword arguments, checked against its field annotations.
    build:
        ``config -> Application``.
    cost_model:
        ``(machine profile, config) -> CostModel`` — the PDEXEC duration
        source for this app.
    verify:
        ``(app, runtime) -> None`` numerical check, or None when the app
        has nothing to verify.
    supports_schedule:
        Whether the config accepts a dynamic-allocation ``schedule``
        (kill events).
    """

    name: str
    config_cls: type
    build: Callable[[Any], Any]
    cost_model: Callable[[Any, Any], Any]
    verify: Optional[Callable[[Any, Any], None]] = None
    supports_schedule: bool = False

    def make_config(self, spec: ScenarioSpec) -> Any:
        """Build the app config from a spec (options + mode + events)."""
        options = check_options(
            "app.options", spec.app.options, self.config_cls,
            supplied=("mode", "schedule"),
        )
        kwargs = dict(options, mode=spec.mode())
        if spec.events:
            if not self.supports_schedule:
                raise ConfigurationError(
                    f"app {self.name!r} does not support dynamic-allocation "
                    "events; drop the spec's 'events' list"
                )
            kwargs["schedule"] = parse_kill_events(list(spec.events))
        return self.config_cls(**kwargs)


# --------------------------------------------------------------------------
# the default registry
# --------------------------------------------------------------------------

_DEFAULT: Optional[Registry] = None


def default_registry() -> Registry:
    """The process-wide registry, with built-ins installed on first use."""
    global _DEFAULT
    if _DEFAULT is None:
        from repro.scenario.builtins import install_builtins

        registry = Registry(name="default")
        install_builtins(registry)
        _DEFAULT = registry
    return _DEFAULT
