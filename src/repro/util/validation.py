"""Argument-validation helpers shared by the model constructors.

Each helper returns the validated value so it can be used inline::

    self.bandwidth = check_positive("bandwidth", bandwidth)

:func:`check_options` checks a whole option table against the signature
of the callable it is passed to.
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
from collections.abc import Callable, Mapping
from pathlib import Path
from typing import Any, TypeVar

from repro.errors import ConfigurationError

T = TypeVar("T")


def check_type(name: str, value: Any, expected: type | tuple[type, ...]) -> Any:
    """Raise :class:`ConfigurationError` unless ``value`` is an ``expected`` instance.

    ``bool`` is an ``int`` subclass; it passes only where ``bool`` is expected.
    """
    types = expected if isinstance(expected, tuple) else (expected,)
    if not isinstance(value, types) or (
        isinstance(value, bool) and bool not in types
    ):
        exp = " or ".join(t.__name__ for t in types)
        raise ConfigurationError(
            f"{name} must be of type {exp}, got {type(value).__name__}"
        )
    return value


def check_finite(name: str, value: float) -> float:
    """Require a finite real number (``bool`` is not one, as in :func:`check_type`)."""
    # Exact int/float skip the slow ABC check; numpy scalars are Real too.
    if type(value) not in (int, float) and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        raise ConfigurationError(
            f"{name} must be a real number, got {type(value).__name__}"
        )
    value = float(value)
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    return value


def check_positive(name: str, value: float) -> float:
    """Require a strictly positive finite number."""
    value = check_finite(name, value)
    if value <= 0.0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Require a finite number >= 0."""
    value = check_finite(name, value)
    if value < 0.0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return value


def check_in_range(
    name: str,
    value: float,
    low: float,
    high: float,
    *,
    inclusive: bool = True,
) -> float:
    """Require ``low <= value <= high`` (or strict bounds if ``inclusive=False``)."""
    value = check_finite(name, value)
    if inclusive:
        ok = low <= value <= high
        rel = "<="
    else:
        ok = low < value < high
        rel = "<"
    if not ok:
        raise ConfigurationError(
            f"{name} must satisfy {low} {rel} {name} {rel} {high}, got {value!r}"
        )
    return value


# --------------------------------------------------------------------------
# option tables
# --------------------------------------------------------------------------

#: What a spec value may be, by the annotation of the parameter it is
#: passed to; ``dict`` is an option table, ``tuple`` an array.
_SETTABLE: dict[str, Any] = {
    "int": int, "float": float, "bool": bool, "str": str,
    "Path|str": (str, Path), "dict": Mapping, "tuple": (list, tuple),
}


def _settable(annotation: Any) -> tuple[Any, bool] | None:
    """``(expected type, optional)`` for a settable annotation, else None.

    Annotations are read as text, so a name imported only for type
    checking need not resolve.
    """
    text = annotation.__name__ if isinstance(annotation, type) else str(annotation)
    text = text.replace("typing.", "").replace(" ", "").strip("'\"")
    if text.startswith("Optional["):
        text = text[len("Optional["):-1] + "|None"
    parts = {part.split("[", 1)[0] for part in text.split("|")}
    expected = _SETTABLE.get("|".join(sorted(parts - {"None"})))
    return None if expected is None else (expected, "None" in parts)


@functools.lru_cache(maxsize=256)  # a process registers a few dozen plugins
def _declaration(
    target: Callable[..., Any], skip: int, supplied: tuple[str, ...]
) -> tuple[dict[str, tuple[Any, bool, bool]], dict[str, str], bool]:
    """``(settable, fixed, open_)`` read once from ``target``'s signature:
    name -> ``(expected, optional, required)``; name -> why a spec may
    not set it; whether ``**kwargs`` lets undeclared names through."""
    settable: dict[str, tuple[Any, bool, bool]] = {}
    fixed: dict[str, str] = {}
    open_ = False
    for param in inspect.signature(target).parameters.values():
        if param.kind is param.VAR_KEYWORD:
            open_ = True
        elif param.kind is param.VAR_POSITIONAL:
            continue
        elif skip > 0 and param.kind is not param.KEYWORD_ONLY:
            skip -= 1
            fixed[param.name] = "is supplied by the engine"
        elif param.name in supplied:
            fixed[param.name] = "is supplied by the engine"
        elif (kind := _settable(param.annotation)) is None:
            fixed[param.name] = (
                f"cannot be set in a spec: its type is {param.annotation!s}"
            )
        else:
            settable[param.name] = (*kind, param.default is param.empty)
    return settable, fixed, open_


def check_options(
    where: str,
    options: Mapping[str, Any],
    target: Callable[..., Any],
    *,
    skip: int = 0,
    supplied: tuple[str, ...] = (),
) -> Mapping[str, Any]:
    """Check an option table against the signature of the callable it is
    passed to; return it.

    Each keyword parameter of ``target`` is an option, typed by its
    annotation: ``bool`` only where ``bool`` is declared, an ``int``
    where a ``float`` is, and a ``float`` finite.  The first ``skip``
    positional parameters and the ``supplied`` names are the caller's,
    and a parameter of any other type cannot come from a spec.  Setting
    one of those, an unknown name or a wrong type, or omitting a required
    option, is an error naming ``where.name``.  Ranges are the callee's.
    """
    settable, fixed, open_ = _declaration(target, skip, supplied)
    prefix = f"{where}." if where else ""
    for name in options:
        if name in fixed:
            raise ConfigurationError(f"{prefix}{name} {fixed[name]}")
    unknown = sorted(set(options) - set(settable))
    if unknown and not open_:
        raise ConfigurationError(
            f"unknown keys {unknown} in {where or 'this table'}; "
            f"valid keys: {sorted(settable)}"
        )
    for name, (expected, optional, required) in settable.items():
        if name not in options:
            if required:
                raise ConfigurationError(f"{prefix}{name} is required")
        elif options[name] is not None or not optional:
            if expected is float:
                check_type(prefix + name, options[name], (int, float))
                check_finite(prefix + name, options[name])
            else:
                check_type(prefix + name, options[name], expected)
    return options
