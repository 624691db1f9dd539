"""REP-D: determinism rules for result-producing code.

The repository's core guarantee is that every result is a pure function
of the spec and its seeds: bit-identical across shard counts, run
orders, and machines.  These rules reject the constructs that break
that — ambient randomness, wall-clock reads feeding simulated state,
and iteration orders Python does not define.

Each rule class's own ``include``/``exclude`` is its scope:
:data:`RESULT_SCOPE`, the result-producing packages ``des/``,
``netmodel/``, ``cpumodel/``, ``clusterserver/``, ``faults.py`` and
``apps/``.  Wall-clock *stats* (shard wall-time, barrier-wait counters)
live in an explicit per-file allowlist rather than in suppressions.
REP-D007 (named tolerances) covers the simulation layers, ``dps/``
included.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.staticcheck.engine import Finding, ModuleUnit, Rule

#: The scope every REP-D rule shares (see module docstring).
RESULT_SCOPE = (
    "**/des/**",
    "**/netmodel/**",
    "**/cpumodel/**",
    "**/clusterserver/**",
    "**/faults.py",
    "**/apps/**",
)

#: Files allowed to read monotonic timers: they feed *wall-clock stats*
#: (``ShardStats.wall_s``, ``EpochStats.barrier_wait_s``), never results.
WALLCLOCK_STATS_ALLOWLIST = (
    "**/des/epoch.py",
    "**/clusterserver/sharded.py",
)


def dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


#: Module-level functions of :mod:`random` that draw from the *global*
#: (process-shared, effectively unseeded) generator.
GLOBAL_RANDOM_FUNCS = frozenset({
    "random", "randint", "randrange", "randbytes", "getrandbits",
    "choice", "choices", "shuffle", "sample", "uniform", "triangular",
    "gauss", "normalvariate", "lognormvariate", "expovariate",
    "betavariate", "gammavariate", "paretovariate", "vonmisesvariate",
    "weibullvariate", "binomialvariate", "seed",
})

#: Wall-clock reads (calendar time: differs per run by construction).
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.localtime", "time.gmtime",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Monotonic timers: legitimate for wall-clock stats, nowhere else.
MONOTONIC_CALLS = frozenset({
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "time.process_time_ns",
})


class GlobalRandomRule(Rule):
    """REP-D001: no draws from the process-global ``random`` generator."""

    rule_id = "REP-D001"
    summary = (
        "result-producing code must not call the global random.* "
        "functions; draw from an explicitly seeded random.Random(seed)"
    )
    include = RESULT_SCOPE

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted(node.func)
            if name is None:
                continue
            module, _, func = name.rpartition(".")
            if module == "random" and func in GLOBAL_RANDOM_FUNCS:
                yield unit.finding(
                    self.rule_id, node,
                    f"{name}() draws from the process-global RNG; results "
                    "must come from an explicitly seeded random.Random(seed)",
                )


class UnseededRngRule(Rule):
    """REP-D002: every constructed RNG must be given a seed."""

    rule_id = "REP-D002"
    summary = (
        "random.Random() / numpy default_rng() constructed without a "
        "seed is nondeterministic; pass the component's derived seed"
    )
    include = RESULT_SCOPE

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call) or node.args or node.keywords:
                continue
            name = dotted(node.func)
            if name is None:
                continue
            if name.endswith("random.Random") or name.endswith(
                ".default_rng"
            ) or name == "Random":
                yield unit.finding(
                    self.rule_id, node,
                    f"{name}() without a seed is entropy-seeded; pass the "
                    "component's derived seed explicitly",
                )


class WallClockRule(Rule):
    """REP-D003: no calendar-time reads in result-producing code."""

    rule_id = "REP-D003"
    summary = (
        "time.time()/datetime.now() in result-producing code make "
        "results depend on when they ran"
    )
    include = RESULT_SCOPE

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted(node.func)
            if name in WALL_CLOCK_CALLS:
                yield unit.finding(
                    self.rule_id, node,
                    f"{name}() reads the wall clock; simulated time must "
                    "come from the kernel, never the host calendar",
                )


class MonotonicTimerRule(Rule):
    """REP-D004: monotonic timers only in the wall-clock-stats allowlist.

    ``time.perf_counter`` is how the engines report *their own* cost
    (``wall_s``, ``barrier_wait_s``) — that is measurement, not
    simulation, and it is confined to the allowlisted files.  Anywhere
    else in the result-producing packages a timer read is a red flag:
    either dead measurement code or host timing leaking into results.
    """

    rule_id = "REP-D004"
    summary = (
        "perf_counter/monotonic reads outside the wall-clock-stats "
        "allowlist (engine wall_s/barrier accounting files)"
    )
    include = RESULT_SCOPE
    exclude = WALLCLOCK_STATS_ALLOWLIST

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted(node.func)
            if name in MONOTONIC_CALLS:
                yield unit.finding(
                    self.rule_id, node,
                    f"{name}() outside the wall-clock-stats allowlist; "
                    "host timers may only feed the engines' wall_s/"
                    "barrier_wait_s accounting",
                )


class SetIterationRule(Rule):
    """REP-D005: no iteration over bare set literals.

    Set iteration order is unrelated to insertion order and may vary
    across interpreters; a ``for`` loop (or comprehension) over a set
    literal feeding result state is order-nondeterminism waiting to
    happen.  Iterate a tuple, or ``sorted({...})`` when dedup is the
    point.
    """

    rule_id = "REP-D005"
    summary = (
        "iterating a bare set literal has unspecified order; use a "
        "tuple or sorted(...)"
    )
    include = RESULT_SCOPE

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            iters: list[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if isinstance(it, ast.Set):
                    yield unit.finding(
                        self.rule_id, it,
                        "iteration over a bare set literal has unspecified "
                        "order; use a tuple, or sorted({...}) if dedup is "
                        "intended",
                    )


#: The layers whose float arithmetic decides simulated times.
TOLERANCE_SCOPE = tuple(
    f"**/{layer}/**"
    for layer in ("des", "netmodel", "cpumodel", "clusterserver", "dps")
)

#: Largest magnitude REP-D007 treats as a tolerance rather than a quantity.
TOLERANCE_MAX = 1e-6


class NamedToleranceRule(Rule):
    """REP-D007: a tolerance is a named module-level constant.

    A float literal with ``0 < |x| <= 1e-6`` may appear only as the
    right-hand side of a module-level ``UPPER_CASE = ...`` assignment:
    both float-resolution bugs this repository shipped were a bare
    ``1e-12`` added to a clock.
    """

    rule_id = "REP-D007"
    summary = (
        "float literals with 0 < |x| <= 1e-6 in the simulation layers "
        "must be module-level UPPER_CASE constants"
    )
    include = TOLERANCE_SCOPE

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        named = {
            id(stmt.value)
            for stmt in unit.tree.body
            if isinstance(stmt, (ast.Assign, ast.AnnAssign))
            and all(
                isinstance(target, ast.Name) and target.id.isupper()
                for target in getattr(stmt, "targets", None) or [stmt.target]
            )
        }
        for node in ast.walk(unit.tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0.0 < abs(node.value) <= TOLERANCE_MAX
                and id(node) not in named
            ):
                yield unit.finding(
                    self.rule_id, node,
                    f"bare tolerance {node.value!r}; name it as a "
                    "module-level UPPER_CASE constant",
                )


DETERMINISM_RULES = (
    GlobalRandomRule(),
    UnseededRngRule(),
    WallClockRule(),
    MonotonicTimerRule(),
    SetIterationRule(),
    NamedToleranceRule(),
)
