"""REP-C: concurrency contracts of the service and pool layers.

Three invariants the PR 8/PR 9 post-mortems hardened dynamically, now
statically checkable:

* **the event loop never blocks** — an ``async def`` body must not call
  synchronous sleeps, subprocesses, the blocking
  :class:`~repro.service.client.ServiceClient`, or file I/O; marshal
  such work through ``asyncio.to_thread``/executors instead;
* **no dispatch under a lock** — calling
  ``.submit()``/``.apply_async()``/``.put()`` while lexically holding a
  ``threading.Lock`` invites the completion-under-submit-lock deadlock
  the resident pool's ``_dispatch`` docstring documents; release the
  lock first (or dispatch from a method that the caller invokes after
  releasing);
* **signal handlers only set flags** — a handler registered via
  ``signal.signal``/``add_signal_handler`` runs at arbitrary
  interpreter points (or on the loop) and must confine itself to flag
  sets (``event.set()``), simple assignments, or ``raise`` — the
  PR 8 SIGTERM pool deadlock came from a worker dying mid-lock.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.staticcheck.engine import Finding, ModuleUnit, Rule
from repro.staticcheck.rules_determinism import dotted

#: Exact dotted calls that block the calling thread.
BLOCKING_CALLS = frozenset({
    "time.sleep",
    "os.replace", "os.rename", "os.remove", "os.unlink",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
})

#: Bare names whose call blocks (builtins / blocking client types).
BLOCKING_NAMES = frozenset({"open", "ServiceClient"})

#: Method names that are file I/O wherever they appear.
BLOCKING_METHODS = frozenset({
    "read_text", "write_text", "read_bytes", "write_bytes",
})

#: Methods that hand work to an executor/queue (deadlock bait under a lock).
DISPATCH_METHODS = frozenset({"submit", "apply_async", "put", "put_nowait"})


def _walk_in_function(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root``'s body without descending into nested function defs."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


class AsyncBlockingCallRule(Rule):
    """REP-C001: no blocking calls on the event loop."""

    rule_id = "REP-C001"
    summary = (
        "async def bodies must not call blocking primitives (time.sleep, "
        "subprocess, ServiceClient, file I/O); use asyncio.to_thread"
    )

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            for sub in _walk_in_function(node):
                if not isinstance(sub, ast.Call):
                    continue
                blocked = self._blocking_name(sub)
                if blocked is not None:
                    yield unit.finding(
                        self.rule_id, sub,
                        f"{blocked} blocks the event loop inside "
                        f"'async def {node.name}'; await "
                        "asyncio.to_thread(...) (or an executor) instead",
                    )

    @staticmethod
    def _blocking_name(call: ast.Call) -> Optional[str]:
        name = dotted(call.func)
        if name is None:
            return None
        if name in BLOCKING_CALLS or name in BLOCKING_NAMES:
            return f"{name}()"
        if name.split(".")[0] == "subprocess":
            return f"{name}()"
        if isinstance(call.func, ast.Attribute) and (
            call.func.attr in BLOCKING_METHODS
        ):
            return f".{call.func.attr}()"
        return None


def _is_lock_expr(expr: ast.expr) -> bool:
    """Heuristic: a with-context that is (an attribute ending in) a lock."""
    name = dotted(expr)
    if name is None:
        return False
    terminal = name.rsplit(".", 1)[-1].lower()
    return terminal.endswith("lock") or terminal.endswith("mutex")


class DispatchUnderLockRule(Rule):
    """REP-C002: no executor/queue dispatch while lexically holding a lock.

    Completion callbacks of an executor may run synchronously in the
    submitting thread (warm results), re-entering code that needs the
    very lock being held — the resident pool documents the pattern.
    Dispatch after releasing, or from a dedicated method invoked outside
    the ``with`` block.
    """

    rule_id = "REP-C002"
    summary = (
        "no .submit()/.apply_async()/.put() lexically inside a "
        "'with <lock>:' block (completion callbacks can deadlock on the "
        "held lock)"
    )

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            if not any(
                _is_lock_expr(item.context_expr) for item in node.items
            ):
                continue
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue  # a def under the lock runs later, not now
                for sub in _walk_in_function(stmt):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in DISPATCH_METHODS
                    ):
                        yield unit.finding(
                            self.rule_id, sub,
                            f".{sub.func.attr}() while holding a lock can "
                            "deadlock (completions may run in the "
                            "submitting thread); dispatch after releasing",
                        )

    # NB: _walk_in_function on each body statement still descends into
    # nested with-blocks; nested function defs are skipped on purpose —
    # a closure defined under the lock runs later, not while it is held.


#: Statement types a signal-handler body may contain besides flag calls.
_HANDLER_SIMPLE = (ast.Pass, ast.Raise, ast.Global, ast.Nonlocal,
                   ast.Assign, ast.AnnAssign, ast.AugAssign)


def _is_flag_call(stmt: ast.stmt) -> bool:
    """``something.set()`` / ``os._exit(n)`` / ``sys.exit(n)`` style."""
    if not isinstance(stmt, ast.Expr) or not isinstance(stmt.value, ast.Call):
        return False
    call = stmt.value
    name = dotted(call.func)
    if name is None:
        return False
    return name.endswith(".set") or name in ("os._exit", "sys.exit")


def _is_docstring(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


class SignalHandlerBodyRule(Rule):
    """REP-C003: signal-handler bodies are flag sets, nothing more."""

    rule_id = "REP-C003"
    summary = (
        "signal handlers may only set flags/raise (no locks, I/O, or "
        "pool teardown from an async-signal context)"
    )

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        defs = {
            node.name: node
            for node in ast.walk(unit.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted(node.func)
            handler: Optional[ast.expr] = None
            if name == "signal.signal" and len(node.args) >= 2:
                handler = node.args[1]
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_signal_handler"
                and len(node.args) >= 2
            ):
                handler = node.args[1]
            if handler is None:
                continue
            yield from self._check_handler(unit, handler, defs)

    def _check_handler(self, unit, handler, defs) -> Iterator[Finding]:
        if isinstance(handler, ast.Lambda):
            body = ast.Expr(value=handler.body)
            ast.copy_location(body, handler.body)
            if not (_is_flag_call(body) or isinstance(
                handler.body, ast.Constant
            )):
                yield unit.finding(
                    self.rule_id, handler,
                    "signal-handler lambda must only set a flag "
                    "(e.g. event.set())",
                )
            return
        if isinstance(handler, ast.Name) and handler.id in defs:
            fn = defs[handler.id]
            for stmt in fn.body:
                if _is_docstring(stmt) or _is_flag_call(stmt):
                    continue
                if isinstance(stmt, _HANDLER_SIMPLE):
                    continue
                yield unit.finding(
                    self.rule_id, stmt,
                    f"signal handler {fn.name!r} does more than set flags "
                    f"({type(stmt).__name__}); handlers run at arbitrary "
                    "interpreter points — set an event and return",
                )
        # Attribute handlers (stop.set, signal.SIG_IGN) are either flag
        # sets already or opaque; only locally resolvable defs are checked.


CONCURRENCY_RULES = (
    AsyncBlockingCallRule(),
    DispatchUnderLockRule(),
    SignalHandlerBodyRule(),
)
