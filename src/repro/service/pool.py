"""The resident executor: a bounded priority queue over persistent workers.

:class:`ResidentPool` is the execution half of ``repro serve``: workers
stay warm across requests (keeping their in-process calibration memos
and imported module state), submissions queue in a bounded priority
heap, queued work can be cancelled, and a full queue raises
:class:`PoolSaturatedError` — the signal the HTTP layer turns into a 429
instead of letting latency grow without bound.

Two worker modes:

* ``mode="thread"`` — resident worker threads call
  :func:`~repro.scenario.runner.run_scenario` in-process.  Scenarios then
  share the parent's calibration memo and any custom
  :class:`~repro.scenario.registry.Registry` directly; throughput is
  GIL-bound but per-request latency is minimal.  This is what the test
  harness uses (deterministic, no forking).
* ``mode="process"`` — the pool owns one :mod:`multiprocessing` pool of
  worker *processes*, forked once by
  :func:`~repro.analysis.parallel.fork_pool` at :meth:`ResidentPool.start`.
  Each job crosses it as the spec's canonical dict and comes back as the
  record's wire dict.  True parallelism for CPU-bound simulations;
  requires the default registry (plugins must be importable in the
  workers).

Running work cannot be *cancelled* in either mode (there is no safe way
to kill a worker mid-simulation without losing its warm state), so
:meth:`ResidentPool.cancel` succeeds only while a ticket is still queued
— exactly the queued-vs-running contract the service documents.

The pool is additionally crash-safe (``docs/faults.md``): in process
mode every job's worker first announces ``(ticket seq, pid)`` on a
liveness queue, and a daemon monitor thread maps each in-flight ticket to
its worker, notices a worker that died mid-job (SIGKILL, OOM, segfault),
and re-dispatches the job under a bounded per-ticket retry budget with
exponential backoff and jitter.  Per-attempt ``deadline`` budgets kill
the worker (process mode) or discard the eventual result (thread mode)
and fail the ticket with :class:`~repro.errors.DeadlineExceededError`.
"""

from __future__ import annotations

import heapq
import itertools
import os
import random
import signal
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Optional

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    ReproError,
    WorkerCrashError,
)
from repro.scenario.spec import ScenarioSpec
from repro.service.jobs import CANCELLED, DONE, FAILED, QUEUED, RUNNING


class PoolSaturatedError(ReproError):
    """The resident pool's bounded queue is full (backpressure)."""


class PoolClosedError(ReproError):
    """A submission arrived after the pool was closed."""


#: The liveness queue, set in each worker process by the pool initializer.
_NOTES = None


def _keep_notes(notes) -> None:
    global _NOTES
    _NOTES = notes


def _run_announced(tag: int, spec_dict: dict) -> dict:
    """Process-mode job entry: announce ``(tag, pid)``, then run the spec.

    The announcement is the very first statement so the window in which
    a crash is invisible to the parent is as small as the interpreter
    allows.
    """
    _NOTES.put((tag, os.getpid()))
    from repro.scenario import run_scenario

    return run_scenario(ScenarioSpec.from_dict(spec_dict)).to_dict()


class PoolTicket:
    """Handle for one submitted scenario: a result future plus queued-cancel.

    ``future`` resolves to the record's wire dict
    (``RunRecord.to_dict()``), or raises the engine's exception
    (:class:`~repro.errors.WorkerCrashError` after the retry budget,
    :class:`~repro.errors.DeadlineExceededError` past the deadline), or
    is cancelled if the ticket was cancelled while still queued.
    ``attempts`` counts dispatches to a worker; a completed job with
    ``attempts > 1`` survived at least one worker crash.
    """

    __slots__ = (
        "spec",
        "priority",
        "seq",
        "future",
        "state",
        "started_at",
        "deadline",
        "max_retries",
        "attempts",
        "failure",
        "_pid",
    )

    def __init__(
        self,
        spec: ScenarioSpec,
        priority: int,
        seq: int,
        deadline: Optional[float] = None,
        max_retries: int = 0,
    ) -> None:
        self.spec = spec
        self.priority = priority
        self.seq = seq
        self.future: Future = Future()
        self.state = QUEUED
        self.started_at: Optional[float] = None
        #: wall-clock budget in seconds per attempt, None = unbounded
        self.deadline = deadline
        #: extra dispatches allowed after a worker crash
        self.max_retries = max_retries
        self.attempts = 0
        #: short human-readable failure cause ("crash", "deadline"), or None
        self.failure: Optional[str] = None
        self._pid: Optional[int] = None  # worker pid, process mode


class ResidentPool:
    """Persistent workers behind a bounded priority queue.

    Parameters
    ----------
    workers:
        Resident worker count (threads or processes).  None/0: one per CPU.
    queue_limit:
        Maximum *queued* (not yet running) tickets; submissions past it
        raise :class:`PoolSaturatedError`.
    mode:
        ``"thread"`` or ``"process"`` (see module docstring).
    registry:
        Optional plugin registry for thread mode (in-process execution
        can resolve caller-registered plugins).  Process mode rejects a
        custom registry — worker processes resolve the default one.
    max_retries:
        Default extra dispatches after a worker crash (per ticket,
        overridable at :meth:`submit`).  Crash detection — and hence
        retry — applies to process mode; threads do not die under us.
    heartbeat:
        Monitor-thread period in seconds: how often worker liveness,
        deadlines and due retries are checked.
    backoff:
        Base retry delay in seconds; attempt ``n`` retries after
        ``backoff * 2**(n-1)`` plus up to 25% jitter.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        queue_limit: int = 64,
        mode: str = "thread",
        registry: Any = None,
        max_retries: int = 1,
        heartbeat: float = 0.5,
        backoff: float = 0.25,
    ) -> None:
        if mode not in ("thread", "process"):
            raise ConfigurationError(
                f"unknown pool mode {mode!r}; choose from ['thread', 'process']"
            )
        if queue_limit < 1:
            raise ConfigurationError("queue_limit must be >= 1")
        if registry is not None and mode == "process":
            raise ConfigurationError(
                "a custom registry requires mode='thread'; worker processes "
                "resolve the default registry"
            )
        if max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if heartbeat <= 0 or backoff < 0:
            raise ConfigurationError("need heartbeat > 0 and backoff >= 0")
        self.workers = workers or os.cpu_count() or 1
        self.queue_limit = queue_limit
        self.mode = mode
        self.registry = registry
        self.max_retries = max_retries
        self.heartbeat = heartbeat
        self.backoff = backoff
        #: fault counters (monotonic; surfaced by the service's /stats)
        self.retries = 0
        self.crashes = 0
        self.deadline_kills = 0
        self._heap: list[tuple[int, int, PoolTicket]] = []
        self._backoff: list[tuple[float, int, PoolTicket]] = []
        self._running: dict[int, PoolTicket] = {}
        self._seq = itertools.count(1)
        self._executed = 0
        self._lock = threading.Lock()
        self._closed = False
        self._started = False
        self._executor: Optional[ThreadPoolExecutor] = None
        self._procs = None  # multiprocessing pool, process mode
        self._notes = None  # its liveness queue
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None

    # ----------------------------------------------------------- lifetime
    def start(self) -> "ResidentPool":
        """Bring the workers up (idempotent).  Process mode forks here,
        before any traffic, so the fork happens from a quiet process."""
        with self._lock:
            if self._started:
                return self
            if self._closed:
                raise PoolClosedError("the pool has been closed")
            if self.mode == "thread":
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-serve"
                )
            else:
                import multiprocessing

                from repro.analysis.parallel import fork_pool

                self._notes = multiprocessing.SimpleQueue()
                self._procs = fork_pool(
                    self.workers, _keep_notes, (self._notes,)
                )
            self._monitor = threading.Thread(
                target=self._monitor_loop,
                name="repro-serve-monitor",
                daemon=True,
            )
            self._monitor.start()
            self._started = True
        return self

    def close(self) -> None:
        """Stop accepting work, cancel the queue, release the workers.

        Idempotent.  Queued tickets are cancelled (their futures
        transition to cancelled); running work is abandoned — thread-mode
        tasks finish in the background, process-mode workers are
        terminated.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            stale, self._heap = self._heap, []
            waiting, self._backoff = self._backoff, []
        self._stop.set()
        for _, _, ticket in stale:
            ticket.state = CANCELLED
            ticket.future.cancel()
        for _, _, ticket in waiting:
            ticket.state = CANCELLED
            ticket.future.cancel()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        procs, self._procs = self._procs, None
        notes, self._notes = self._notes, None
        if procs is not None:
            from repro.analysis.parallel import terminate_pool

            terminate_pool(procs)
            notes.close()

    def __enter__(self) -> "ResidentPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # --------------------------------------------------------- monitoring
    @property
    def queue_depth(self) -> int:
        """Tickets waiting for a worker (cancelled strays excluded)."""
        with self._lock:
            return sum(1 for _, _, t in self._heap if t.state == QUEUED)

    @property
    def active(self) -> int:
        """Tickets currently on a worker."""
        return len(self._running)

    @property
    def executed(self) -> int:
        """Tickets ever dispatched to a worker (each unique job once)."""
        return self._executed

    # --------------------------------------------------------- submission
    def submit(
        self,
        spec: ScenarioSpec,
        priority: int = 0,
        deadline: Optional[float] = None,
        max_retries: Optional[int] = None,
    ) -> PoolTicket:
        """Enqueue one scenario; higher ``priority`` runs first.

        ``deadline`` bounds each attempt's wall-clock seconds (past it
        the job fails with :class:`~repro.errors.DeadlineExceededError`;
        process-mode workers are killed, thread-mode results discarded).
        ``max_retries`` overrides the pool's crash-retry budget for this
        ticket.  Raises :class:`PoolSaturatedError` when the bounded
        queue is full and :class:`PoolClosedError` after :meth:`close`.
        """
        if deadline is not None and deadline <= 0:
            raise ConfigurationError("deadline must be > 0 seconds")
        if max_retries is not None and max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        self.start()
        with self._lock:
            if self._closed:
                raise PoolClosedError("the pool has been closed")
            queued = sum(1 for _, _, t in self._heap if t.state == QUEUED)
            if queued >= self.queue_limit:
                raise PoolSaturatedError(
                    f"job queue is full ({queued} queued, limit "
                    f"{self.queue_limit}); retry later"
                )
            ticket = PoolTicket(
                spec,
                priority,
                next(self._seq),
                deadline=deadline,
                max_retries=(
                    self.max_retries if max_retries is None else max_retries
                ),
            )
            heapq.heappush(self._heap, (-priority, ticket.seq, ticket))
            self._pump_locked()
        return ticket

    def cancel(self, ticket: PoolTicket) -> bool:
        """Cancel a ticket if (and only if) it is still queued."""
        with self._lock:
            if ticket.state != QUEUED:
                return False
            ticket.state = CANCELLED
        ticket.future.cancel()
        return True

    # ----------------------------------------------------------- dispatch
    def _pump_locked(self) -> None:
        """Start queued tickets while worker slots are free (lock held)."""
        while len(self._running) < self.workers and self._heap:
            _, _, ticket = heapq.heappop(self._heap)
            if ticket.state != QUEUED:
                continue  # cancelled while queued; drop the stale entry
            ticket.state = RUNNING
            ticket.started_at = time.monotonic()
            ticket.attempts += 1
            self._executed += 1
            self._running[ticket.seq] = ticket
            self._dispatch(ticket)

    def _dispatch(self, ticket: PoolTicket) -> None:
        # Completion always lands on a pool-owned thread (a worker thread
        # in thread mode, the result-handler thread in process mode) —
        # never synchronously inside submit(), which holds the lock that
        # _finish needs.  A done-callback relay would violate that: a
        # warm-cache job can complete before add_done_callback attaches,
        # and concurrent.futures then runs the callback in the caller.
        if self._executor is not None:
            self._executor.submit(self._run_and_finish, ticket)
        else:
            self._procs.apply_async(
                _run_announced,
                (ticket.seq, ticket.spec.to_dict()),
                callback=lambda record, t=ticket: self._finish(t, record, None),
                error_callback=lambda exc, t=ticket: self._finish(t, None, exc),
            )

    def _run_and_finish(self, ticket: PoolTicket) -> None:
        """Thread-mode worker body: execute the spec, then settle the ticket."""
        try:
            record = self._run_spec(ticket.spec)
        except BaseException as exc:
            self._finish(ticket, None, exc)
        else:
            self._finish(ticket, record, None)

    def _run_spec(self, spec: ScenarioSpec) -> dict:
        from repro.scenario import run_scenario

        return run_scenario(spec, self.registry).to_dict()

    def _finish(
        self,
        ticket: PoolTicket,
        record: Optional[dict],
        error: Optional[BaseException],
    ) -> None:
        with self._lock:
            if self._running.pop(ticket.seq, None) is None:
                # The monitor already reclaimed this slot (crash retry or
                # process-mode deadline kill); a late straggler result
                # must not double-free the worker slot.
                return
            ticket._pid = None
            if not self._closed:
                self._pump_locked()
        if ticket.future.done():
            return  # settled by a thread-mode deadline; result discarded
        if error is not None:
            ticket.state = FAILED
            ticket.failure = type(error).__name__
            ticket.future.set_exception(error)
        else:
            ticket.state = DONE
            ticket.future.set_result(record)

    # ------------------------------------------------------------ liveness
    def _monitor_loop(self) -> None:
        """Heartbeat thread: worker liveness, deadlines, due retries."""
        while not self._stop.wait(self.heartbeat):
            try:
                self._tick(time.monotonic())
            except Exception:  # never let monitoring kill the pool
                pass

    def _drain_pids(self) -> list[tuple[int, int]]:
        """Drain the liveness queue: ``(ticket seq, worker pid)`` per
        started job.  Nonblocking; the monitor thread is its one reader."""
        notes = self._notes
        out: list[tuple[int, int]] = []
        if notes is None:
            return out
        try:
            while not notes.empty():
                out.append(notes.get())
        except (OSError, EOFError):  # torn down under us
            pass
        return out

    def _is_live_worker(self, pid: int) -> bool:
        """Whether ``pid`` is a live worker process of this pool.

        A worker that died (crash, SIGKILL, OOM) leaves the pool's process
        list — reaped and replaced by the pool's maintenance thread, or
        still listed with a set exitcode; both read as dead here.
        """
        procs = self._procs
        return procs is not None and any(
            p.pid == pid and p.is_alive() for p in procs._pool
        )

    def _tick(self, now: float) -> None:
        """One monitor pass (extracted so tests can drive it directly)."""
        for tag, pid in self._drain_pids():
            with self._lock:
                ticket = self._running.get(tag)
            if ticket is not None:
                ticket._pid = pid
        with self._lock:
            tickets = list(self._running.values())
        for ticket in tickets:
            if ticket.future.done():
                continue
            started = ticket.started_at
            if (
                ticket.deadline is not None
                and started is not None
                and now - started >= ticket.deadline
            ):
                self._deadline_exceeded(ticket)
                continue
            pid = ticket._pid
            if pid is not None and not self._is_live_worker(pid):
                self._worker_crashed(ticket)
        with self._lock:
            requeued = False
            while self._backoff and self._backoff[0][0] <= now:
                _, _, ticket = heapq.heappop(self._backoff)
                if ticket.state != QUEUED:
                    continue  # cancelled while waiting out the backoff
                heapq.heappush(
                    self._heap, (-ticket.priority, ticket.seq, ticket)
                )
                requeued = True
            if requeued and not self._closed:
                self._pump_locked()

    def _worker_crashed(self, ticket: PoolTicket) -> None:
        """The worker running ``ticket`` died: retry within budget or fail."""
        with self._lock:
            if self._running.pop(ticket.seq, None) is None:
                return  # settled in the meantime
            self.crashes += 1
            ticket._pid = None
            retry = ticket.attempts <= ticket.max_retries and not self._closed
            if retry:
                self.retries += 1
                ticket.state = QUEUED
                delay = self.backoff * (2 ** (ticket.attempts - 1))
                delay *= 1.0 + 0.25 * random.random()
                heapq.heappush(
                    self._backoff,
                    (time.monotonic() + delay, ticket.seq, ticket),
                )
            if not self._closed:
                self._pump_locked()
        if not retry:
            ticket.state = FAILED
            ticket.failure = "crash"
            ticket.future.set_exception(
                WorkerCrashError(
                    f"worker died running the job (attempt "
                    f"{ticket.attempts} of {ticket.max_retries + 1})",
                    attempts=ticket.attempts,
                )
            )

    def _deadline_exceeded(self, ticket: PoolTicket) -> None:
        """``ticket`` blew its per-attempt deadline: kill (process) and fail."""
        pid: Optional[int] = None
        with self._lock:
            if ticket.seq not in self._running or ticket.future.done():
                return
            ticket.failure = "deadline"
            if self.mode == "process":
                # The worker is killed, so no result will ever arrive —
                # reclaim the slot here.  Thread mode keeps the slot
                # until the (undying) worker thread returns.
                del self._running[ticket.seq]
                pid = ticket._pid
                ticket._pid = None
                if not self._closed:
                    self._pump_locked()
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
                self.deadline_kills += 1
            except (ProcessLookupError, PermissionError):  # already gone
                pass
        ticket.state = FAILED
        ticket.future.set_exception(
            DeadlineExceededError(
                f"job exceeded its {ticket.deadline}s deadline "
                f"(attempt {ticket.attempts})",
                deadline=ticket.deadline,
            )
        )
