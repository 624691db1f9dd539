"""Parallel execution of scenario sweeps.

A sweep's scenarios are independent, so
:meth:`ParallelSweepRunner.run_records` fans a list of
:class:`~repro.scenario.spec.ScenarioSpec` out over a
:mod:`multiprocessing` pool: one sweep may span *engines* (simulator vs.
testbed vs. cluster server) and *models* (any registered
netmodel/cpumodel) — each spec is executed by
:func:`~repro.scenario.runner.run_scenario` and comes back as a
normalized :class:`~repro.scenario.runner.RunRecord`.  The expensive
per-platform calibration stays shared: the distinct ``(cluster size,
seed)`` keys that calibrated ``sim`` specs name are calibrated exactly
once (themselves in parallel) through a memoized cache before the
fan-out.

Records are returned in spec order and are identical to a serial run —
the simulations are deterministic and share no state across specs.

Two pool lifetimes are supported.  The **one-shot** form
(``persistent=False``, the default) creates the process pool inside each
``run_records`` call and tears it down before returning.  The
**resident** form (``persistent=True``) keeps the workers alive across
calls, which is what a long-lived service wants: worker processes keep
their warm in-process calibration memos and their imported module state,
so repeated scenarios are mostly cache hits.
Resident runners additionally accept asynchronous single-spec submissions
via :meth:`ParallelSweepRunner.submit_record` (the primitive
:class:`repro.service.pool.ResidentPool` builds on).  ``close``/``join``
are idempotent and fully release the pool — worker processes and their
handles on the on-disk cache directory are torn down — so a runner can be
closed and restarted any number of times in one process.
"""

from __future__ import annotations

import os
import signal
from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.sim.platform import PlatformSpec
from repro.testbed.cluster import VirtualCluster

#: Platform key: (cluster size, measurement seed).
PlatformKey = tuple[int, int]

#: Process-wide memoized calibrations, shared by serial and parallel runs.
#: Backed by the on-disk cache of :mod:`repro.analysis.calibcache`, so the
#: memo survives process boundaries: a repeated CLI invocation hits disk
#: instead of recalibrating.
_PLATFORM_CACHE: dict[PlatformKey, PlatformSpec] = {}


def cached_platform(key: PlatformKey) -> PlatformSpec:
    """Calibrate the platform for ``key`` once; reuse it afterwards."""
    platform = _PLATFORM_CACHE.get(key)
    if platform is None:
        from repro.analysis.calibcache import calibrated_platform

        num_nodes, seed = key
        platform = calibrated_platform(VirtualCluster(num_nodes=num_nodes, seed=seed))
        _PLATFORM_CACHE[key] = platform
    return platform


def clear_platform_cache() -> None:
    """Drop memoized calibrations (tests and long-lived sessions)."""
    _PLATFORM_CACHE.clear()


#: Seconds ``close(terminate=True)`` gives workers to exit on the pool's
#: SIGTERM before the stragglers are SIGKILLed.
_TERMINATE_GRACE_S = 5.0

#: Whether :func:`_default_sigterm_in_child` runs after every fork (hooks
#: cannot be unregistered, so it is installed once, with the first pool).
_FORK_HOOK_INSTALLED = False


# -------------------------------------------------------------- worker side
def _default_sigterm_in_child() -> None:
    # The parent may run a SIGTERM handler that only sets a flag (asyncio's
    # ``add_signal_handler`` under ``repro serve``).  A worker forked while
    # the pool is being torn down would inherit it and swallow the pool's
    # own SIGTERM before its initializer runs, then block forever on the
    # task-queue lock ``Pool.terminate`` holds.  Until the initializer
    # installs the worker's handler, SIGTERM must simply kill it.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _kill_stragglers(pool) -> None:
    """SIGKILL every worker of ``pool`` that outlived its SIGTERM."""
    for process in list(pool._pool):
        if process.exitcode is None:
            process.kill()


def _worker_exit_cleanly(signum, frame):
    # SystemExit unwinds the worker's ``with inqueue._rlock:`` block, so
    # the shared queue lock is released on the way out (a raw
    # signal-death strands it, see _worker_ignore_signals).
    raise SystemExit(0)


def _worker_ignore_signals() -> None:
    """Pool-worker initializer: shutdown signals must not strand locks.

    Ctrl-C and service managers (systemd, ``timeout``) deliver
    SIGINT/SIGTERM to the whole process group, workers included.  An
    idle worker sits blocked on the pool's task queue *holding the
    queue's reader lock*; dying abruptly there leaves the lock acquired
    forever, and the parent's ``Pool.terminate`` then deadlocks in
    ``_help_stuff_finish`` waiting for it.  So workers ignore SIGINT
    outright (interruption is the parent's decision) and turn SIGTERM
    into a ``SystemExit`` that releases the lock on exit — which also
    keeps them reapable by ``Pool.terminate``'s own SIGTERM.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if hasattr(signal, "SIGTERM"):
        signal.signal(signal.SIGTERM, _worker_exit_cleanly)


#: Worker-side notes channel (set by the pool initializer): each tagged
#: submission announces ``(tag, pid)`` here before it starts executing,
#: which is what lets the parent map in-flight work to worker processes
#: and notice when one dies mid-job (see :class:`repro.service.pool.ResidentPool`).
_NOTES = None


def _worker_announce(notes) -> None:
    """Pool-worker initializer: signal handling plus the notes channel."""
    global _NOTES
    _worker_ignore_signals()
    _NOTES = notes


def _calibrate_worker(key: PlatformKey) -> tuple[PlatformKey, PlatformSpec]:
    return key, cached_platform(key)


def _record_worker(payload):
    from repro.scenario import run_scenario

    index, spec = payload
    # Engine-native result objects (runtimes, kernels) do not pickle;
    # records cross the pool stripped of them, so serial and parallel
    # sweeps return value-identical results.
    return index, run_scenario(spec).without_raw()


def _spec_record_worker(payload: dict) -> dict:
    """Run one spec (dict form) and return the record's wire-format dict.

    The service's process-mode workers speak dicts in both directions:
    the spec's canonical dict form in, ``RunRecord.to_dict()`` out —
    both JSON-clean, so nothing engine-native ever crosses the pool.
    """
    from repro.scenario import run_scenario
    from repro.scenario.spec import ScenarioSpec

    return run_scenario(ScenarioSpec.from_dict(payload)).to_dict()


def _tagged_record_worker(payload: tuple) -> dict:
    """Like :func:`_spec_record_worker`, announcing ``(tag, pid)`` first.

    The announcement is the very first statement so the liveness window
    in which a crash is invisible to the parent is as small as the
    interpreter allows.
    """
    tag, spec_dict = payload
    if _NOTES is not None:
        _NOTES.put((tag, os.getpid()))
    return _spec_record_worker(spec_dict)


class ParallelSweepRunner:
    """Run scenario specs across a process pool with shared calibrations.

    Parameters
    ----------
    jobs:
        Worker processes.  ``None`` or 0 means one per CPU; 1 runs
        everything in-process (no pool), which is handy under debuggers.
    persistent:
        Keep the worker pool alive across calls (resident-executor mode).
        The caller owns the lifetime: call :meth:`close` (idempotent) or
        use the runner as a context manager.  One-shot runners (the
        default) still create and destroy a pool per call.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        persistent: bool = False,
    ) -> None:
        if jobs is not None and jobs < 0:
            raise ConfigurationError(f"jobs must be >= 0, got {jobs!r}")
        self.jobs = jobs or os.cpu_count() or 1
        self.persistent = persistent
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._notes = None  # worker-liveness channel, persistent pools only

    # ------------------------------------------------------- pool lifetime
    def _ensure_pool(
        self, size_hint: Optional[int] = None
    ) -> multiprocessing.pool.Pool:
        """The live worker pool, created on first use.

        Persistent runners size the pool at ``jobs`` once and reuse it;
        one-shot calls pass a ``size_hint`` so tiny batches do not fork
        more workers than they have specs.
        """
        if self._pool is None:
            import multiprocessing

            global _FORK_HOOK_INSTALLED
            if not _FORK_HOOK_INSTALLED and hasattr(os, "register_at_fork"):
                os.register_at_fork(after_in_child=_default_sigterm_in_child)
                _FORK_HOOK_INSTALLED = True
            processes = self.jobs
            if not self.persistent and size_hint is not None:
                processes = max(1, min(self.jobs, size_hint))
            if self.persistent:
                # Resident pools carry the liveness channel: tagged
                # submissions announce their worker pid so the parent
                # can detect mid-job worker deaths and retry.
                self._notes = multiprocessing.SimpleQueue()
                self._pool = multiprocessing.Pool(
                    processes=processes,
                    initializer=_worker_announce,
                    initargs=(self._notes,),
                )
            else:
                self._pool = multiprocessing.Pool(
                    processes=processes, initializer=_worker_ignore_signals
                )
        return self._pool

    def close(self, terminate: bool = False) -> None:
        """Tear the worker pool down; safe to call repeatedly.

        Joins (or, with ``terminate=True``, kills) every worker process,
        which releases their handles on the on-disk calibration and
        kernel-benchmark cache directory — after ``close`` the runner
        holds no process or file resources, and the next ``run_records``/
        ``submit_record`` transparently forks a fresh pool, so resident
        runners restart cleanly any number of times in one process.

        ``terminate=True`` is bounded: a worker still alive
        ``_TERMINATE_GRACE_S`` after the pool's SIGTERM is SIGKILLed, so no
        worker outlives the call (and the call cannot hang on one).
        """
        pool, self._pool = self._pool, None
        notes, self._notes = self._notes, None
        if pool is None:
            return
        if terminate:
            import threading

            watchdog = threading.Timer(
                _TERMINATE_GRACE_S, _kill_stragglers, (pool,)
            )
            watchdog.daemon = True
            watchdog.start()
            try:
                pool.terminate()
                pool.join()
            finally:
                watchdog.cancel()
        else:
            pool.close()
            pool.join()
        if notes is not None:
            notes.close()

    def join(self) -> None:
        """Alias for :meth:`close` — both are idempotent, in any order."""
        self.close()

    def __enter__(self) -> "ParallelSweepRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------- async submissions
    def submit_record(
        self,
        spec,
        callback: Optional[Callable[[dict], None]] = None,
        error_callback: Optional[Callable[[BaseException], None]] = None,
        tag: Optional[int] = None,
    ) -> "multiprocessing.pool.AsyncResult":
        """Submit one scenario for asynchronous execution on the pool.

        The resident-executor primitive: the spec runs on a (persistent)
        worker and the returned ``AsyncResult`` resolves to the record's
        JSON-ready dict (``RunRecord.to_dict()``).  ``callback`` /
        ``error_callback`` fire on the pool's result-handler thread, like
        :meth:`multiprocessing.pool.Pool.apply_async`.  Unlike the batch
        entry points this always uses a pool, even at ``jobs == 1``.

        A non-None ``tag`` makes the worker announce ``(tag, pid)`` on
        the liveness channel as its first act — drain with
        :meth:`note_pids`, check with :meth:`worker_alive`.  Tags need a
        persistent runner (one-shot pools have no channel).
        """
        from repro.scenario.spec import ScenarioSpec

        if not isinstance(spec, ScenarioSpec):
            spec = ScenarioSpec.from_dict(spec)
        pool = self._ensure_pool()
        if tag is not None:
            if self._notes is None:
                raise ConfigurationError(
                    "tagged submissions need a persistent runner "
                    "(ParallelSweepRunner(persistent=True))"
                )
            return pool.apply_async(
                _tagged_record_worker,
                ((tag, spec.to_dict()),),
                callback=callback,
                error_callback=error_callback,
            )
        return pool.apply_async(
            _spec_record_worker,
            (spec.to_dict(),),
            callback=callback,
            error_callback=error_callback,
        )

    def note_pids(self) -> list[tuple[int, int]]:
        """Drain the liveness channel: ``(tag, worker pid)`` per started job.

        Single-consumer nonblocking drain; call it from one monitor
        thread only.
        """
        notes = self._notes
        out: list[tuple[int, int]] = []
        if notes is None:
            return out
        try:
            while not notes.empty():
                out.append(notes.get())
        except (OSError, EOFError):  # channel torn down under us
            pass
        return out

    def worker_alive(self, pid: int) -> bool:
        """Whether ``pid`` is a live worker of the current pool.

        A worker that died (crash, SIGKILL, OOM) leaves the pool's
        process list — either reaped and replaced by the pool's
        maintenance thread or still listed with a set exitcode; both
        read as dead here.
        """
        pool = self._pool
        if pool is None:
            return False
        return any(
            p.pid == pid and p.is_alive() for p in pool._pool
        )

    def run_records(self, specs):
        """Run declarative scenarios; records come back in spec order.

        Each :class:`~repro.scenario.spec.ScenarioSpec` executes through
        :func:`~repro.scenario.runner.run_scenario`, so one sweep may mix
        engines and models freely.  Calibrated sim platforms are
        prewarmed once per distinct ``(cluster size, seed)`` key before
        the fan-out; records are returned without their engine-native
        ``raw`` objects.  Serial and parallel runs are value-identical in
        every simulated quantity — only the host wall-clock fields
        (``wall_time_s`` and the ``*_wall_time`` metrics) vary.
        """
        from repro.scenario import calibration_key, run_scenario

        specs = list(specs)
        if not specs:
            return []
        results = [None] * len(specs)
        if self.jobs == 1:
            for i, spec in enumerate(specs):
                results[i] = run_scenario(spec).without_raw()
            return results
        pool = self._ensure_pool(len(specs))
        try:
            keys = sorted(
                {
                    key
                    for key in (calibration_key(spec) for spec in specs)
                    if key is not None
                }
            )
            missing = [k for k in keys if k not in _PLATFORM_CACHE]
            for key, calibrated in pool.map(_calibrate_worker, missing):
                # Workers reload the fit from the shared disk cache; the
                # parent memo makes later in-process runs free as well.
                _PLATFORM_CACHE[key] = calibrated
            payloads = list(enumerate(specs))
            for index, record in pool.imap_unordered(_record_worker, payloads):
                results[index] = record
        finally:
            if not self.persistent:
                self.close()
        return results
