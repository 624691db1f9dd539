"""Parallel execution of scenario sweeps.

A sweep's scenarios are independent, so :func:`run_records` fans a list
of :class:`~repro.scenario.spec.ScenarioSpec` out over a
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

Every worker pool in the package is forked by :func:`fork_pool` and torn
down early by :func:`terminate_pool`: the one-shot pool of a sweep here,
and the resident pool :class:`repro.service.pool.ResidentPool` keeps for
the lifetime of ``repro serve``.
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


#: Seconds :func:`terminate_pool` gives workers to exit on the pool's
#: SIGTERM before the stragglers are SIGKILLed.
_TERMINATE_GRACE_S = 5.0

#: Whether :func:`_default_sigterm_in_child` runs after every fork (hooks
#: cannot be unregistered, so it is installed once, with the first pool).
_FORK_HOOK_INSTALLED = False


# ---------------------------------------------------------- pool lifetime
def _default_sigterm_in_child() -> None:
    # The parent may run a SIGTERM handler that only sets a flag (asyncio's
    # ``add_signal_handler`` under ``repro serve``).  A worker forked while
    # the pool is being torn down would inherit it and swallow the pool's
    # own SIGTERM before its initializer runs, then block forever on the
    # task-queue lock ``Pool.terminate`` holds.  Until the initializer
    # installs the worker's handler, SIGTERM must simply kill it.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _worker_exit_cleanly(signum, frame):
    # SystemExit unwinds the worker's ``with inqueue._rlock:`` block, so
    # the shared queue lock is released on the way out (a raw
    # signal-death strands it, see _init_worker).
    raise SystemExit(0)


def _init_worker(setup: Optional[Callable], args: tuple) -> None:
    """Pool-worker initializer: shutdown signals must not strand locks.

    Ctrl-C and service managers (systemd, ``timeout``) deliver
    SIGINT/SIGTERM to the whole process group, workers included.  An
    idle worker sits blocked on the pool's task queue *holding the
    queue's reader lock*; dying abruptly there leaves the lock acquired
    forever, and the parent's ``Pool.terminate`` then deadlocks in
    ``_help_stuff_finish`` waiting for it.  So workers ignore SIGINT
    outright (interruption is the parent's decision) and turn SIGTERM
    into a ``SystemExit`` that releases the lock on exit — which also
    keeps them reapable by ``Pool.terminate``'s own SIGTERM.  Then the
    pool owner's ``setup(*args)`` runs, if any.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if hasattr(signal, "SIGTERM"):
        signal.signal(signal.SIGTERM, _worker_exit_cleanly)
    if setup is not None:
        setup(*args)


def fork_pool(
    processes: int, setup: Optional[Callable] = None, args: tuple = ()
) -> "multiprocessing.pool.Pool":
    """A :mod:`multiprocessing` pool of ``processes`` signal-safe workers.

    Each worker runs ``setup(*args)`` once, after the signal handling of
    :func:`_init_worker` is in place.
    """
    import multiprocessing

    global _FORK_HOOK_INSTALLED
    if not _FORK_HOOK_INSTALLED and hasattr(os, "register_at_fork"):
        os.register_at_fork(after_in_child=_default_sigterm_in_child)
        _FORK_HOOK_INSTALLED = True
    return multiprocessing.Pool(
        processes=processes, initializer=_init_worker, initargs=(setup, args)
    )


def _kill_stragglers(pool) -> None:
    """SIGKILL every worker of ``pool`` that outlived its SIGTERM."""
    for process in list(pool._pool):
        if process.exitcode is None:
            process.kill()


def terminate_pool(pool) -> None:
    """Stop ``pool`` now, queued and running work included.

    Bounded: a worker still alive ``_TERMINATE_GRACE_S`` after the pool's
    SIGTERM is SIGKILLed, so no worker outlives the call (and the call
    cannot hang on one).
    """
    import threading

    watchdog = threading.Timer(_TERMINATE_GRACE_S, _kill_stragglers, (pool,))
    watchdog.daemon = True
    watchdog.start()
    try:
        pool.terminate()
        pool.join()
    finally:
        watchdog.cancel()


# ------------------------------------------------------------------ sweeps
def _calibrate_worker(key: PlatformKey) -> tuple[PlatformKey, PlatformSpec]:
    return key, cached_platform(key)


def _record_worker(payload):
    from repro.scenario import run_scenario

    index, spec = payload
    # Engine-native result objects (runtimes, kernels) do not pickle;
    # records cross the pool stripped of them, so serial and parallel
    # sweeps return value-identical results.
    return index, run_scenario(spec).without_raw()


def run_records(specs, jobs: Optional[int] = None):
    """Run declarative scenarios; records come back in spec order.

    ``jobs`` is the worker-process count: ``None`` or 0 means one per
    CPU, 1 runs everything in-process (no pool), which is handy under
    debuggers.  At most one worker per spec is forked.

    Each :class:`~repro.scenario.spec.ScenarioSpec` executes through
    :func:`~repro.scenario.runner.run_scenario`, so one sweep may mix
    engines and models freely.  Calibrated sim platforms are prewarmed
    once per distinct ``(cluster size, seed)`` key before the fan-out;
    records are returned without their engine-native ``raw`` objects.
    Serial and parallel runs are value-identical in every simulated
    quantity — only the host wall-clock fields (``wall_time_s`` and the
    ``*_wall_time`` metrics) vary.  The first failing spec's exception
    propagates as soon as it arrives; the specs still queued are dropped
    with the pool.
    """
    from repro.scenario import calibration_key, run_scenario

    if jobs is not None and jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs!r}")
    jobs = jobs or os.cpu_count() or 1
    specs = list(specs)
    if jobs == 1:
        return [run_scenario(spec).without_raw() for spec in specs]
    if not specs:
        return []
    results = [None] * len(specs)
    pool = fork_pool(min(jobs, len(specs)))
    try:
        keys = {calibration_key(spec) for spec in specs} - {None}
        missing = [k for k in sorted(keys) if k not in _PLATFORM_CACHE]
        for key, calibrated in pool.map(_calibrate_worker, missing):
            # Workers reload the fit from the shared disk cache; the
            # parent memo makes later in-process runs free as well.
            _PLATFORM_CACHE[key] = calibrated
        for index, record in pool.imap_unordered(_record_worker, enumerate(specs)):
            results[index] = record
    except BaseException:
        terminate_pool(pool)
        raise
    pool.close()
    pool.join()
    return results
