"""Open-system arrival processes: lazy ``(time, JobSpec)`` streams.

The closed workloads of :mod:`repro.clusterserver.workload` materialize
every job up front — fine for paper-scale scenarios, fatal for the
ROADMAP's production-scale regime where job counts climb orders of
magnitude.  An :class:`ArrivalProcess` is the open-system counterpart:
any iterable yielding ``(arrival_time, JobSpec)`` pairs in nondecreasing
time order, consumed lazily by the engines so that only *active* jobs
ever hold memory.

Four generator families cover the usual traffic shapes:

* :func:`poisson_arrivals` — memoryless arrivals at a constant rate,
  drawn by the same generator as ``synthetic_workload``;
* :func:`bursty_arrivals` — a two-state MMPP (Markov-modulated Poisson
  process): quiet/burst phases with exponential dwell times, the burst
  state arriving ``burst_factor`` times faster;
* :func:`diurnal_arrivals` — a sinusoidal rate profile via Lewis-Shedler
  thinning, modeling daily load cycles;
* :func:`trace_arrivals` — replay of a JSON-lines trace file, one job
  per line.

All generators draw from :class:`~repro.util.rng.SeedSequenceFactory`
streams keyed by process name, so a given ``(process, seed)`` pair is a
reproducible workload.  Every process takes a stop condition — a job
count, a time horizon, or both — because an unbounded stream with no
admission control would never drain.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path
from typing import Iterable, Iterator, Optional

from repro.clusterserver.workload import (
    JOB_SHAPES,
    JobSpec,
    _sample_job,
    amdahl_efficiency,
    poisson_jobs,
)
from repro.errors import ConfigurationError
from repro.util.rng import SeedSequenceFactory
from repro.util.validation import check_options, check_positive

#: An arrival process: yields ``(arrival_time, JobSpec)`` lazily, in
#: nondecreasing time order.  Any iterable qualifies; the generators in
#: this module are the built-in implementations.
ArrivalProcess = Iterable[tuple[float, JobSpec]]


def _check_stop(jobs, horizon, required: bool = True) -> None:
    if required and jobs is None and horizon is None:
        raise ConfigurationError(
            "an arrival process needs a stop condition: set jobs (count) "
            "and/or horizon (last admission time)"
        )
    if jobs is not None and jobs < 1:
        raise ConfigurationError("arrivals.jobs must be >= 1")
    if horizon is not None:
        check_positive("arrivals.horizon", horizon)


def _check_synthetic(mean_interarrival, shape, jobs, horizon) -> None:
    """The ranges every synthetic process takes, checked when the stream
    is built — a generator body would not run before the engine's first
    ``next()``."""
    check_positive("arrivals.mean_interarrival", mean_interarrival)
    if shape not in JOB_SHAPES:
        raise ConfigurationError(
            f"unknown job shape {shape!r}; choose from {list(JOB_SHAPES)}"
        )
    _check_stop(jobs, horizon)


def poisson_arrivals(
    mean_interarrival: float = 25.0,
    *,
    shape: str = "lu",
    seed: int = 0,
    max_nodes: int = 8,
    jobs: Optional[int] = None,
    horizon: Optional[float] = None,
) -> Iterator[tuple[float, JobSpec]]:
    """Constant-rate memoryless arrivals (rate ``1/mean_interarrival``)."""
    _check_synthetic(mean_interarrival, shape, jobs, horizon)

    def stream() -> Iterator[tuple[float, JobSpec]]:
        arrivals = poisson_jobs(
            shape, "arrivals/poisson", seed, mean_interarrival, max_nodes
        )
        for t, spec in itertools.islice(arrivals, jobs):
            if horizon is not None and t > horizon:
                return
            yield t, spec

    return stream()


def bursty_arrivals(
    mean_interarrival: float = 25.0,
    *,
    burst_factor: float = 8.0,
    mean_quiet: float = 400.0,
    mean_burst: float = 100.0,
    shape: str = "lu",
    seed: int = 0,
    max_nodes: int = 8,
    jobs: Optional[int] = None,
    horizon: Optional[float] = None,
) -> Iterator[tuple[float, JobSpec]]:
    """Two-state MMPP: quiet/burst phases with exponential dwell times.

    The quiet state arrives at ``1/mean_interarrival``; the burst state
    ``burst_factor`` times faster.  Dwell times are exponential with
    means ``mean_quiet``/``mean_burst``.  Because the exponential is
    memoryless, redrawing the pending gap at each state switch is
    distributionally exact.
    """
    _check_synthetic(mean_interarrival, shape, jobs, horizon)
    check_positive("arrivals.burst_factor", burst_factor)
    if burst_factor < 1.0:
        raise ConfigurationError("burst_factor must be >= 1")
    check_positive("arrivals.mean_quiet", mean_quiet)
    check_positive("arrivals.mean_burst", mean_burst)

    def stream() -> Iterator[tuple[float, JobSpec]]:
        rng = SeedSequenceFactory(seed).rng("arrivals/bursty")
        t = 0.0
        i = 0
        bursting = False
        t_switch = t + float(rng.exponential(mean_quiet))
        while jobs is None or i < jobs:
            mean = mean_interarrival / (burst_factor if bursting else 1.0)
            gap = float(rng.exponential(mean))
            if t + gap >= t_switch:
                # Dwell expired before the next arrival: flip state and
                # redraw from the switch instant (exact by memorylessness).
                t = t_switch
                bursting = not bursting
                t_switch = t + float(
                    rng.exponential(mean_burst if bursting else mean_quiet)
                )
                continue
            t += gap
            if horizon is not None and t > horizon:
                return
            yield t, _sample_job(shape, rng, i, t, max_nodes)
            i += 1

    return stream()


def diurnal_arrivals(
    mean_interarrival: float = 25.0,
    *,
    amplitude: float = 0.5,
    period: float = 1000.0,
    shape: str = "lu",
    seed: int = 0,
    max_nodes: int = 8,
    jobs: Optional[int] = None,
    horizon: Optional[float] = None,
) -> Iterator[tuple[float, JobSpec]]:
    """Sinusoidal rate profile via Lewis-Shedler thinning.

    The instantaneous rate is ``(1 + amplitude * sin(2*pi*t/period)) /
    mean_interarrival``: candidate arrivals are drawn at the peak rate
    and accepted with probability ``rate(t)/peak``.
    """
    _check_synthetic(mean_interarrival, shape, jobs, horizon)
    if not 0.0 <= amplitude < 1.0:
        raise ConfigurationError("amplitude must be in [0, 1)")
    check_positive("arrivals.period", period)

    def stream() -> Iterator[tuple[float, JobSpec]]:
        rng = SeedSequenceFactory(seed).rng("arrivals/diurnal")
        base = 1.0 / mean_interarrival
        peak = base * (1.0 + amplitude)
        t = 0.0
        i = 0
        while jobs is None or i < jobs:
            t += float(rng.exponential(1.0 / peak))
            if horizon is not None and t > horizon:
                return
            rate = base * (1.0 + amplitude * math.sin(2.0 * math.pi * t / period))
            if float(rng.uniform(0.0, 1.0)) * peak >= rate:
                continue  # thinned-out candidate
            yield t, _sample_job(shape, rng, i, t, max_nodes)
            i += 1

    return stream()


def _trace_job(
    arrival: float,
    phase_work: tuple,
    *,
    name: str = "",
    parallel_fraction: float = 0.95,
    max_nodes: int = 8,
    min_nodes: int = 1,
    preferred_nodes: int = 0,
) -> JobSpec:
    """One trace line's job: the signature is the line format."""
    return JobSpec(
        name=name,
        arrival=float(arrival),
        phase_work=tuple(check_positive("phase_work", w) for w in phase_work),
        efficiency=amdahl_efficiency(parallel_fraction),
        max_nodes=max_nodes,
        min_nodes=min_nodes,
        preferred_nodes=preferred_nodes,
    )


def trace_arrivals(
    path: "str | Path",
    *,
    jobs: Optional[int] = None,
    horizon: Optional[float] = None,
) -> Iterator[tuple[float, JobSpec]]:
    """Replay a JSON-lines trace file, one job per line.

    Each line is an object whose fields are :func:`_trace_job`'s
    parameters, checked the way spec options are: ``arrival`` (seconds)
    and ``phase_work`` (a non-empty list of finite reals > 0), plus
    optional ``name`` (default ``trace<line>``), ``parallel_fraction``
    (default 0.95), ``max_nodes`` (default 8), ``min_nodes`` and
    ``preferred_nodes``.  Lines must be in nondecreasing arrival order.
    Unlike the synthetic processes a trace is finite by construction, so
    the stop condition is optional and only truncates.
    """
    _check_stop(jobs, horizon, required=False)
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read arrival trace: {exc}") from None

    def parse(lineno: int, line: str) -> JobSpec:
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid JSON: {exc}") from None
        if not isinstance(entry, dict):
            raise ConfigurationError("each trace line must be an object")
        check_options("", entry, _trace_job)
        entry.setdefault("name", f"trace{lineno}")
        return _trace_job(**entry)

    def stream() -> Iterator[tuple[float, JobSpec]]:
        last_t = -math.inf
        emitted = 0
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            if jobs is not None and emitted >= jobs:
                return
            try:
                spec = parse(lineno, line)
            except ConfigurationError as exc:
                raise ConfigurationError(f"{path.name}:{lineno}: {exc}") from None
            t = spec.arrival
            if t < last_t:
                raise ConfigurationError(
                    f"{path.name}:{lineno}: arrivals must be nondecreasing "
                    f"({t} after {last_t})"
                )
            last_t = t
            if horizon is not None and t > horizon:
                return
            yield t, spec
            emitted += 1

    return stream()
