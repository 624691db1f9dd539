"""Malleable-job workloads for the cluster-server simulation.

A job is a sequence of *phases* (think LU iterations), each with a serial
work amount and an efficiency function of the node count.  This is exactly
the information the DPS simulator's dynamic-efficiency output provides for
a real application (Fig. 11): work per iteration and how efficiently extra
nodes are used in each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import ConfigurationError
from repro.util.rng import SeedSequenceFactory

#: efficiency(nodes) -> (0, 1]; phase rate on n nodes = n * efficiency(n).
EfficiencyFn = Callable[[int], float]

#: Work residual under which the eager engine's pass ends a phase.
PHASE_DONE_ATOL = 1e-12


class AmdahlEfficiency:
    """Amdahl-style efficiency curve with a given parallel fraction.

    A class (rather than a closure) so that job specs pickle — a
    workload can cross a process boundary, e.g. into a sweep worker.
    Any ``int -> float`` callable works as a custom efficiency curve.
    """

    __slots__ = ("parallel_fraction",)

    def __init__(self, parallel_fraction: float) -> None:
        if not 0.0 <= parallel_fraction <= 1.0:
            raise ConfigurationError("parallel_fraction must be in [0, 1]")
        self.parallel_fraction = parallel_fraction

    def __call__(self, nodes: int) -> float:
        if nodes <= 1:
            return 1.0
        serial = 1.0 - self.parallel_fraction
        speedup = 1.0 / (serial + self.parallel_fraction / nodes)
        return speedup / nodes

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"AmdahlEfficiency({self.parallel_fraction!r})"

    def __getstate__(self):
        return self.parallel_fraction

    def __setstate__(self, state):
        self.parallel_fraction = state


def amdahl_efficiency(parallel_fraction: float) -> EfficiencyFn:
    """Amdahl-style efficiency curve with the given parallel fraction."""
    return AmdahlEfficiency(parallel_fraction)


@dataclass(frozen=True)
class JobSpec:
    """One malleable job: arrival, phases and efficiency curves.

    ``preferred_nodes`` is the allocation a user would request from a
    conventional (rigid/moldable) scheduler; malleable policies are free
    to deviate within ``[min_nodes, max_nodes]``.
    """

    name: str
    arrival: float
    phase_work: tuple[float, ...]
    efficiency: EfficiencyFn
    max_nodes: int = 64
    min_nodes: int = 1
    preferred_nodes: int = 0  # 0: default to max_nodes

    def __post_init__(self) -> None:
        if self.arrival < 0.0:
            raise ConfigurationError("arrival time must be >= 0")
        if not self.phase_work:
            raise ConfigurationError("a job needs at least one phase")
        if any(w <= 0 for w in self.phase_work):
            raise ConfigurationError("phase work must be positive")
        if not 1 <= self.min_nodes <= self.max_nodes:
            raise ConfigurationError("need 1 <= min_nodes <= max_nodes")
        if self.preferred_nodes and not (
            self.min_nodes <= self.preferred_nodes <= self.max_nodes
        ):
            raise ConfigurationError(
                "preferred_nodes must lie in [min_nodes, max_nodes]"
            )

    @property
    def total_work(self) -> float:
        return sum(self.phase_work)

    @property
    def request(self) -> int:
        """The job's conventional allocation request."""
        return self.preferred_nodes or self.max_nodes

    def ideal_duration(self) -> float:
        """Run time on a dedicated cluster at the requested allocation."""
        n = self.request
        rate = n * self.efficiency(n)
        return self.total_work / rate if rate > 0 else float("inf")


class JobView:
    """What a scheduling policy sees of one active job: membership only.

    ``spec`` and arrival ``index`` identify the job, ``nodes`` is its
    grant (the one copy rates are read from).  Made at admission, dropped
    at retirement, so it can key an allocation.  Progress stays
    engine-side: reading it here raises :class:`AttributeError`, which is
    what lets both engines skip the policy while membership is unchanged.
    """

    __slots__ = ("spec", "index", "nodes", "efficient_size")

    def __init__(self, spec: JobSpec, index: int = -1) -> None:
        self.spec = spec
        self.index = index
        self.nodes = 0
        #: (efficiency floor, efficient node count) as priced once by
        #: :class:`~repro.clusterserver.scheduler.AdaptiveEfficiencyScheduler`
        self.efficient_size: tuple[float, int] | None = None


def grant_rate(spec: JobSpec, nodes: int, factor: float) -> float:
    """Work per second of ``spec`` on ``nodes`` (0.0 on none).

    ``factor`` is the fault layer's degraded-node slowdown in (0, 1];
    1.0 is exact under IEEE multiplication, so fault-free runs are
    bit-unchanged.  The one rate formula both engines price a grant by.
    """
    return nodes * spec.efficiency(nodes) * factor if nodes > 0 else 0.0


class MalleableJob:
    """Runtime state of one job inside the eager server simulation.

    The grant lives on :attr:`view`, the only part a policy is handed;
    :attr:`work_rate` is the grant priced by :func:`grant_rate`, set when
    a decision changes the grant or its factor.  The eager engine's one
    pass per event (:func:`repro.clusterserver.server.advance_running`)
    moves the progress fields.
    """

    __slots__ = (
        "view", "spec", "index", "phases", "phase", "remaining_in_phase",
        "work_rate", "rate_factor", "started_at", "finished_at",
        "node_seconds",
    )

    def __init__(self, spec: JobSpec, index: int = -1) -> None:
        self.view = JobView(spec, index)
        self.spec = spec
        #: arrival-order index (the fault layer's stable job identity)
        self.index = index
        self.phases = len(spec.phase_work)
        self.phase = 0
        self.remaining_in_phase = spec.phase_work[0]
        #: work per second at the current grant; 0.0 while it holds none
        self.work_rate = 0.0
        #: degraded-node slowdown in (0, 1]
        self.rate_factor = 1.0
        self.started_at: float = float("nan")
        self.finished_at: float = float("nan")
        #: integral of allocated nodes over time (for efficiency accounting)
        self.node_seconds = 0.0

    @property
    def done(self) -> bool:
        return self.phase >= self.phases


def lu_like_job(
    name: str,
    arrival: float,
    nb: int = 8,
    unit_work: float = 10.0,
    parallel_fraction: float = 0.97,
    max_nodes: int = 8,
) -> JobSpec:
    """A job shaped like the paper's LU run: cubic decay of phase work.

    Phase k of the blocked LU performs ~``(nb - k)^2`` of the trailing
    update plus the panel, so the work per iteration decreases steeply —
    the very property that makes dynamic deallocation attractive.
    """
    work = tuple(
        unit_work * ((nb - k) ** 2 + (nb - k)) / (nb**2 + nb) * nb
        for k in range(nb)
    )
    return JobSpec(
        name=name,
        arrival=arrival,
        phase_work=work,
        efficiency=amdahl_efficiency(parallel_fraction),
        max_nodes=max_nodes,
    )


def stencil_like_job(
    name: str,
    arrival: float,
    iterations: int = 10,
    unit_work: float = 10.0,
    parallel_fraction: float = 0.95,
    max_nodes: int = 8,
) -> JobSpec:
    """A job shaped like the stencil application: constant phase work.

    Its dynamic efficiency is flat, so shrinking it mid-run always costs
    time — the counterpoint to :func:`lu_like_job` when studying adaptive
    policies.
    """
    return JobSpec(
        name=name,
        arrival=arrival,
        phase_work=(unit_work,) * iterations,
        efficiency=amdahl_efficiency(parallel_fraction),
        max_nodes=max_nodes,
    )


def rampup_job(
    name: str,
    arrival: float,
    phases: int = 8,
    unit_work: float = 10.0,
    parallel_fraction: float = 0.96,
    max_nodes: int = 8,
) -> JobSpec:
    """A job whose work *grows* per phase (e.g. adaptive mesh refinement).

    Such jobs benefit from *gaining* nodes over time; under shrink-only
    policies they expose the cost of early over-allocation.
    """
    work = tuple(unit_work * (k + 1) for k in range(phases))
    return JobSpec(
        name=name,
        arrival=arrival,
        phase_work=work,
        efficiency=amdahl_efficiency(parallel_fraction),
        max_nodes=max_nodes,
    )


#: Job-shape families a synthetic stream samples (a ``server`` spec's
#: ``app.name``).
JOB_SHAPES = ("lu", "mixed")


def _sample_job(shape: str, rng, index: int, t: float, max_nodes: int) -> JobSpec:
    """Draw one job of a :data:`JOB_SHAPES` family arriving at ``t``."""
    if shape == "lu":
        return lu_like_job(
            f"job{index}",
            arrival=t,
            nb=int(rng.integers(4, 12)),
            unit_work=float(rng.uniform(5.0, 25.0)),
            parallel_fraction=float(rng.uniform(0.92, 0.99)),
            max_nodes=max_nodes,
        )
    unit = float(rng.uniform(5.0, 25.0))
    pf = float(rng.uniform(0.92, 0.99))
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return lu_like_job(
            f"lu{index}", t, nb=int(rng.integers(4, 12)), unit_work=unit,
            parallel_fraction=pf, max_nodes=max_nodes,
        )
    if kind == 1:
        return stencil_like_job(
            f"st{index}", t, iterations=int(rng.integers(5, 15)),
            unit_work=unit, parallel_fraction=pf, max_nodes=max_nodes,
        )
    return rampup_job(
        f"rr{index}", t, phases=int(rng.integers(4, 10)),
        unit_work=unit, parallel_fraction=pf, max_nodes=max_nodes,
    )


def poisson_jobs(
    shape: str, label: str, seed: int, mean_interarrival: float, max_nodes: int
) -> Iterator[tuple[float, JobSpec]]:
    """An endless ``(arrival, JobSpec)`` stream with exponential gaps.

    ``label`` names the :class:`~repro.util.rng.SeedSequenceFactory`
    stream the gaps and job sizes are drawn from; ``shape`` is one of
    :data:`JOB_SHAPES`.  Each job draws its gap, then its size.
    """
    rng = SeedSequenceFactory(seed).rng(label)
    t = 0.0
    for i in itertools.count():
        t += float(rng.exponential(mean_interarrival))
        yield t, _sample_job(shape, rng, i, t, max_nodes)


def synthetic_workload(
    jobs: int = 12,
    mean_interarrival: float = 40.0,
    seed: int = 0,
    max_nodes: int = 8,
) -> list[JobSpec]:
    """A random stream of LU-like jobs (Poisson arrivals, varied sizes)."""
    stream = poisson_jobs("lu", "workload", seed, mean_interarrival, max_nodes)
    return [spec for _, spec in itertools.islice(stream, jobs)]


def mixed_workload(
    jobs: int = 12,
    mean_interarrival: float = 40.0,
    seed: int = 0,
    max_nodes: int = 8,
) -> list[JobSpec]:
    """A random mix of LU-like, stencil-like and ramp-up jobs."""
    stream = poisson_jobs(
        "mixed", "mixed-workload", seed, mean_interarrival, max_nodes
    )
    return [spec for _, spec in itertools.islice(stream, jobs)]
