"""Malleable-job workloads for the cluster-server simulation.

A job is a sequence of *phases* (think LU iterations), each with a serial
work amount and an efficiency function of the node count.  This is exactly
the information the DPS simulator's dynamic-efficiency output provides for
a real application (Fig. 11): work per iteration and how efficiently extra
nodes are used in each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence


from repro.errors import ConfigurationError
from repro.util.rng import SeedSequenceFactory

#: efficiency(nodes) -> (0, 1]; phase rate on n nodes = n * efficiency(n).
EfficiencyFn = Callable[[int], float]

#: Work residual under which :meth:`MalleableJob.advance` ends a phase.
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


class MalleableJob:
    """Runtime state of one job inside the server simulation."""

    def __init__(self, spec: JobSpec, index: int = -1) -> None:
        self.spec = spec
        #: arrival-order index (the fault layer's stable job identity)
        self.index = index
        self._phases = len(spec.phase_work)
        self.phase = 0
        self.remaining_in_phase = spec.phase_work[0]
        self.nodes = 0
        #: degraded-node slowdown in (0, 1]; 1.0 (the default) is exact
        #: under IEEE multiplication, so fault-free runs are bit-unchanged
        self.rate_factor = 1.0
        #: set when the fault layer exhausts the job's retry budget
        self.failed = False
        self.started_at: float = float("nan")
        self.finished_at: float = float("nan")
        #: integral of allocated nodes over time (for efficiency accounting)
        self.node_seconds = 0.0
        #: rate() at the (nodes, rate_factor) it was last priced for
        self._priced = (0, 1.0, 0.0)
        #: (efficiency floor, efficient node count) as priced once by
        #: :class:`~repro.clusterserver.scheduler.AdaptiveEfficiencyScheduler`
        self.efficient_size: tuple[float, int] | None = None

    @property
    def done(self) -> bool:
        return self.phase >= self._phases

    @property
    def remaining_work(self) -> float:
        if self.done:
            return 0.0
        return self.remaining_in_phase + sum(
            self.spec.phase_work[self.phase + 1 :]
        )

    def rate(self) -> float:
        """Work completed per second at the current allocation."""
        nodes = self.nodes
        if nodes <= 0 or self.phase >= self._phases:
            return 0.0
        priced_nodes, priced_factor, rate = self._priced
        if nodes != priced_nodes or self.rate_factor != priced_factor:
            # A grant is priced once, not once per event it lasts.
            factor = self.rate_factor
            rate = nodes * self.spec.efficiency(nodes) * factor
            self._priced = (nodes, factor, rate)
        return rate

    def current_efficiency(self) -> float:
        """Efficiency at the current allocation (0 when idle)."""
        if self.done or self.nodes <= 0:
            return 0.0
        return self.spec.efficiency(self.nodes)

    def advance(self, dt: float) -> None:
        """Progress the job by ``dt`` seconds at its current rate."""
        if dt < 0:
            raise ConfigurationError("dt must be >= 0")
        self.node_seconds += self.nodes * dt
        progress = self.rate() * dt
        while progress > 0 and self.phase < self._phases:
            if progress < self.remaining_in_phase - PHASE_DONE_ATOL:
                self.remaining_in_phase -= progress
                return
            progress -= self.remaining_in_phase
            self.phase += 1
            if self.phase < self._phases:
                self.remaining_in_phase = self.spec.phase_work[self.phase]

    def time_to_phase_end(self) -> float:
        """Seconds until the current phase completes at the current rate."""
        rate = self.rate()
        if rate <= 0.0:
            return float("inf")
        return self.remaining_in_phase / rate


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


def synthetic_workload(
    jobs: int = 12,
    mean_interarrival: float = 40.0,
    seed: int = 0,
    max_nodes: int = 8,
) -> list[JobSpec]:
    """A random stream of LU-like jobs (Poisson arrivals, varied sizes)."""
    rng = SeedSequenceFactory(seed).rng("workload")
    specs = []
    t = 0.0
    for i in range(jobs):
        t += float(rng.exponential(mean_interarrival))
        nb = int(rng.integers(4, 12))
        unit = float(rng.uniform(5.0, 25.0))
        pf = float(rng.uniform(0.92, 0.99))
        specs.append(
            lu_like_job(
                f"job{i}",
                arrival=t,
                nb=nb,
                unit_work=unit,
                parallel_fraction=pf,
                max_nodes=max_nodes,
            )
        )
    return specs


def mixed_workload(
    jobs: int = 12,
    mean_interarrival: float = 40.0,
    seed: int = 0,
    max_nodes: int = 8,
) -> list[JobSpec]:
    """A random mix of LU-like, stencil-like and ramp-up jobs."""
    rng = SeedSequenceFactory(seed).rng("mixed-workload")
    specs = []
    t = 0.0
    for i in range(jobs):
        t += float(rng.exponential(mean_interarrival))
        unit = float(rng.uniform(5.0, 25.0))
        pf = float(rng.uniform(0.92, 0.99))
        shape = int(rng.integers(0, 3))
        if shape == 0:
            specs.append(
                lu_like_job(
                    f"lu{i}", t, nb=int(rng.integers(4, 12)), unit_work=unit,
                    parallel_fraction=pf, max_nodes=max_nodes,
                )
            )
        elif shape == 1:
            specs.append(
                stencil_like_job(
                    f"st{i}", t, iterations=int(rng.integers(5, 15)),
                    unit_work=unit, parallel_fraction=pf, max_nodes=max_nodes,
                )
            )
        else:
            specs.append(
                rampup_job(
                    f"rr{i}", t, phases=int(rng.integers(4, 10)),
                    unit_work=unit, parallel_fraction=pf, max_nodes=max_nodes,
                )
            )
    return specs
