"""The max-min cascade's two shortcuts, each held to the path it replaced.

* **Bounded component BFS** — ``LinkComponentAllocator._component(seeds,
  limit)`` stops once the component holds more than ``limit`` flows and
  returns ``None``; below the limit it returns exactly the ordered list
  the unbounded walk does (the restricted re-solve depends on the order).
* **Link pairs built once** — each flow's ``(egress, ingress)`` pair is
  cached at registration, dropped at unregistration and rebuilt by
  ``_full``; the cache must hold exactly the live flows, never a leak.
* **Link pairs into the solver** — ``maxmin_solve`` takes each flow's
  pair; rates and saturation rounds are ``repr``-equal to a reference
  scan-based water-fill over ``(src, dst)`` pairs.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.des.fluid import FluidTask
from repro.des.kernel import Kernel
from repro.netmodel.maxmin import IncrementalMaxMinAllocator, MaxMinStarNetwork
from repro.netmodel.packet import PacketNetwork
from repro.netmodel.params import NetworkParams
from repro.netmodel.waterfill import flow_links, maxmin_solve

try:
    import numpy  # noqa: F401
    HAS_NUMPY = True
except ImportError:
    HAS_NUMPY = False


class FakeTransfer:
    def __init__(self, src, dst):
        self.src = src
        self.dst = dst


def _flow_task(src, dst):
    return FluidTask(1.0, lambda t: None, tag=FakeTransfer(src, dst))


def _random_flows(rng, num_nodes, count):
    flows = []
    for _ in range(count):
        src = rng.randrange(num_nodes)
        dst = (src + 1 + rng.randrange(num_nodes - 1)) % num_nodes
        flows.append((src, dst))
    return flows


# ------------------------------------------------------------- bounded BFS


def _reference_component(allocator, seed_links):
    """The unbounded walk, deriving each flow's links from ``_flow``."""
    dirty, ordered = set(), []
    frontier = [link for link in seed_links if link in allocator._link_tasks]
    seen = set(seed_links)
    while frontier:
        for task in allocator._link_tasks.get(frontier.pop(), ()):
            if task in dirty:
                continue
            dirty.add(task)
            ordered.append(task)
            for other in flow_links(*allocator._flow(task)):
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
    return ordered


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=3, max_value=12),     # node count
    st.integers(min_value=0, max_value=40),     # flow count
    st.integers(min_value=0, max_value=2**32),  # seed
)
def test_bounded_component_stops_exactly_past_the_limit(num_nodes, count, seed):
    rng = random.Random(seed)
    allocator = IncrementalMaxMinAllocator(capacity=1.0)
    tasks = [_flow_task(s, d) for s, d in _random_flows(rng, num_nodes, count)]
    allocator._full(tasks)
    for _ in range(5):
        seeds = list(
            dict.fromkeys(
                (rng.choice(["out", "in"]), rng.randrange(num_nodes + 2))
                for _ in range(rng.randint(1, 4))
            )
        )
        full = _reference_component(allocator, seeds)
        assert allocator._component(seeds) == full
        # Limits are flow counts (``cascade_threshold · n``), never negative.
        n = len(full)
        for limit in {0, 0.5, max(0, n - 1), max(0, n - 0.5), n, n + 1,
                      rng.uniform(0, count + 1), math.inf}:
            bounded = allocator._component(seeds, limit)
            if len(full) > limit:
                assert bounded is None
            else:
                assert bounded == full


# -------------------------------------------------------------- link cache


def _assert_cache_is_live_set(allocator, live):
    assert set(allocator._task_links) == set(live)
    for task in live:
        assert allocator._task_links[task] == flow_links(task.tag.src, task.tag.dst)
    indexed = {t for members in allocator._link_tasks.values() for t in members}
    assert indexed == set(live)


@settings(deadline=None, max_examples=25)
@given(st.booleans(), st.integers(min_value=0, max_value=2**32))
def test_link_cache_holds_exactly_the_live_flows(verify, seed):
    """Steady churn with removals, optionally shadowed by verify mode's
    ``_full`` after every update, then an emptied pool: the cache tracks
    the live set at every step and ends empty."""
    rng = random.Random(seed)
    allocator = IncrementalMaxMinAllocator(capacity=1.0, verify=verify)
    active: list[FluidTask] = []
    for _ in range(60):
        added, removed = [], []
        if active and rng.random() < 0.45:
            for _ in range(min(len(active), rng.randint(1, 3))):
                removed.append(active.pop(rng.randrange(len(active))))
        else:
            for src, dst in _random_flows(rng, 6, rng.randint(1, 3)):
                task = _flow_task(src, dst)
                active.append(task)
                added.append(task)
        allocator.update(active, added, removed)
        _assert_cache_is_live_set(allocator, active)
    allocator.refresh(active)  # a bare _full mid-stream
    _assert_cache_is_live_set(allocator, active)
    # _full trusts no bookkeeping: a whole new task set replaces the cache.
    active = [_flow_task(src, dst) for src, dst in _random_flows(rng, 6, 5)]
    allocator._full(active)
    _assert_cache_is_live_set(allocator, active)
    allocator.update([], [], list(active))
    assert allocator._task_links == {}
    assert allocator._link_tasks == {}


@pytest.mark.parametrize(
    "model",
    [
        MaxMinStarNetwork,
        pytest.param(
            PacketNetwork,
            marks=pytest.mark.skipif(
                not HAS_NUMPY,
                reason="seeded noise streams need numpy",
            ),
        ),
    ],
)
def test_network_run_leaves_no_cached_links(model):
    """A water-filling model driven to completion under verify mode."""
    kernel = Kernel()
    rng = random.Random(3)
    net = model(
        kernel,
        NetworkParams(latency=1e-4, bandwidth=1e6),
        verify_incremental=True,
    )
    for src, dst in _random_flows(rng, 5, 40):
        net.submit(src, dst, rng.uniform(1e3, 1e5), lambda tr: None)
    kernel.run()
    assert net.completed_transfers == 40
    assert net.allocator._task_links == {}
    assert net.allocator._link_tasks == {}


# ------------------------------------------------------------- solver input


def _reference_solve(pairs, capacity, residual=None):
    """Scan-based water-fill over ``(src, dst)`` pairs.

    Every round rescans all links for the smallest fair share, first
    registered link winning ties, and subtracts each frozen flow's share
    from both its links in flow order — the float path of the heap solver.
    """
    links = [flow_links(src, dst) for src, dst in pairs]
    members: dict = {}
    for i, pair in enumerate(links):
        for link in pair:
            members.setdefault(link, []).append(i)
    cap = {
        link: capacity if residual is None else residual.get(link, capacity)
        for link in members
    }
    frozen = [False] * len(pairs)
    rates = [0.0] * len(pairs)
    rounds = []
    while not all(frozen):
        best = None
        for link, group in members.items():
            unfrozen = [i for i in group if not frozen[i]]
            if unfrozen:
                share = cap[link] / len(unfrozen)
                if best is None or share < best[1]:
                    best = (link, share, tuple(unfrozen))
        link, share, indices = best
        share = max(0.0, share)
        for i in indices:
            frozen[i] = True
            rates[i] = share
            for other in links[i]:
                cap[other] = max(0.0, cap[other] - share)
        rounds.append((link, share, indices))
    return rates, rounds


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=2, max_value=9),      # node count
    st.integers(min_value=0, max_value=30),     # flow count
    st.sampled_from([1.0, 3.0, 0.1, 1e6, 7.3]),  # capacity
    st.booleans(),                              # with residual
    st.integers(min_value=0, max_value=2**32),  # seed
)
def test_solver_on_link_pairs_matches_reference(num_nodes, count, capacity,
                                                with_residual, seed):
    rng = random.Random(seed)
    pairs = _random_flows(rng, num_nodes, count)
    residual = None
    if with_residual:
        residual = {
            flow_links(src, dst)[rng.randrange(2)]: rng.uniform(0.0, capacity)
            for src, dst in pairs[: count // 2 + 1]
        }
    solution = maxmin_solve(
        [flow_links(src, dst) for src, dst in pairs], capacity, residual
    )
    rates, rounds = _reference_solve(pairs, capacity, residual)
    assert repr(solution.rates) == repr(rates)
    assert repr(solution.rounds) == repr(rounds)
