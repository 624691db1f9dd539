"""The max-min cascade's shortcuts, each held to the path it replaced.

* **Bounded component BFS** — ``LinkComponentAllocator._component(seeds,
  limit)`` returns ``None`` exactly when the component holds more than
  ``limit`` flows; otherwise the ordered class walk, which visits classes
  in the order a per-flow walk first meets them (the restricted re-solve
  depends on the order).
* **Flow classes built at registration** — the live flows of each
  (source, destination) pair form one class, indexed under its two
  integer link ids; the index must hold exactly the live flows, each
  link's load must equal its live flow count, and ``_full`` rebuilds it
  from scratch — never a leak.
* **Classes into the solver** — ``maxmin_solve`` takes ``(egress,
  ingress, count)`` classes; rates and saturation rounds, expanded per
  flow, are ``repr``-equal to a reference scan-based per-flow water-fill
  over ``(src, dst)`` pairs.
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


def _live_in_registration_order(allocator):
    return sorted(allocator._class_of, key=lambda t: allocator._class_of[t][1])


# ------------------------------------------------------------- bounded BFS


def _reference_component(allocator, seed_links):
    """The unbounded per-flow walk, over links derived from ``_flow``.

    Each link lists its flows in registration order; the walk's flow order
    is projected onto classes by first appearance.
    """
    link_flows: dict = {}
    for task in _live_in_registration_order(allocator):
        for link in flow_links(*allocator._flow(task)[:2]):
            link_flows.setdefault(link, []).append(task)
    dirty, ordered = set(), []
    frontier = [link for link in seed_links if link in link_flows]
    seen = set(seed_links)
    while frontier:
        for task in link_flows[frontier.pop()]:
            if task in dirty:
                continue
            dirty.add(task)
            ordered.append(task)
            for other in flow_links(*allocator._flow(task)[:2]):
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
    classes = list(dict.fromkeys(allocator._class_of[t][0] for t in ordered))
    return classes, len(ordered)


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
    # Churn moves the earliest flow of some classes, and with it their
    # place in the order.
    for _ in range(3):
        removed = [tasks.pop(rng.randrange(len(tasks)))
                   for _ in range(min(len(tasks), rng.randint(0, 4)))]
        added = [_flow_task(s, d) for s, d in
                 _random_flows(rng, num_nodes, rng.randint(0, 4))]
        tasks += added
        allocator.update(tasks, added, removed)
    for _ in range(5):
        seeds = list(
            dict.fromkeys(
                2 * rng.randrange(num_nodes + 2) + rng.randrange(2)
                for _ in range(rng.randint(1, 4))
            )
        )
        full, flows = _reference_component(allocator, seeds)
        assert allocator._component(seeds) == full
        # Limits are flow counts (``cascade_threshold · n``), never negative.
        for limit in {0, 0.5, max(0, flows - 1), max(0, flows - 0.5), flows,
                      flows + 1, rng.uniform(0, count + 1), math.inf}:
            bounded = allocator._component(seeds, limit)
            if flows > limit:
                assert bounded is None
            else:
                assert bounded == full


# -------------------------------------------------------------- class index


def _assert_index_is_live_set(allocator, live):
    assert set(allocator._class_of) == set(live)
    classes = list(allocator._classes.values())
    assert {t for cls in classes for t in cls.flows} == set(live)
    load = [0] * len(allocator._load)
    for task in live:
        cls, number = allocator._class_of[task]
        src, dst = task.tag.src, task.tag.dst
        assert (cls.out, cls.into) == flow_links(src, dst)
        assert allocator._classes[cls.out, cls.into] is cls
        assert cls.flows[task] == 1.0
        load[cls.out] += 1
        load[cls.into] += 1
    assert allocator._load == load
    for cls in classes:
        numbers = [allocator._class_of[t][1] for t in cls.flows]
        assert numbers == sorted(numbers) and cls.first == numbers[0]
    for link, members in enumerate(allocator._link_classes):
        assert set(members) == {
            cls for cls in classes if link in (cls.out, cls.into)
        }


def _assert_index_is_empty(allocator):
    assert allocator._classes == {}
    assert allocator._class_of == {}
    assert not any(allocator._load)
    assert not any(allocator._link_classes)


@settings(deadline=None, max_examples=25)
@given(st.booleans(), st.integers(min_value=0, max_value=2**32))
def test_link_cache_holds_exactly_the_live_flows(verify, seed):
    """Steady churn with removals over few pairs, optionally shadowed by
    verify mode's ``_full`` after every update, then an emptied pool: the
    classes hold exactly the live flows at every step and end empty."""
    rng = random.Random(seed)
    allocator = IncrementalMaxMinAllocator(capacity=1.0, verify=verify)
    active: list[FluidTask] = []
    for _ in range(60):
        added, removed = [], []
        if active and rng.random() < 0.45:
            for _ in range(min(len(active), rng.randint(1, 3))):
                removed.append(active.pop(rng.randrange(len(active))))
        else:
            for src, dst in _random_flows(rng, 4, rng.randint(1, 3)):
                task = _flow_task(src, dst)
                active.append(task)
                added.append(task)
        allocator.update(active, added, removed)
        _assert_index_is_live_set(allocator, active)
    allocator.refresh(active)  # a bare _full mid-stream
    _assert_index_is_live_set(allocator, active)
    # _full trusts no bookkeeping: a whole new task set replaces the index.
    active = [_flow_task(src, dst) for src, dst in _random_flows(rng, 6, 5)]
    allocator._full(active)
    _assert_index_is_live_set(allocator, active)
    allocator.update([], [], list(active))
    _assert_index_is_empty(allocator)


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
    _assert_index_is_empty(net.allocator)


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
    st.integers(min_value=2, max_value=4),      # node count
    st.integers(min_value=0, max_value=60),     # flow count
    st.sampled_from([1.0, 3.0, 0.1, 1e6, 7.3]),  # capacity
    st.booleans(),                              # with residual
    st.integers(min_value=0, max_value=2**32),  # seed
)
def test_solver_on_link_pairs_matches_reference(num_nodes, count, capacity,
                                                with_residual, seed):
    """Few nodes, many flows: pairs repeat, and each pair's flows are one
    class, listed by first appearance."""
    rng = random.Random(seed)
    pairs = _random_flows(rng, num_nodes, count)
    residual = None
    if with_residual:
        residual = {
            flow_links(src, dst)[rng.randrange(2)]: rng.uniform(0.0, capacity)
            for src, dst in pairs[: count // 2 + 1]
        }
    members: dict = {}
    for i, pair in enumerate(pairs):
        members.setdefault(pair, []).append(i)
    classes = [(*flow_links(*pair), len(flows)) for pair, flows in members.items()]
    groups = list(members.values())
    solution = maxmin_solve(
        classes,
        capacity,
        None if residual is None else [
            residual.get(link, capacity) for link in range(2 * num_nodes)
        ],
    )
    rates = [0.0] * count
    for share, flows in zip(solution.rates, groups):
        for i in flows:
            rates[i] = share
    rounds = [
        (link, share, tuple(sorted(i for c in indices for i in groups[c])))
        for link, share, indices in solution.rounds
    ]
    assert (repr(rates), repr(rounds)) == tuple(
        map(repr, _reference_solve(pairs, capacity, residual))
    )
