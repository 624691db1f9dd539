"""Epoch controller: bounds, barriers, stop conditions, accounting."""

from __future__ import annotations

from typing import Optional

from repro.des.epoch import EpochController
from repro.des.kernel import Kernel


class _KernelShard:
    """Minimal shard: a kernel plus a log of executed event labels."""

    def __init__(self, events: list[tuple[float, str]]) -> None:
        self.kernel = Kernel()
        self.fired: list[str] = []
        self._pending: list[str] = []
        for time, label in events:
            self.kernel.schedule_at(time, self._note, label)

    def _note(self, label: str) -> None:
        self._pending.append(label)

    def next_completion_bound(self) -> Optional[float]:
        return self.kernel.next_event_time()

    def run_until(self, bound: float) -> list[str]:
        self.kernel.run(until=bound)
        report, self._pending = self._pending, []
        self.fired.extend(report)
        return report


def test_epochs_follow_global_event_order():
    a = _KernelShard([(1.0, "a1"), (4.0, "a4")])
    b = _KernelShard([(2.0, "b2"), (3.0, "b3")])
    barriers = []
    controller = EpochController([a, b])
    controller.run(lambda now, reports: barriers.append((now, reports)) or True)
    assert [t for t, _ in barriers] == [1.0, 2.0, 3.0, 4.0]
    # Every shard's clock reaches every bound, firing only its own events.
    assert barriers[0][1] == [["a1"], []]
    assert barriers[1][1] == [[], ["b2"]]
    assert a.kernel.now == 4.0 and b.kernel.now == 4.0
    assert controller.stats.epochs == 4


def test_simultaneous_cross_shard_events_share_a_barrier():
    a = _KernelShard([(2.0, "a")])
    b = _KernelShard([(2.0, "b")])
    barriers = []
    EpochController([a, b]).run(
        lambda now, reports: barriers.append((now, reports)) or True
    )
    assert barriers == [(2.0, [["a"], ["b"]])]


def test_barrier_can_stop_early():
    shard = _KernelShard([(1.0, "x"), (2.0, "y")])
    seen = []
    EpochController([shard]).run(lambda now, reports: seen.append(now) and False)
    assert seen == [1.0]
    assert shard.kernel.pending_events == 1  # y never ran


def test_idle_shards_end_the_run():
    controller = EpochController([_KernelShard([])])
    calls = []
    controller.run(lambda now, reports: calls.append(now) or True)
    assert calls == []
    assert controller.stats.epochs == 0


def test_barrier_scheduled_events_extend_the_run():
    shard = _KernelShard([(1.0, "first")])
    extended = []

    def on_barrier(now, reports):
        if now == 1.0:
            shard.kernel.schedule_at(5.0, shard._note, "late")
        extended.append(now)
        return True

    EpochController([shard]).run(on_barrier)
    assert extended == [1.0, 5.0]
    assert shard.fired == ["first", "late"]
