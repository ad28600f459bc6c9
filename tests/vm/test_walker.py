"""Page-walk latency model and walker queueing."""

import pytest

from repro.mem.cache import CacheHierarchy
from repro.vm.address import PAGE_2M, PAGE_4K
from repro.vm.page_table import PageTable
from repro.vm.walker import FixedLatencyWalker, PageTableWalker, WalkerQueue


def make_walker(cores=2):
    table = PageTable()
    return PageTableWalker(table, CacheHierarchy(cores), cores)


def walk_levels(walker, *args, **kwargs):
    """``(latency, {level: references})`` of one walk, from the
    walker's ``level_hits`` counters."""
    before = dict(walker.level_hits)
    latency = walker.walk(*args, **kwargs)
    levels = {
        level: hits - before[level]
        for level, hits in walker.level_hits.items()
        if hits != before[level]
    }
    return latency, levels


def test_first_walk_misses_everywhere():
    walker = make_walker()
    latency, levels = walk_levels(walker, 0, 1, 1000, PAGE_4K, now=0)
    assert levels.get("dram", 0) >= 1
    assert latency >= 250  # at least one DRAM trip


def test_repeat_walk_is_much_cheaper():
    walker = make_walker()
    cold = walker.walk(0, 1, 1000, PAGE_4K, now=0)
    warm = walker.walk(0, 1, 1000, PAGE_4K, now=10)
    assert warm < cold
    assert warm <= 20  # PWC + L1 hits


def test_neighbour_walk_reuses_upper_levels():
    walker = make_walker()
    walker.walk(0, 1, 1000, PAGE_4K, now=0)
    _, levels = walk_levels(walker, 0, 1, 1001, PAGE_4K, now=10)
    # All three upper levels hit the PWC (the leaf never does); only
    # the leaf can go far.
    assert levels["pwc"] == 3
    assert sum(levels.values()) == 4


def test_2m_walk_touches_three_levels():
    walker = make_walker()
    _, levels = walk_levels(walker, 0, 1, 512 * 5, PAGE_2M, now=0)
    assert sum(levels.values()) == 3


def test_walks_counted():
    walker = make_walker()
    walker.walk(0, 1, 1, PAGE_4K, 0)
    walker.walk(0, 1, 2, PAGE_4K, 0)
    assert walker.walks == 2


def test_pwc_is_per_core():
    walker = make_walker(cores=2)
    walker.walk(0, 1, 1000, PAGE_4K, now=0)
    _, levels = walk_levels(walker, 1, 1, 1001, PAGE_4K, now=10)
    assert "pwc" not in levels  # core 1's PWC is cold


def test_pollution_counts_non_l1_fills():
    walker = make_walker()
    walker.walk(0, 1, 1000, PAGE_4K, now=0)
    assert walker.last_pollution >= 1
    walker.walk(0, 1, 1000, PAGE_4K, now=5)
    assert walker.last_pollution == 0


def test_steady_state_walk_latency_band():
    """After warmup, distinct-page walks should cost ~30-150 cycles
    (LLC-class references dominating), not always-DRAM."""
    walker = make_walker()
    for vpn in range(0, 2048, 8):
        walker.walk(0, 1, vpn, PAGE_4K, now=vpn * 10)
    lat = [
        walker.walk(0, 1, vpn, PAGE_4K, now=21000 + vpn)
        for vpn in range(0, 2048, 64)
    ]
    mean = sum(lat) / len(lat)
    assert 10 <= mean <= 300  # bounded by one leaf DRAM trip + overhead


def test_fixed_walker_constant():
    walker = FixedLatencyWalker(PageTable(), 40)
    for vpn in (1, 100, 999):
        assert walker.walk(0, 1, vpn, PAGE_4K, 0) == 40
    assert walker.walks == 3
    assert walker.last_pollution == 0


def test_fixed_walker_rejects_nonpositive():
    with pytest.raises(ValueError):
        FixedLatencyWalker(PageTable(), 0)


def test_queue_idle_walk_starts_immediately():
    queue = WalkerQueue()
    assert queue.admit(100, 30) == 130
    assert queue.queued_walks == 0


def test_queue_two_walkers_run_concurrently():
    queue = WalkerQueue(num_walkers=2)
    assert queue.admit(0, 50) == 50
    assert queue.admit(0, 50) == 50  # second walker
    assert queue.queued_walks == 0


def test_queue_third_walk_waits():
    queue = WalkerQueue(num_walkers=2)
    queue.admit(0, 50)
    queue.admit(0, 50)
    done = queue.admit(0, 50)
    assert done == 100
    assert queue.queued_walks == 1
    assert queue.total_queue_cycles == 50


def test_queue_rejects_zero_walkers():
    with pytest.raises(ValueError):
        WalkerQueue(num_walkers=0)


def test_queue_busy_until_tracks_latest():
    queue = WalkerQueue(num_walkers=2)
    queue.admit(0, 10)
    queue.admit(0, 80)
    assert queue.busy_until == 80
