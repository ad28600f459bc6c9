"""The walkers, page table and cache hierarchy proven equal to the
independent oracles (tests/vm/_walker_oracle.py) over random streams of
walks and unmaps.

State is compared through a representation-free projection, so the
product may store it however it likes: the walk addresses and ``ppn``
of every translation touched, frames and pages handed out, each cache
set's ordered ``(line, stamp)`` list with the hit/miss counters, and
each page-walk cache's contents and counters.
"""

import copy

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.mem.cache import CacheHierarchy
from repro.obs import NULL_SINK, EventTrace, MetricsSink
from repro.vm.address import PAGE_1G, PAGE_2M, PAGE_4K
from repro.vm.page_table import PageTable
from repro.vm.walker import FixedLatencyWalker, PageTableWalker

from tests.vm._walker_oracle import (
    OracleCacheHierarchy,
    OracleFixedLatencyWalker,
    OraclePageTable,
    OraclePageTableWalker,
)

CORES = 3

#: CacheHierarchy keyword arguments: the default decaying hierarchy and
#: one without decay (the probes' ``decay_cycles is None`` branch).
HIERARCHIES = {
    "decay": {},
    "no-decay": {"decay_cycles": None, "llc_decay_cycles": None},
}

#: A few hot VPNs (shared upper levels, PWC and L1 reuse), VPNs past the
#: 36-bit radix range (they alias low VPNs' nodes but map their own
#: pages), a 512-page stride (leaf PTEs in distinct table frames, which
#: share one L1 set and overflow it into L2 hits), plus the whole 2**30
#: range (cold chains, PWC evictions).
_HOT = [0, 1, 511, 512, 1000, 1001, 262_144, 2**20, 2**20 + 7,
        2**36 + 1, 2**40 + 512]
_vpns = st.one_of(
    st.integers(min_value=0, max_value=2**30 - 1),
    st.sampled_from(_HOT),
    st.integers(min_value=0, max_value=15).map(lambda k: k * 512 + 3),
)
#: Two 1GB regions of one address space: 4KB chains, 2MB leaves and 1GB
#: leaves meet in the same PDPT and PD nodes.
_narrow_vpns = st.one_of(
    st.integers(min_value=0, max_value=2**19 - 1),
    st.sampled_from(_HOT[:9]),
)
_sizes = st.sampled_from([PAGE_4K, PAGE_4K, PAGE_2M, PAGE_1G])
#: Steps inside and past the caches' decay windows, and slight
#: out-of-order times as the engine issues them.
_steps = st.one_of(
    st.integers(min_value=-50, max_value=200),
    st.integers(min_value=0, max_value=20_000),
)


@st.composite
def walk_streams(draw):
    """``(ops, observed, pwc_entries)``; an op is ``("walk", core, asid,
    vpn, size, step)`` or ``("unmap", core, asid, vpn, size, 0)``."""
    narrow = draw(st.booleans())
    asids = st.just(1) if narrow else st.sampled_from([0, 1, 2])  # 0 = global
    vpns = _narrow_vpns if narrow else _vpns
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["walk", "walk", "walk", "unmap"]),
                st.integers(min_value=0, max_value=CORES - 1),
                asids, vpns, _sizes, _steps,
            ),
            min_size=1,
            max_size=80,
        )
    )
    return ops, draw(st.booleans()), draw(st.sampled_from([2, 4, 16]))


def _sink(observed):
    return MetricsSink(trace=EventTrace()) if observed else NULL_SINK


def _sink_state(sink):
    if not sink.enabled:
        return None
    return sink.registry.snapshot(), sink.trace.to_records()


def _cache_state(cache):
    """Each non-empty set's ordered ``(line, stamp)`` list, plus counters."""
    lines = sorted(
        (index, list(entries.items()))
        for index, entries in cache._sets.items()
        if entries
    )
    return lines, cache.hits, cache.misses


def _hierarchy_state(hierarchy):
    caches = hierarchy.l1 + hierarchy.l2 + [hierarchy.llc]
    return [_cache_state(cache) for cache in caches], hierarchy.dram_accesses


def _pwc_state(walker):
    return [(list(pwc._cache), pwc.hits, pwc.misses) for pwc in walker.pwcs]


def _table_state(table, touched):
    """Frames and pages handed out, then — on a copy, so the table under
    test is left alone — the walk addresses of every touched translation
    (these name every node) and its ``ppn`` via ``lookup``.  An unmapped
    translation maps afresh on the copy, so its ``ppn`` is at or past
    the frame count and cannot equal a mapped one."""
    probe = copy.deepcopy(table)
    frames, pages = probe._next_frame, probe.pages_mapped
    addresses = [list(probe.walk_addresses(*t)) for t in touched]
    allocated_by_walks = probe._next_frame - frames
    ppns = [probe.lookup(*t).ppn for t in touched]
    return frames, pages, addresses, allocated_by_walks, ppns


def _run(walker, oracle, ops, on_walk):
    touched = {}
    now = 0
    for kind, core, asid, vpn, size, step in ops:
        touched[(asid, vpn, size)] = None
        if kind == "unmap":
            walker.page_table.unmap(asid, vpn, size)
            oracle.page_table.unmap(asid, vpn, size)
            continue
        now = max(0, now + step)
        on_walk(core, asid, vpn, size, now)
    return list(touched)


#: Three rounds over 16 leaf PTEs that share one L1 set, 10 cycles
#: apart: the later rounds hit in L2, which random streams rarely reach.
L2_REUSE = (
    [("walk", 0, 1, k * 512 + 3, PAGE_4K, 10) for k in range(16)] * 3,
    False, 16,
)
#: Walk, unmap and re-walk 4KB pages beside a 2MB and a 1GB leaf of the
#: same address space (shared PDPT and PD nodes): a re-walk reuses the
#: node chain and maps one fresh data frame.
REMAP = (
    [
        ("walk", 0, 1, 1000, PAGE_4K, 5),
        ("walk", 1, 1, 1001, PAGE_2M, 5),
        ("walk", 2, 1, 1002, PAGE_1G, 5),
        ("unmap", 0, 1, 1000, PAGE_4K, 0),
        ("unmap", 0, 1, 1001, PAGE_2M, 0),
        ("walk", 0, 1, 1000, PAGE_4K, 5),
        ("walk", 0, 1, 1023, PAGE_2M, 5),
        ("walk", 1, 1, 1536, PAGE_4K, 5),
        ("unmap", 0, 1, 9999, PAGE_4K, 0),
    ],
    True, 4,
)


@settings(max_examples=160, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(walk_streams(), st.sampled_from(sorted(HIERARCHIES)))
@example(L2_REUSE, "decay")
@example(L2_REUSE, "no-decay")
@example((L2_REUSE[0], True, 4), "decay")
@example(REMAP, "decay")
@example(REMAP, "no-decay")
def test_page_table_walker_matches_oracle(stream, hierarchy):
    ops, observed, pwc_entries = stream
    options = HIERARCHIES[hierarchy]
    walker = PageTableWalker(
        PageTable(), CacheHierarchy(CORES, **options), CORES,
        pwc_entries=pwc_entries, sink=_sink(observed),
    )
    oracle = OraclePageTableWalker(
        OraclePageTable(), OracleCacheHierarchy(CORES, **options), CORES,
        pwc_entries=pwc_entries, sink=_sink(observed),
    )

    def walk(core, asid, vpn, size, now):
        before = dict(walker.level_hits)
        latency = walker.walk(core, asid, vpn, size, now)
        want = oracle.walk(core, asid, vpn, size, now)
        assert latency == want.latency
        assert type(latency) is int
        assert walker.last_pollution == want.pollution
        levels = {}
        for level in want.levels:
            levels[level] = levels.get(level, 0) + 1
        assert {
            level: hits - before[level]
            for level, hits in walker.level_hits.items()
            if hits != before[level]
        } == levels
        assert walker.level_hits == oracle.level_hits
        assert walker.walks == oracle.walks
        assert _pwc_state(walker) == _pwc_state(oracle)
        # After every walk: an LRU reordering can be undone by later
        # touches before it changes an eviction.
        assert _hierarchy_state(walker.hierarchy) == _hierarchy_state(
            oracle.hierarchy
        )

    touched = _run(walker, oracle, ops, walk)
    assert _table_state(walker.page_table, touched) == _table_state(
        oracle.page_table, touched
    )
    assert _sink_state(walker.sink) == _sink_state(oracle.sink)


@settings(max_examples=40, deadline=None)
@given(walk_streams(), st.sampled_from([10, 20, 40, 80]))
@example(REMAP, 20)
def test_fixed_latency_walker_matches_oracle(stream, fixed):
    ops, observed, _ = stream
    walker = FixedLatencyWalker(PageTable(), fixed, sink=_sink(observed))
    oracle = OracleFixedLatencyWalker(
        OraclePageTable(), fixed, sink=_sink(observed)
    )

    def walk(core, asid, vpn, size, now):
        assert walker.walk(core, asid, vpn, size, now) == oracle.walk(
            core, asid, vpn, size, now
        ).latency
        assert walker.last_pollution == 0
        assert walker.walks == oracle.walks

    touched = _run(walker, oracle, ops, walk)
    assert _table_state(walker.page_table, touched) == _table_state(
        oracle.page_table, touched
    )
    assert _sink_state(walker.sink) == _sink_state(oracle.sink)


def test_walk_cycles_is_an_alias_of_walk():
    """The tracer patches ``walk_cycles`` by name; a wrapper method
    calling ``walk`` would count every walk twice."""
    assert PageTableWalker.walk_cycles is PageTableWalker.walk
    assert FixedLatencyWalker.walk_cycles is FixedLatencyWalker.walk
