"""The int-returning walkers proven equal to the result-object oracles
(tests/vm/_walker_oracle.py) over random walk sequences."""

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.mem.cache import CacheHierarchy
from repro.obs import NULL_SINK, EventTrace, MetricsSink
from repro.vm.address import PAGE_1G, PAGE_2M, PAGE_4K
from repro.vm.page_table import PageTable
from repro.vm.walker import FixedLatencyWalker, PageTableWalker

from tests.vm._walker_oracle import (
    OracleFixedLatencyWalker,
    OraclePageTableWalker,
)

CORES = 3

#: A few hot VPNs (shared upper levels, PWC and L1 reuse), a 512-page
#: stride (leaf PTEs in distinct table frames, which share one L1 set
#: and overflow it into L2 hits), plus the whole 2**30 range (cold
#: chains, PWC evictions).
_vpns = st.one_of(
    st.integers(min_value=0, max_value=2**30 - 1),
    st.sampled_from([0, 1, 511, 512, 1000, 1001, 262_144, 2**20, 2**20 + 7]),
    st.integers(min_value=0, max_value=15).map(lambda k: k * 512 + 3),
)


@st.composite
def walk_streams(draw):
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=CORES - 1),
                st.sampled_from([0, 1, 2]),  # asid, 0 = global
                _vpns,
                st.sampled_from([PAGE_4K, PAGE_4K, PAGE_2M, PAGE_1G]),
                # Steps inside and past the caches' decay windows, and
                # slight out-of-order times as the engine issues them.
                st.one_of(
                    st.integers(min_value=-50, max_value=200),
                    st.integers(min_value=0, max_value=20_000),
                ),
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


def _hierarchy_state(hierarchy):
    caches = hierarchy.l1 + hierarchy.l2 + [hierarchy.llc]
    return (
        [(cache._sets, cache.hits, cache.misses) for cache in caches],
        hierarchy.dram_accesses,
    )


def _page_table_state(table):
    return table._nodes, table._ptes, table._next_frame, table.pages_mapped


def _times(ops):
    now = 0
    for core, asid, vpn, size, step in ops:
        now = max(0, now + step)
        yield core, asid, vpn, size, now


#: Three rounds over 16 leaf PTEs that share one L1 set, 10 cycles
#: apart: the later rounds hit in L2, which random streams rarely reach.
L2_REUSE = (
    [(0, 1, k * 512 + 3, PAGE_4K, 10) for k in range(16)] * 3, False, 16
)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(walk_streams())
@example(L2_REUSE)
@example((L2_REUSE[0], True, 4))
def test_page_table_walker_matches_oracle(stream):
    ops, observed, pwc_entries = stream
    walker = PageTableWalker(
        PageTable(), CacheHierarchy(CORES), CORES,
        pwc_entries=pwc_entries, sink=_sink(observed),
    )
    oracle = OraclePageTableWalker(
        PageTable(), CacheHierarchy(CORES), CORES,
        pwc_entries=pwc_entries, sink=_sink(observed),
    )
    for core, asid, vpn, size, now in _times(ops):
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
        assert [
            (list(pwc._cache), pwc.hits, pwc.misses) for pwc in walker.pwcs
        ] == [
            (list(pwc._cache), pwc.hits, pwc.misses) for pwc in oracle.pwcs
        ]
    assert _hierarchy_state(walker.hierarchy) == _hierarchy_state(
        oracle.hierarchy
    )
    assert _page_table_state(walker.page_table) == _page_table_state(
        oracle.page_table
    )
    assert _sink_state(walker.sink) == _sink_state(oracle.sink)


@settings(max_examples=40, deadline=None)
@given(walk_streams(), st.sampled_from([10, 20, 40, 80]))
def test_fixed_latency_walker_matches_oracle(stream, fixed):
    ops, observed, _ = stream
    walker = FixedLatencyWalker(PageTable(), fixed, sink=_sink(observed))
    oracle = OracleFixedLatencyWalker(PageTable(), fixed, sink=_sink(observed))
    for core, asid, vpn, size, now in _times(ops):
        assert walker.walk(core, asid, vpn, size, now) == oracle.walk(
            core, asid, vpn, size, now
        ).latency
        assert walker.last_pollution == 0
        assert walker.walks == oracle.walks
    assert _page_table_state(walker.page_table) == _page_table_state(
        oracle.page_table
    )
    assert _sink_state(walker.sink) == _sink_state(oracle.sink)


def test_walk_cycles_is_an_alias_of_walk():
    """The tracer patches ``walk_cycles`` by name; a wrapper method
    calling ``walk`` would count every walk twice."""
    assert PageTableWalker.walk_cycles is PageTableWalker.walk
    assert FixedLatencyWalker.walk_cycles is FixedLatencyWalker.walk
