"""Bulk invalidation (``group_by_set`` + ``invalidate_groups``) vs per-key.

Two arrays of one geometry replay the same random interleaving of
lookups, inserts, invalidations and flushes; the only difference is
that one applies each invalidation batch with per-key ``invalidate``
and the other with one bulk ``invalidate_groups`` call.  After every
step both must agree on per-set residents (in ``members()`` order),
counters, eviction victims and ARC/2Q ghost history (so later ghost
hits agree too), whether a set is untouched (``None``), emptied or live.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.tlb.policies import POLICY_NAMES
from repro.tlb.set_assoc import SetAssociativeTLB
from repro.vm.address import PAGE_2M, PAGE_4K

# Few pages over few sets: batches repeat keys, hit resident and ghost
# entries, and leave some sets untouched (still lazy) or emptied.
_KEY = st.tuples(
    st.sampled_from([1, 2]),
    st.sampled_from([PAGE_4K, PAGE_2M]),
    st.integers(min_value=0, max_value=7),
)
_OP = st.one_of(
    st.tuples(st.just("lookup"), _KEY),
    st.tuples(st.just("insert"), _KEY),
    # Overflow one set (insert, re-reference, insert more) so ARC/2Q
    # build the ghost history the invalidations must forget.
    st.tuples(st.just("fill"), st.integers(min_value=0, max_value=1)),
    st.tuples(st.just("invalidate"), st.lists(_KEY, max_size=12)),
    # Invalidate every resident of one set, leaving only ghost history,
    # or every ghost of one set.
    st.tuples(st.just("drain"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("forget"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("flush"), st.none()),
)
_OPS = st.lists(_OP, min_size=1, max_size=60)


_GHOST_LISTS = ("_b1", "_b2", "_a1out")  # ARC's B1/B2, 2Q's A1out


def _ghosts(cache_set):
    return [
        list(getattr(cache_set, name))
        for name in _GHOST_LISTS
        if hasattr(cache_set, name)
    ]


def _set_state(cache_set):
    if cache_set is None:
        return None
    state = (list(cache_set.members()), _ghosts(cache_set),
             getattr(cache_set, "_p", None))
    # A lazy set the per-key path materialised empty equals a lazy set
    # the bulk path left untouched: neither holds state.
    if not state[0] and not any(state[1]) and not state[2]:
        return None
    return state


def _state(array):
    sets = [_set_state(cache_set) for cache_set in array._sets]
    counters = (array.hits, array.misses, array.insertions, array.evictions)
    return sets, counters


@pytest.mark.parametrize("policy", POLICY_NAMES)
@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_bulk_invalidate_matches_per_key(policy, ops):
    # Two 4-way sets: few keys per set, and "fill" overflows one.
    per_key = SetAssociativeTLB(8, 4, policy=policy)
    bulk = SetAssociativeTLB(8, 4, policy=policy)
    for op, arg in ops:
        if op == "fill":
            keys = [(1, PAGE_4K, arg + 2 * j) for j in range(8)]
            for array in (per_key, bulk):
                for key in keys[:5]:
                    array.insert(*key)
                for key in keys[:5]:
                    array.lookup(*key)
                for key in keys[5:]:
                    array.insert(*key)
        elif op == "lookup":
            assert per_key.lookup(*arg) == bulk.lookup(*arg)
        elif op == "insert":
            # Equal victims also prove ARC/2Q ghost hits agree: a ghost
            # hit changes which resident the next admit evicts.
            assert per_key.insert(*arg) == bulk.insert(*arg)
        elif op in ("invalidate", "drain", "forget"):
            if op != "invalidate":
                cache_set = per_key._sets[arg % per_key.num_sets]
                if cache_set is None:
                    arg = []
                elif op == "drain":
                    arg = list(cache_set.members())
                else:
                    arg = [key for keys in _ghosts(cache_set) for key in keys]
            removed = sum(per_key.invalidate(*key) for key in arg)
            assert bulk.invalidate_groups(bulk.group_by_set(arg)) == removed
        else:
            assert per_key.flush() == bulk.flush()
        assert _state(per_key) == _state(bulk)


@pytest.mark.parametrize("emptied", [False, True], ids=["live", "ghost-only"])
@pytest.mark.parametrize("policy", ["arc", "twoq"])
def test_bulk_invalidate_forgets_ghost_history(policy, emptied):
    """A shot-down ghost must not count as a ghost hit on reinstall.

    ``ghost-only`` first invalidates every resident, so the set holds
    nothing but history: it has no residents, yet must not be skipped.
    """
    keys = [(1, PAGE_4K, 16 * i) for i in range(6)]  # all in set 0
    ghost = keys[0]
    states = []
    for bulk in (False, True):
        array = SetAssociativeTLB(16, 4, policy=policy)
        for key in keys[:4]:
            array.insert(*key)
        for key in keys[:4]:
            array.lookup(*key)
        for key in keys[4:]:
            array.insert(*key)  # demotes ``ghost`` to ghost history
        assert not array.probe(*ghost)
        assert any(ghost in ghosts for ghosts in _ghosts(array._sets[0]))
        batches = [[ghost]]
        if emptied:
            batches.insert(0, list(array.iter_keys()))
        for batch in batches:
            if bulk:
                removed = array.invalidate_groups(array.group_by_set(batch))
            else:
                removed = sum(array.invalidate(*key) for key in batch)
            assert removed == (0 if batch == [ghost] else len(batch))
        assert array.occupancy == (0 if emptied else 4)
        assert not any(ghost in ghosts for ghosts in _ghosts(array._sets[0]))
        array.insert(*ghost)
        states.append(_state(array))
    assert states[0] == states[1]


def test_bulk_invalidate_skips_stateless_sets_without_materialising():
    array = SetAssociativeTLB(16, 4)
    array.insert(1, PAGE_4K, 0)
    keys = [(1, PAGE_4K, pn) for pn in range(8)]
    assert array.invalidate_groups(array.group_by_set(keys)) == 1
    assert array._sets[1:] == [None] * 3
    assert array.occupancy == 0


def test_group_by_set_reuses_across_same_geometry():
    keys = [(1, PAGE_4K, pn) for pn in (0, 5, 4, 9, 0)]
    first = SetAssociativeTLB(16, 4)
    second = SetAssociativeTLB(16, 4)
    groups = first.group_by_set(keys)
    assert groups == {
        0: [(1, PAGE_4K, 0), (1, PAGE_4K, 4), (1, PAGE_4K, 0)],
        1: [(1, PAGE_4K, 5), (1, PAGE_4K, 9)],
    }
    for key in keys[:4]:
        second.insert(*key)
    assert second.invalidate_groups(groups) == 4
    assert second.occupancy == 0
