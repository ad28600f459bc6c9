"""Set-associative TLB array with pluggable replacement, modulo indexed.

Matches the paper's assumptions (§III-E): lower-order virtual page
number bits choose the set (modulo indexing), LRU replacement by
default, and entries tagged with a context ID (ASID) plus a valid bit.
Entries are keyed ``(asid, page_size, page_number)`` so 4KB and 2MB
translations can coexist in one array, as in Haswell's unified L2 TLB.

``index_shift`` lets a distributed shared TLB skip the bits already
consumed by slice selection, so consecutive pages spread across both
slices and sets without aliasing.

``policy`` names the per-set replacement state machine
(:mod:`repro.tlb.policies`): ``lru`` (default, byte-identical to the
historical hardcoded behaviour), ``arc``, or ``twoq``.  The engine's
batched fast path inlines LRU OrderedDict operations on L1 arrays, so
L1 TLBs must stay on the default policy; L2 structures may run any.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.tlb.policies import POLICIES, LruState, make_policy

Key = Tuple[int, int, int]  # (asid, page_size, page_number)

#: Keys bucketed by set index (see :meth:`SetAssociativeTLB.group_by_set`).
SetGroups = Dict[int, List[Key]]


class SetAssociativeTLB:
    """One TLB SRAM array."""

    def __init__(
        self,
        entries: int,
        ways: int,
        name: str = "tlb",
        index_shift: int = 0,
        policy: str = "lru",
        lazy_sets: bool = False,
    ) -> None:
        if entries <= 0 or ways <= 0:
            raise ValueError("entries and ways must be positive")
        if ways > entries:
            # Degenerate but legal: a fully-associative structure smaller
            # than its nominal way count (e.g. the 4-entry 1GB L1 TLB).
            ways = entries
        if entries % ways:
            raise ValueError(f"{name}: {entries} entries not divisible by {ways} ways")
        self.name = name
        self.entries = entries
        self.ways = ways
        self.num_sets = entries // ways
        self.index_shift = index_shift
        self.policy = policy
        # Hoist the registry dispatch out of the per-set loop: a
        # 1024-tile system builds ~10^5 sets, and the mega-mesh configs
        # pay this at every System construction.
        state_cls = POLICIES.get(policy)
        if state_cls is None:
            make_policy(policy, ways)  # raises the canonical KeyError
        self._state_cls = state_cls
        # ``lazy_sets`` defers per-set state construction until a set is
        # first indexed.  A fresh policy state observes nothing until
        # touched, so laziness is invisible to replacement behaviour;
        # aggregate views below simply skip unmaterialised sets, and
        # code that indexes ``_sets`` directly treats ``None`` as an
        # empty set.  The mega-mesh L2 slices and L1 arrays (10^5+
        # sets, mostly cold at 1024 tiles) opt in.
        if lazy_sets:
            self._sets = [None] * self.num_sets
        else:
            self._sets = [state_cls(ways) for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        #: QoS way-partitioning (the paper's future-work interference
        #: fix): when set, no ASID may occupy more than this many ways
        #: of any set — its own most-evictable entry is evicted instead
        #: of another context's.  None disables partitioning.
        self.way_quota: Optional[int] = None

    def _set_for(self, page_number: int):
        index = (page_number >> self.index_shift) % self.num_sets
        cache_set = self._sets[index]
        if cache_set is None:
            cache_set = self._sets[index] = self._state_cls(self.ways)
        return cache_set

    def lookup(self, asid: int, page_size: int, page_number: int) -> bool:
        """Probe the array; hits refresh replacement state."""
        cache_set = self._set_for(page_number)
        key = (asid, page_size, page_number)
        if key in cache_set:
            cache_set.touch(key)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def probe(self, asid: int, page_size: int, page_number: int) -> bool:
        """Check presence without perturbing replacement state/counters.

        Policy states expose only *resident* membership through ``in``
        (never ghost history), so a probe can neither refresh recency
        nor leak an observation into ARC/2Q adaptation.
        """
        return (asid, page_size, page_number) in self._set_for(page_number)

    def insert(self, asid: int, page_size: int, page_number: int) -> Optional[Key]:
        """Install a translation; returns the evicted key, if any.

        Reinstalling a resident key is a refresh, not a replacement
        decision.  With a QoS way quota, an over-quota ASID evicts its
        own most-evictable entry — even when the set itself still has
        free ways — before the policy is consulted for capacity.
        """
        cache_set = self._set_for(page_number)
        key = (asid, page_size, page_number)
        evicted = None
        if key in cache_set:
            cache_set.touch(key)
        else:
            quota = self.way_quota
            if quota is not None:
                own = [k for k in cache_set.members() if k[0] == asid]
                if len(own) >= quota:
                    evicted = own[0]  # the ASID's own most-evictable entry
                    cache_set.remove(evicted)
                    self.evictions += 1
            spilled = cache_set.admit(key)
            if spilled is not None:
                evicted = spilled
                self.evictions += 1
        self.insertions += 1
        return evicted

    def invalidate(self, asid: int, page_size: int, page_number: int) -> bool:
        """Shoot down one translation; True if it was present.

        Also drops any ghost/history state the policy kept for the key
        — a remapped translation must not count as a ghost hit later.
        """
        return self._set_for(page_number).remove((asid, page_size, page_number))

    def group_by_set(self, keys: Iterable[Key]) -> SetGroups:
        """Bucket ``keys`` by set index for :meth:`invalidate_groups`.

        The grouping depends only on ``(index_shift, num_sets)``, so one
        grouping serves every array of the same geometry — e.g. all
        cores' L1s, or all private L2s, during one shootdown.
        """
        shift = self.index_shift
        num_sets = self.num_sets
        groups: SetGroups = {}
        for key in keys:
            groups.setdefault((key[2] >> shift) % num_sets, []).append(key)
        return groups

    def invalidate_groups(self, groups: SetGroups) -> int:
        """Bulk :meth:`invalidate`; returns how many keys were resident.

        Same end state as invalidating each key in turn, but sets that
        hold no state are skipped without being materialised: a lazy
        (``None``) set, or an empty LRU set.  ARC/2Q sets always go
        through ``remove()`` so ghost history is forgotten even when no
        key is resident.
        """
        skip_empty = self._state_cls is LruState
        removed = 0
        for index, group in groups.items():
            cache_set = self._sets[index]
            if cache_set is None or (skip_empty and not cache_set):
                continue
            for key in group:
                removed += cache_set.remove(key)
        return removed

    def invalidate_asid(self, asid: int) -> int:
        """Drop every translation belonging to ``asid`` (context teardown)."""
        return sum(
            cache_set.purge_asid(asid)
            for cache_set in self._sets
            if cache_set is not None
        )

    def flush(self) -> int:
        """Drop everything (full-TLB flush on context switch, §V storms)."""
        dropped = 0
        for cache_set in self._sets:
            if cache_set is not None:
                dropped += len(cache_set)
                cache_set.clear()
        return dropped

    @property
    def occupancy(self) -> int:
        return sum(
            len(cache_set) for cache_set in self._sets if cache_set is not None
        )

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def iter_keys(self) -> Iterator[Key]:
        for cache_set in self._sets:
            if cache_set is not None:
                yield from cache_set.members()

    def reset_stats(self) -> None:
        self.hits = self.misses = self.insertions = self.evictions = 0
