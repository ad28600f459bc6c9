"""Independent oracles for the page walkers, the page table and the
cache hierarchy they drive.

Verbatim copies (renamed) of the walk path as it stood before the page
table moved to an integer-indexed chain index:

* :class:`OraclePageTable` — the tuple-path radix table with its
  per-translation ``walk_info`` memo and frozen ``PTE`` objects.
* :class:`OracleCache` / :class:`OracleCacheHierarchy` — the
  set-associative caches and the ``_probe``-based ``access``.
* :class:`OraclePageTableWalker` / :class:`OracleFixedLatencyWalker` —
  the walkers from when a walk returned a ``WalkResult`` (latency, PTE,
  the level that satisfied each reference, the pollution tally),
  together with the per-core page-walk cache they drive.

Nothing here imports the product's page table, caches or walkers, so a
bug in any of them shows as a divergence.  The walkers under test return
only the latency and leave the pollution in ``last_pollution``; every
side effect (PWC contents and counters, cache-hierarchy state, page
table frames, ``level_hits``, ``walks``, sink events and histograms)
must match these copies exactly.
"""

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs import NULL_SINK
from repro.vm.address import (
    PAGE_1G,
    PAGE_2M,
    PAGE_4K,
    PAGE_SHIFT_4K,
    translation_vpn,
)

FRAME_BYTES = 4096
ENTRY_BYTES = 8
FANOUT = 512

#: Radix levels from root to leaf; a 2MB page terminates at the PD
#: (3 node accesses) and a 1GB page at the PDPT (2 node accesses).
LEVELS = ("pml4", "pdpt", "pd", "pt")
_LEAF_DEPTH = {PAGE_4K: 4, PAGE_2M: 3, PAGE_1G: 2}


@dataclass(frozen=True)
class OraclePTE:
    """A translation: physical page number at the mapping's granularity."""

    ppn: int
    page_size: int
    asid: int


class OraclePageTable:
    """Radix page tables for all address spaces, plus frame allocation."""

    def __init__(self) -> None:
        # (asid, level_depth, node_index_path) -> physical frame base.
        self._nodes: Dict[Tuple[int, int, Tuple[int, ...]], int] = {}
        self._ptes: Dict[Tuple[int, int, int], OraclePTE] = {}
        # (asid, page_size, page_number) -> (walk addresses, PTE); see
        # walk_info.  Invalidated by unmap.
        self._walk_info: Dict[
            Tuple[int, int, int], Tuple[Tuple[int, ...], OraclePTE]
        ] = {}
        self._next_frame = 1  # frame 0 reserved
        self.nodes_allocated = 0
        self.pages_mapped = 0

    def _allocate_frame(self) -> int:
        frame = self._next_frame * FRAME_BYTES
        self._next_frame += 1
        return frame

    def _node_frame(self, asid: int, depth: int, path: Tuple[int, ...]) -> int:
        key = (asid, depth, path)
        frame = self._nodes.get(key)
        if frame is None:
            frame = self._nodes[key] = self._allocate_frame()
            self.nodes_allocated += 1
        return frame

    @staticmethod
    def _indices(vpn: int) -> Tuple[int, int, int, int]:
        """Radix indices (PML4, PDPT, PD, PT) for a 4KB VPN."""
        return (
            (vpn >> 27) & (FANOUT - 1),
            (vpn >> 18) & (FANOUT - 1),
            (vpn >> 9) & (FANOUT - 1),
            vpn & (FANOUT - 1),
        )

    def map_page(self, asid: int, vpn: int, page_size: int) -> OraclePTE:
        """Ensure the translation covering 4KB VPN ``vpn`` exists."""
        page_number = translation_vpn(vpn, page_size)
        key = (asid, page_size, page_number)
        pte = self._ptes.get(key)
        if pte is None:
            ppn = self._allocate_frame() >> PAGE_SHIFT_4K
            pte = self._ptes[key] = OraclePTE(ppn=ppn, page_size=page_size, asid=asid)
            self.pages_mapped += 1
            # Materialise the node chain so walk addresses are stable.
            self.walk_addresses(asid, vpn, page_size)
        return pte

    def lookup(self, asid: int, vpn: int, page_size: int) -> OraclePTE:
        """Return the PTE covering ``vpn`` (mapping it on first touch)."""
        return self.map_page(asid, vpn, page_size)

    def walk_addresses(self, asid: int, vpn: int, page_size: int) -> List[int]:
        """Physical addresses of the page-table entries a walk touches.

        One address per radix level down to the leaf: 4 for 4KB
        mappings, 3 for 2MB, 2 for 1GB.
        """
        depth = _LEAF_DEPTH[page_size]
        indices = self._indices(vpn)
        addresses = []
        for level in range(depth):
            path = indices[:level]  # path identifies the node
            frame = self._node_frame(asid, level, path)
            addresses.append(frame + indices[level] * ENTRY_BYTES)
        return addresses

    def walk_info(self, asid: int, vpn: int, page_size: int) -> Tuple[Tuple[int, ...], OraclePTE]:
        """Walk addresses plus the PTE, memoised per translation.

        Both are pure functions of ``(asid, page_size, page_number)``
        once the mapping exists: the node chain is stable after
        materialisation, and only the radix indices above the leaf
        depth — all determined by the page number — feed the address
        computation.  The first touch performs exactly the walker's
        historical call sequence (``walk_addresses`` then ``map_page``),
        so frame-allocation order — and with it every synthetic
        physical address — is unchanged.
        """
        key = (asid, page_size, translation_vpn(vpn, page_size))
        info = self._walk_info.get(key)
        if info is None:
            addresses = tuple(self.walk_addresses(asid, vpn, page_size))
            pte = self._ptes.get(key)
            if pte is None:
                # map_page's body minus its node materialisation — the
                # walk_addresses call above already allocated the node
                # chain, so allocation order (nodes, then data frame)
                # matches the historical call sequence exactly.
                ppn = self._allocate_frame() >> PAGE_SHIFT_4K
                pte = self._ptes[key] = OraclePTE(
                    ppn=ppn, page_size=page_size, asid=asid
                )
                self.pages_mapped += 1
            info = self._walk_info[key] = (addresses, pte)
        return info

    def unmap(self, asid: int, vpn: int, page_size: int) -> None:
        """Drop a translation (page remapping / demotion)."""
        key = (asid, page_size, translation_vpn(vpn, page_size))
        self._ptes.pop(key, None)
        self._walk_info.pop(key, None)


LINE_BYTES = 64


class OracleCache:
    """One level of set-associative cache with LRU and optional decay."""

    def __init__(
        self,
        name: str,
        size_bytes: int,
        ways: int,
        decay_cycles: Optional[int] = None,
    ) -> None:
        num_lines = size_bytes // LINE_BYTES
        if num_lines < ways or num_lines % ways:
            raise ValueError(f"{name}: {size_bytes}B / {ways} ways is not valid")
        self.name = name
        self.ways = ways
        self.num_sets = num_lines // ways
        self.decay_cycles = decay_cycles
        # One OrderedDict per set: line address -> last-touch cycle.
        self._sets: Dict[int, "OrderedDict[int, int]"] = {}
        self.hits = 0
        self.misses = 0

    def _set_for(self, line_addr: int) -> "OrderedDict[int, int]":
        index = line_addr % self.num_sets
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = OrderedDict()
        return cache_set

    def lookup(self, addr: int, now: int) -> bool:
        """Probe (and on hit, touch) the line holding ``addr``."""
        line_addr = addr // LINE_BYTES
        cache_set = self._set_for(line_addr)
        stamp = cache_set.get(line_addr)
        if stamp is not None:
            if self.decay_cycles is not None and now - stamp > self.decay_cycles:
                del cache_set[line_addr]  # decayed: evicted by demand traffic
            else:
                cache_set.move_to_end(line_addr)
                cache_set[line_addr] = now
                self.hits += 1
                return True
        self.misses += 1
        return False

    def fill(self, addr: int, now: int) -> None:
        """Install the line holding ``addr``, evicting LRU if needed."""
        line_addr = addr // LINE_BYTES
        cache_set = self._set_for(line_addr)
        if line_addr not in cache_set and len(cache_set) >= self.ways:
            cache_set.popitem(last=False)
        cache_set[line_addr] = now
        cache_set.move_to_end(line_addr)

    def invalidate_all(self) -> None:
        self._sets.clear()


@dataclass(frozen=True)
class OracleCacheLatencies:
    """Access latencies of the Haswell-like hierarchy (§IV) in cycles."""

    l1: int = 4
    l2: int = 12
    llc: int = 50
    dram: int = 300


class OracleCacheHierarchy:
    """Per-core L1/L2 backed by a shared LLC, for walk references.

    ``access`` returns ``(level_name, latency_cycles)`` for the level
    that satisfied the reference and fills all levels above it.
    """

    def __init__(
        self,
        num_cores: int,
        latencies: OracleCacheLatencies = OracleCacheLatencies(),
        l1_bytes: int = 32 * 1024,
        l2_bytes: int = 256 * 1024,
        llc_bytes_per_core: int = 8 * 1024 * 1024,
        decay_cycles: Optional[int] = 1_200,
        llc_decay_cycles: Optional[int] = 14_000,
    ) -> None:
        self.latencies = latencies
        self.l1 = [
            OracleCache(f"l1[{core}]", l1_bytes, 8, decay_cycles)
            for core in range(num_cores)
        ]
        self.l2 = [
            OracleCache(f"l2[{core}]", l2_bytes, 8, decay_cycles)
            for core in range(num_cores)
        ]
        self.llc = OracleCache("llc", llc_bytes_per_core * num_cores, 16, llc_decay_cycles)
        self.dram_accesses = 0

    @staticmethod
    def _probe(cache: OracleCache, line: int, now: int):
        """Inlined Cache.lookup on a precomputed line address.

        Returns the cache set on a miss (for the fill below — a missed
        line is guaranteed absent, decayed entries having been deleted)
        or ``None`` on a hit.  Counter/decay/LRU semantics match
        ``Cache.lookup`` byte for byte.
        """
        sets = cache._sets
        index = line % cache.num_sets
        cache_set = sets.get(index)
        if cache_set is None:
            cache_set = sets[index] = OrderedDict()
        stamp = cache_set.get(line)
        if stamp is not None:
            decay = cache.decay_cycles
            if decay is not None and now - stamp > decay:
                del cache_set[line]  # decayed: evicted by demand traffic
            else:
                cache_set.move_to_end(line)
                cache_set[line] = now
                cache.hits += 1
                return None
        cache.misses += 1
        return cache_set

    def access(self, core: int, addr: int, now: int) -> tuple:
        # Chained Cache.lookup/Cache.fill calls, inlined via _probe:
        # walk traffic makes this the hottest simulator loop after the
        # L2-TLB transaction, and the open-coded form computes the line
        # address once and skips fill()'s membership test (a missed
        # line is absent by _probe's contract, so a fill is a plain
        # append with LRU eviction on a full set).
        line = addr // LINE_BYTES
        lat = self.latencies
        probe = self._probe
        l1 = self.l1[core]
        set1 = probe(l1, line, now)
        if set1 is None:
            return "l1", lat.l1
        l2 = self.l2[core]
        set2 = probe(l2, line, now)
        if set2 is None:
            if len(set1) >= l1.ways:
                set1.popitem(last=False)
            set1[line] = now
            return "l2", lat.l2
        llc = self.llc
        set3 = probe(llc, line, now)
        if set3 is None:
            level = "llc"
            cycles = lat.llc
        else:
            self.dram_accesses += 1
            if len(set3) >= llc.ways:
                set3.popitem(last=False)
            set3[line] = now
            level = "dram"
            cycles = lat.dram
        if len(set2) >= l2.ways:
            set2.popitem(last=False)
        set2[line] = now
        if len(set1) >= l1.ways:
            set1.popitem(last=False)
        set1[line] = now
        return level, cycles


@dataclass
class OracleWalkResult:
    """Outcome of one page-table walk."""

    latency: int
    pte: OraclePTE
    levels: Tuple[str, ...] = ()
    #: References that missed the walking core's L1 (installed new lines
    #: there) — a proxy for how much the walk polluted that core's cache.
    pollution: int = 0


class OraclePageWalkCache:
    """Per-core cache of upper-level page-table entries (1-cycle hit)."""

    def __init__(self, entries: int = 32) -> None:
        self.entries = entries
        self._cache: "OrderedDict[int, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, addr: int) -> bool:
        if addr in self._cache:
            self._cache.move_to_end(addr)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, addr: int) -> None:
        if addr not in self._cache and len(self._cache) >= self.entries:
            self._cache.popitem(last=False)
        self._cache[addr] = None


class OraclePageTableWalker:
    """Variable-latency walker driven by the cache hierarchy."""

    PWC_HIT_CYCLES = 1

    def __init__(
        self,
        page_table: OraclePageTable,
        hierarchy: OracleCacheHierarchy,
        num_cores: int,
        pwc_entries: int = 16,
        sink=NULL_SINK,
    ) -> None:
        self.page_table = page_table
        self.hierarchy = hierarchy
        self.pwcs = [OraclePageWalkCache(pwc_entries) for _ in range(num_cores)]
        self.walks = 0
        self.sink = sink
        self.level_hits: Dict[str, int] = {
            "pwc": 0, "l1": 0, "l2": 0, "llc": 0, "dram": 0,
        }

    def walk(
        self, core: int, asid: int, vpn: int, page_size: int, now: int
    ) -> OracleWalkResult:
        """Perform a serial walk at ``core``; returns latency and the PTE."""
        addresses, pte = self.page_table.walk_info(asid, vpn, page_size)
        pwc = self.pwcs[core]
        level_hits = self.level_hits
        access = self.hierarchy.access
        latency = 0
        pollution = 0
        levels = []
        last = len(addresses) - 1
        for depth, addr in enumerate(addresses):
            # Upper levels can hit the PWC; the leaf PTE never does.
            if depth < last and pwc.lookup(addr):
                latency += self.PWC_HIT_CYCLES
                levels.append("pwc")
                level_hits["pwc"] += 1
                continue
            level, cycles = access(core, addr, now + latency)
            latency += cycles
            levels.append(level)
            level_hits[level] += 1
            if level != "l1":
                pollution += 1
            if depth < last:
                pwc.fill(addr)
        self.walks += 1
        if self.sink.enabled:
            self.sink.observe("walk.latency", latency)
            self.sink.event(now, "walk_begin", core=core, vpn=vpn)
            self.sink.event(
                now + latency, "walk_end", core=core, latency=latency
            )
        return OracleWalkResult(
            latency=latency, pte=pte, levels=tuple(levels), pollution=pollution
        )


class OracleFixedLatencyWalker:
    """Walker with a fixed latency (Table III's fixed-10/20/40/80)."""

    def __init__(self, page_table: OraclePageTable, latency: int, sink=NULL_SINK) -> None:
        if latency <= 0:
            raise ValueError("walk latency must be positive")
        self.page_table = page_table
        self.latency = latency
        self.walks = 0
        self.sink = sink

    def walk(
        self, core: int, asid: int, vpn: int, page_size: int, now: int
    ) -> OracleWalkResult:
        self.walks += 1
        pte = self.page_table.lookup(asid, vpn, page_size)
        self.sink.observe("walk.latency", self.latency)
        self.sink.event(now, "walk_begin", core=core, vpn=vpn)
        self.sink.event(
            now + self.latency, "walk_end", core=core, latency=self.latency
        )
        return OracleWalkResult(latency=self.latency, pte=pte, levels=("fixed",))
