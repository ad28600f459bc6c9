"""Page-table walkers: variable (cache-hierarchy) and fixed latency.

On an L2 TLB miss a hardware walker performs a serial pointer chase
through the radix table; each reference is satisfied wherever the entry
happens to sit in the cache hierarchy.  The paper reports typical walk
latencies of 20-40 cycles on real systems, with 70-87% of walks
touching the LLC or memory (§V Energy).  Table III additionally studies
fixed walk latencies of 10/20/40/80 cycles.

A small page-walk cache (PWC) holds upper-level entries (PML4/PDPT/PD),
as on real x86 cores [MICRO'13 "Large-reach MMU caches"]; it makes the
leaf PTE reference dominate walk latency, as observed in practice.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict

from repro.mem.cache import CacheHierarchy
from repro.obs import NULL_SINK
from repro.vm.page_table import PageTable


class _PageWalkCache:
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

    def invalidate_all(self) -> None:
        self._cache.clear()


class PageTableWalker:
    """Variable-latency walker driven by the cache hierarchy."""

    PWC_HIT_CYCLES = 1

    def __init__(
        self,
        page_table: PageTable,
        hierarchy: CacheHierarchy,
        num_cores: int,
        pwc_entries: int = 16,
        sink=NULL_SINK,
    ) -> None:
        self.page_table = page_table
        self.hierarchy = hierarchy
        self.pwcs = [_PageWalkCache(pwc_entries) for _ in range(num_cores)]
        self.walks = 0
        #: Non-L1 references of the latest walk (see :meth:`walk`).
        self.last_pollution = 0
        self.sink = sink
        self.level_hits: Dict[str, int] = {
            "pwc": 0, "l1": 0, "l2": 0, "llc": 0, "dram": 0,
        }

    def walk(
        self, core: int, asid: int, vpn: int, page_size: int, now: int
    ) -> int:
        """Perform a serial walk at ``core``; returns its latency.

        References that missed the walking core's L1 (installed new
        lines there) are left in :attr:`last_pollution` — a proxy for
        how much the walk polluted that core's cache.
        """
        addresses, _ = self.page_table.walk_info(asid, vpn, page_size)
        pwc = self.pwcs[core]
        level_hits = self.level_hits
        access = self.hierarchy.access
        latency = 0
        pollution = 0
        last = len(addresses) - 1
        for depth, addr in enumerate(addresses):
            # Upper levels can hit the PWC; the leaf PTE never does.
            if depth < last and pwc.lookup(addr):
                latency += self.PWC_HIT_CYCLES
                level_hits["pwc"] += 1
                continue
            level, cycles = access(core, addr, now + latency)
            latency += cycles
            level_hits[level] += 1
            if level != "l1":
                pollution += 1
            if depth < last:
                pwc.fill(addr)
        self.walks += 1
        self.last_pollution = pollution
        if self.sink.enabled:
            self.sink.observe("walk.latency", latency)
            self.sink.event(now, "walk_begin", core=core, vpn=vpn)
            self.sink.event(
                now + latency, "walk_end", core=core, latency=latency
            )
        return latency

    #: Alias, not a wrapper: ``perfbench/tracing.py`` patches this name,
    #: and a method calling :meth:`walk` would count every walk twice.
    walk_cycles = walk


class FixedLatencyWalker:
    """Walker with a fixed latency (Table III's fixed-10/20/40/80)."""

    def __init__(self, page_table: PageTable, latency: int, sink=NULL_SINK) -> None:
        if latency <= 0:
            raise ValueError("walk latency must be positive")
        self.page_table = page_table
        self.latency = latency
        self.walks = 0
        #: A fixed-latency walk touches no cache, so pollutes nothing.
        self.last_pollution = 0
        self.sink = sink

    def walk(
        self, core: int, asid: int, vpn: int, page_size: int, now: int
    ) -> int:
        self.walks += 1
        self.page_table.lookup(asid, vpn, page_size)
        self.sink.observe("walk.latency", self.latency)
        self.sink.event(now, "walk_begin", core=core, vpn=vpn)
        self.sink.event(
            now + self.latency, "walk_end", core=core, latency=self.latency
        )
        return self.latency

    #: See :attr:`PageTableWalker.walk_cycles`.
    walk_cycles = walk


@dataclass
class WalkerQueue:
    """Queues walks at one core's hardware walkers.

    Modern x86 cores keep two concurrent page walkers; a walk admitted
    while both are busy queues behind the earlier-finishing one.  The
    paper notes that performing walks at the remote node risks walker
    congestion when several cores miss to the same slice (§III-F) —
    this queue is what produces that effect.
    """

    num_walkers: int = 2
    queued_walks: int = 0
    total_queue_cycles: int = 0

    def __post_init__(self) -> None:
        if self.num_walkers < 1:
            raise ValueError("need at least one walker")
        self._busy_until = [0] * self.num_walkers

    def admit(self, now: int, latency: int) -> int:
        """Start a walk of ``latency`` cycles; return its completion time."""
        walker = min(range(self.num_walkers), key=self._busy_until.__getitem__)
        start = max(now, self._busy_until[walker])
        self.total_queue_cycles += start - now
        if start > now:
            self.queued_walks += 1
        self._busy_until[walker] = start + latency
        return start + latency

    @property
    def busy_until(self) -> int:
        """Cycle at which the last-finishing walker frees up."""
        return max(self._busy_until)
