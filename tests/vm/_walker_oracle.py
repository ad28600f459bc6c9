"""Result-object page walkers the int-returning walkers are proven against.

Verbatim copies (renamed) of ``PageTableWalker.walk`` and
``FixedLatencyWalker.walk`` as they stood when a walk returned a
``WalkResult`` — latency, PTE, the level that satisfied each reference,
and the pollution tally — together with the per-core page-walk cache
they drive.  The walkers under test return only the latency and leave
the pollution in ``last_pollution``; every side effect (PWC contents
and counters, cache-hierarchy state, ``level_hits``, ``walks``, sink
events and histograms) must match these copies exactly.

* :class:`OraclePageTableWalker` — the variable-latency walker.
* :class:`OracleFixedLatencyWalker` — the fixed-latency walker.
"""

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.mem.cache import CacheHierarchy
from repro.obs import NULL_SINK
from repro.vm.page_table import PageTable, PTE


@dataclass
class OracleWalkResult:
    """Outcome of one page-table walk."""

    latency: int
    pte: PTE
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
        page_table: PageTable,
        hierarchy: CacheHierarchy,
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

    def __init__(self, page_table: PageTable, latency: int, sink=NULL_SINK) -> None:
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
