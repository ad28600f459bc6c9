"""x86-64 four-level radix page tables with synthetic physical placement.

Each table node is a 4KB frame of 512 8-byte entries.  Nodes and data
frames are allocated from a bump allocator of synthetic physical
addresses, so the *cache-line address* of every entry a walk touches is
well-defined — that is what the variable-latency walker feeds through
the cache hierarchy to obtain realistic walk latencies.

Shared mappings (tagged ``GLOBAL_ASID``) live in their own table, so
their upper-level nodes — exactly like shared kernel/library page
tables on a real system — are shared in the caches by every core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.vm.address import PAGE_1G, PAGE_2M, PAGE_4K, PAGE_SHIFT_4K

FRAME_BYTES = 4096
ENTRY_BYTES = 8
FANOUT = 512

#: Radix levels from root to leaf; a 2MB page terminates at the PD
#: (3 node accesses) and a 1GB page at the PDPT (2 node accesses).
LEVELS = ("pml4", "pdpt", "pd", "pt")

#: page size -> (leaf depth, shift from a 4KB VPN to the page number,
#: mask of the radix-index bits above the leaf node).  A translation's
#: page number ``pn`` splits into its chain prefix ``(pn >> 9) & mask``
#: and its index ``pn & 511`` in the leaf node.  The mask keeps the 36
#: bits a four-level walk indexes, so VPNs past them share nodes with
#: their aliases (as the radix indices do) but map their own pages.
_GEOMETRY = {
    PAGE_4K: (4, 0, (1 << 27) - 1),
    PAGE_2M: (3, 9, (1 << 18) - 1),
    PAGE_1G: (2, 18, (1 << 9) - 1),
}


@dataclass(frozen=True)
class PTE:
    """A translation: physical page number at the mapping's granularity."""

    ppn: int
    page_size: int
    asid: int


#: A node chain: the entry addresses above the node (root first), the
#: node's frame, and ``page number -> ppn`` of the pages mapped in it.
Chain = Tuple[Tuple[int, ...], int, Dict[int, int]]


class PageTable:
    """Radix page tables for all address spaces, plus frame allocation.

    Every table node is one entry of the chain index ``_chains``, keyed
    by ``(asid, depth, prefix)``: the node at radix level ``depth - 1``
    reached through the indices ``prefix`` (9 bits per level above it).
    A walk reads one chain — the upper-level entry addresses are stored
    in it, and the leaf entry is the node frame plus one index — so only
    a missing chain walks the levels, allocating nodes root to leaf.
    """

    def __init__(self) -> None:
        self._chains: Dict[Tuple[int, int, int], Chain] = {}
        self._next_frame = 1  # frame 0 reserved
        self.nodes_allocated = 0
        self.pages_mapped = 0

    def _allocate_frame(self) -> int:
        frame = self._next_frame * FRAME_BYTES
        self._next_frame += 1
        return frame

    def _chain(self, asid: int, depth: int, prefix: int) -> Chain:
        """The chain of node ``(asid, depth, prefix)``, built root to
        leaf from its first missing node."""
        key = (asid, depth, prefix)
        chain = self._chains.get(key)
        if chain is None:
            if depth == 1:
                upper: Tuple[int, ...] = ()
            else:
                above, frame, _ = self._chain(asid, depth - 1, prefix >> 9)
                upper = above + (frame + (prefix & 511) * ENTRY_BYTES,)
            chain = self._chains[key] = (upper, self._allocate_frame(), {})
            self.nodes_allocated += 1
        return chain

    @staticmethod
    def _locate(vpn: int, page_size: int) -> Tuple[int, int, int]:
        """``(depth, prefix, page number)`` of a translation."""
        try:
            depth, shift, mask = _GEOMETRY[page_size]
        except KeyError:
            raise ValueError(f"unsupported page size: {page_size}") from None
        page_number = vpn >> shift
        return depth, (page_number >> 9) & mask, page_number

    def walk(self, asid: int, vpn: int, page_size: int) -> Tuple[Tuple[int, ...], int]:
        """The entries a walk of 4KB VPN ``vpn`` touches, mapping the
        page on first touch: ``(upper-level entry addresses, leaf entry
        address)``.

        A first touch allocates the missing nodes root to leaf, then the
        data frame — the walker's historical order, so every synthetic
        physical address is unchanged.
        """
        depth, prefix, page_number = self._locate(vpn, page_size)
        chain = self._chains.get((asid, depth, prefix))
        if chain is None:
            chain = self._chain(asid, depth, prefix)
        upper, frame, ppns = chain
        if page_number not in ppns:
            ppns[page_number] = self._allocate_frame() >> PAGE_SHIFT_4K
            self.pages_mapped += 1
        return upper, frame + (page_number & 511) * ENTRY_BYTES

    def walk_addresses(self, asid: int, vpn: int, page_size: int) -> List[int]:
        """Physical addresses of the page-table entries a walk touches.

        One address per radix level down to the leaf: 4 for 4KB
        mappings, 3 for 2MB, 2 for 1GB.  Materialises the node chain
        but maps no page.
        """
        depth, prefix, page_number = self._locate(vpn, page_size)
        upper, frame, _ = self._chain(asid, depth, prefix)
        return [*upper, frame + (page_number & 511) * ENTRY_BYTES]

    def map_page(self, asid: int, vpn: int, page_size: int) -> PTE:
        """Ensure the translation covering 4KB VPN ``vpn`` exists.

        A new mapping allocates its data frame before any missing node.
        """
        depth, prefix, page_number = self._locate(vpn, page_size)
        chain = self._chains.get((asid, depth, prefix))
        if chain is None or page_number not in chain[2]:
            ppn = self._allocate_frame() >> PAGE_SHIFT_4K
            self.pages_mapped += 1
            chain = self._chain(asid, depth, prefix)
            chain[2][page_number] = ppn
        return PTE(ppn=chain[2][page_number], page_size=page_size, asid=asid)

    def lookup(self, asid: int, vpn: int, page_size: int) -> PTE:
        """Return the PTE covering ``vpn`` (mapping it on first touch)."""
        return self.map_page(asid, vpn, page_size)

    def unmap(self, asid: int, vpn: int, page_size: int) -> None:
        """Drop a translation (page remapping / demotion); its nodes stay."""
        depth, prefix, page_number = self._locate(vpn, page_size)
        chain = self._chains.get((asid, depth, prefix))
        if chain is not None:
            chain[2].pop(page_number, None)
