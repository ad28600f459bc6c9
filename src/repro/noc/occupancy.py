"""Link occupancy as per-cycle bitmasks over integer link ids.

The circuit-switched and bypass models (NOCSTAR, SMART, the flattened
butterfly) all ask one question on their hot path: "are these links
free in cycle ``c``?".  Answering it with one ``set`` of busy cycles
per link costs a set probe per link per cycle and a fresh ``set`` per
reservation.  Here every link has an integer id and the store keeps
one Python ``int`` per cycle, bit ``i`` set when link ``i`` is busy:

* a path is itself a bitmask, so "is the path free in cycle ``c``" is
  ``busy.get(c, 0) & mask`` and reserving it is one ``|``;
* cycles nobody touched cost nothing (the map is sparse in time), so
  out-of-order reservations far apart in simulated time coexist.

:class:`LinkLayout` numbers the directed links of a mesh in four
direction blocks — east, west, south, north — with the east/west
blocks row-major and the south/north blocks column-major.  An XY route
is one X leg along a single row followed by one Y leg along a single
column, and each leg moves in a single direction, so each leg covers a
*contiguous* id range of one block.  The mask of any XY route is
therefore two shifted runs of ones, computed in O(1) from the tile
coordinates with no link tuple built.
"""

from __future__ import annotations

from typing import Dict, Iterator

import numpy as np

from repro.noc.topology import Link, MeshTopology


def link_ids(mask: int) -> Iterator[int]:
    """The link ids set in ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class LinkLayout:
    """Integer ids for the directed links of an R x C mesh.

    ==========  =======================  ==============================
    block       link                     id
    ==========  =======================  ==============================
    east        (x, y) -> (x + 1, y)     ``y * (C - 1) + x``
    west        (x, y) -> (x - 1, y)     ``W + y * (C - 1) + x - 1``
    south       (x, y) -> (x, y + 1)     ``S + x * (R - 1) + y``
    north       (x, y) -> (x, y - 1)     ``N + x * (R - 1) + y - 1``
    ==========  =======================  ==============================

    ``W``, ``S`` and ``N`` are the block bases; ids are dense in
    ``[0, num_links)``.
    """

    def __init__(self, topology: MeshTopology) -> None:
        self.topology = topology
        rows, cols = topology.rows, topology.cols
        self.cols = cols
        self._row_links = cols - 1
        self._col_links = rows - 1
        self._west = rows * (cols - 1)
        self._south = 2 * self._west
        self._north = self._south + cols * (rows - 1)
        self.num_links = self._north + cols * (rows - 1)

    def link_id(self, link: Link) -> int:
        """Id of a directed mesh link ``(src_tile, dst_tile)``."""
        src, dst = link
        sx, sy = self.topology.coords(src)
        dx, dy = self.topology.coords(dst)
        if sy == dy and dx == sx + 1:
            return sy * self._row_links + sx
        if sy == dy and dx == sx - 1:
            return self._west + sy * self._row_links + dx
        if sx == dx and dy == sy + 1:
            return self._south + sx * self._col_links + sy
        if sx == dx and dy == sy - 1:
            return self._north + sx * self._col_links + dy
        raise ValueError(f"{link} is not a mesh link")

    def link_of(self, link_id: int) -> Link:
        """Inverse of :meth:`link_id`."""
        if not 0 <= link_id < self.num_links:
            raise ValueError(f"link id {link_id} out of range")
        tile = self.topology.tile_at
        if link_id < self._south:
            reverse = link_id >= self._west  # west block
            y, x = divmod(
                link_id - (self._west if reverse else 0), self._row_links
            )
            low, high = tile(x, y), tile(x + 1, y)
        else:
            reverse = link_id >= self._north  # north block
            x, y = divmod(
                link_id - (self._north if reverse else self._south),
                self._col_links,
            )
            low, high = tile(x, y), tile(x, y + 1)
        # East and south links run low -> high; west and north reverse.
        return (high, low) if reverse else (low, high)

    def xy_mask(self, src: int, dst: int) -> int:
        """Bitmask of the XY route ``src -> dst``, in O(1).

        Equals the OR of ``1 << link_id(link)`` over
        ``topology.xy_path(src, dst)``: the X leg runs along row ``sy``
        and the Y leg along column ``dx``, each a contiguous run of ids
        in its direction's block.
        """
        cols = self.cols
        sy, sx = divmod(src, cols)
        dy, dx = divmod(dst, cols)
        if dx > sx:
            mask = ((1 << (dx - sx)) - 1) << (sy * self._row_links + sx)
        elif dx < sx:
            mask = ((1 << (sx - dx)) - 1) << (
                self._west + sy * self._row_links + dx
            )
        else:
            mask = 0
        if dy > sy:
            mask |= ((1 << (dy - sy)) - 1) << (
                self._south + dx * self._col_links + sy
            )
        elif dy < sy:
            mask |= ((1 << (sy - dy)) - 1) << (
                self._north + dx * self._col_links + dy
            )
        return mask


class LinkOccupancy:
    """``cycle -> bitmask of busy link ids``, sparse in time.

    The store is id-agnostic: a :class:`LinkLayout` numbers mesh links,
    and networks with other link sets (the flattened butterfly's
    express links) hand out ids of their own.
    """

    __slots__ = ("busy",)

    def __init__(self) -> None:
        self.busy: Dict[int, int] = {}

    def is_free(self, mask: int, start: int, duration: int) -> bool:
        """True if no link of ``mask`` is busy in ``[start, start+duration)``."""
        get = self.busy.get
        for cycle in range(start, start + duration):
            if get(cycle, 0) & mask:
                return False
        return True

    def first_free(self, mask: int, start: int, duration: int) -> int:
        """Earliest ``s >= start`` with ``[s, s+duration)`` free for ``mask``.

        A span is scanned from its last cycle back; on a busy cycle
        ``c`` every start up to ``c`` still covers ``c``, so the search
        jumps straight to ``c + 1`` — the same answer as trying every
        start in turn.
        """
        get = self.busy.get
        if duration == 1:
            while get(start, 0) & mask:
                start += 1
            return start
        cycle = start + duration - 1
        while cycle >= start:
            if get(cycle, 0) & mask:
                start = cycle + 1
                cycle = start + duration - 1
            else:
                cycle -= 1
        return start

    def reserve(self, mask: int, start: int, duration: int) -> None:
        """Mark the links of ``mask`` busy for ``[start, start+duration)``."""
        busy = self.busy
        for cycle in range(start, start + duration):
            busy[cycle] = busy.get(cycle, 0) | mask

    def busy_counts(self) -> Dict[int, int]:
        """Busy cycles per link id, for every id busy at least once."""
        masks = list(self.busy.values())
        if not masks:
            return {}
        width = (max(masks).bit_length() + 7) // 8
        counts = np.zeros(width * 8, dtype=np.int64)
        chunk = 4096  # bounds the unpacked (cycles x links) byte matrix
        for lo in range(0, len(masks), chunk):
            raw = b"".join(m.to_bytes(width, "little") for m in masks[lo:lo + chunk])
            bits = np.unpackbits(
                np.frombuffer(raw, dtype=np.uint8).reshape(-1, width),
                axis=1,
                bitorder="little",
            )
            counts += bits.sum(axis=0, dtype=np.int64)
        return {
            int(link_id): int(counts[link_id])
            for link_id in np.flatnonzero(counts)
        }

    def clear(self) -> None:
        self.busy.clear()
