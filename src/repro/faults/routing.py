"""Fault-aware mesh routing: XY, YX escape, deterministic BFS fallback.

The resilient fabrics route around permanently failed links in three
tiers, cheapest first:

1. **XY** — the mesh's native dimension-ordered route (what the link
   arbiters assume).  Used whenever every link of it is alive.
2. **YX escape** — the transposed dimension order.  XY and YX are
   link-disjoint except at the endpoints' row/column, so a single dead
   link never kills both.
3. **BFS of last resort** — a deterministic breadth-first search over
   the alive links (neighbours expanded in sorted tile order, so the
   chosen path is a pure function of the failed-link set).  This makes
   the router *complete*: ``route`` returns a path exactly when one
   exists, so ``None`` certifies that the failure set genuinely
   partitions ``src`` from ``dst`` — the property the partition tests
   pin down.

Routes are memoised per (src, dst); the failure set is immutable for a
run, so the cache never needs invalidation.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from repro.noc.topology import Link, MeshTopology


class UnreachableError(RuntimeError):
    """Raised when a message is sent between partitioned tiles.

    The simulator checks reachability *before* issuing transactions and
    degrades unreachable lookups to local page walks, so this escaping
    a run indicates a protocol bug, not an expected fault outcome.
    """


class FaultAwareRouter:
    """Routes around a fixed set of failed directed links."""

    def __init__(
        self, topology: MeshTopology, failed_links: Iterable[Link] = ()
    ) -> None:
        self.topology = topology
        self.dead = frozenset((int(a), int(b)) for a, b in failed_links)
        self._routes: Dict[Tuple[int, int], Optional[Tuple[Link, ...]]] = {}
        #: Alive out-neighbours per tile, sorted (deterministic BFS order).
        self._neighbors: Dict[int, List[int]] = {}
        for src, dst in sorted(topology.all_links()):
            if (src, dst) not in self.dead:
                self._neighbors.setdefault(src, []).append(dst)

    def alive(self, link: Link) -> bool:
        return link not in self.dead

    def path_alive(self, path: Iterable[Link]) -> bool:
        return all(link not in self.dead for link in path)

    def route(self, src: int, dst: int) -> Optional[Tuple[Link, ...]]:
        """Alive path ``src -> dst``; ``()`` when local, ``None`` when
        the failure set partitions the pair."""
        if src == dst:
            return ()
        key = (src, dst)
        cached = self._routes.get(key, False)
        if cached is not False:
            return cached
        path = self._compute(src, dst)
        self._routes[key] = path
        return path

    def path(self, src: int, dst: int) -> Tuple[Link, ...]:
        """Like :meth:`route`, but a partitioned pair raises.

        What a fabric sends over once faults are live: callers must
        pre-check reachability and degrade to a local walk, so a
        missing route here is a protocol bug.
        """
        path = self.route(src, dst)
        if path is None:
            raise UnreachableError(
                f"no alive route {src}->{dst}; caller must pre-check "
                "reachability and degrade to a local walk"
            )
        return path

    def reachable(self, src: int, dst: int) -> bool:
        return self.route(src, dst) is not None

    def reachable_round_trip(self, src: int, dst: int) -> bool:
        """Both directions routable (request and response legs)."""
        return self.reachable(src, dst) and self.reachable(dst, src)

    def unreachable_pairs(self) -> List[Tuple[int, int]]:
        """Every ordered (src, dst) pair the failure set partitions."""
        n = self.topology.num_tiles
        return [
            (src, dst)
            for src in range(n)
            for dst in range(n)
            if src != dst and not self.reachable(src, dst)
        ]

    @property
    def partitioned(self) -> bool:
        """True when at least one ordered tile pair cannot communicate."""
        return bool(self.unreachable_pairs())

    # ------------------------------------------------------------------

    def _compute(self, src: int, dst: int) -> Optional[Tuple[Link, ...]]:
        xy = tuple(self.topology.xy_path(src, dst))
        if self.path_alive(xy):
            return xy
        yx = tuple(self.topology.yx_path(src, dst))
        if self.path_alive(yx):
            return yx
        return self._bfs(src, dst)

    def _bfs(self, src: int, dst: int) -> Optional[Tuple[Link, ...]]:
        parents: Dict[int, int] = {src: src}
        frontier = deque([src])
        while frontier:
            tile = frontier.popleft()
            if tile == dst:
                break
            for neighbor in self._neighbors.get(tile, ()):
                if neighbor not in parents:
                    parents[neighbor] = tile
                    frontier.append(neighbor)
        if dst not in parents:
            return None
        hops: List[Link] = []
        tile = dst
        while tile != src:
            parent = parents[tile]
            hops.append((parent, tile))
            tile = parent
        return tuple(reversed(hops))
