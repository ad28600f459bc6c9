"""Set-based reference arbitration the bitmask occupancy is proven against.

Verbatim copies (renamed, observability hooks dropped) of the NOCSTAR
and SMART models as they stood before link occupancy moved to per-cycle
bitmasks: every link keeps a Python ``set`` of its busy cycles.  The
data structures are deliberately different from
:mod:`repro.noc.occupancy` (per-link sets of cycles rather than
per-cycle masks of links, link tuples rather than ids), so a shared bug
is unlikely.

* :class:`SetNocstarOracle` — ``_send_routed`` (with its retry jump),
  ``_path_free`` and ``release`` of the set-based NOCSTAR.
* :class:`SetSmartOracle` — the set-based SMART ``send``.
"""

from typing import Dict, List, NamedTuple, Set, Tuple

from repro.noc.topology import Link, MeshTopology


class OracleTraversal(NamedTuple):
    ready: int
    hops: int
    setup_retries: int
    traversal_cycles: int
    links: Tuple[Link, ...]


class SetNocstarOracle:
    """NOCSTAR arbitration over per-link sets of busy cycles."""

    def __init__(self, topology: MeshTopology, hpc_max: int) -> None:
        self.topology = topology
        self.hpc_max = hpc_max
        self._paths: Dict[Tuple[int, int], Tuple[Link, ...]] = {}
        self._occupied: Dict[Link, Set[int]] = {}
        self._held: Dict[Link, int] = {}
        self.messages = 0
        self.local_messages = 0
        self.total_hops = 0
        self.total_setup_retries = 0
        self.uncontended_messages = 0
        self.control_requests = 0

    def _cached_path(self, src: int, dst: int) -> Tuple[Link, ...]:
        key = (src, dst)
        cached = self._paths.get(key)
        if cached is None:
            cached = tuple(self.topology.xy_path(src, dst))
            self._paths[key] = cached
        return cached

    def _duration(self, src: int, dst: int) -> int:
        hops = self.topology.hops(src, dst)
        return -(-hops // self.hpc_max) if hops else 0

    def send(
        self,
        src: int,
        dst: int,
        now: int,
        speculative_setup: bool = False,
        hold: bool = False,
    ) -> OracleTraversal:
        self.messages += 1
        if src == dst:
            self.local_messages += 1
            return OracleTraversal(
                ready=now, hops=0, setup_retries=0, traversal_cycles=0, links=()
            )
        path = self._cached_path(src, dst)
        hops = len(path)
        duration = self._duration(src, dst)
        earliest = now if speculative_setup else now + 1
        start = earliest
        occupancy = self._occupied
        if self._held:
            while not self._path_free(path, start, duration):
                start += 1
        else:
            while True:
                span = range(start, start + duration)
                for link in path:
                    occupied = occupancy.get(link)
                    if occupied:
                        busy = occupied.intersection(span)
                        if busy:
                            start = max(busy) + 1
                            break
                else:
                    break
        retries = start - earliest
        span = range(start, start + duration)
        if hold:
            held = self._held
            for link in path:
                occupancy.setdefault(link, set()).update(span)
                held[link] = start + duration
        else:
            for link in path:
                occupancy.setdefault(link, set()).update(span)
        self.control_requests += hops * (retries + 1)
        self.total_hops += hops
        self.total_setup_retries += retries
        if retries == 0:
            self.uncontended_messages += 1
        return OracleTraversal(
            ready=start + duration,
            hops=hops,
            setup_retries=retries,
            traversal_cycles=duration,
            links=path,
        )

    def _path_free(self, path: Tuple[Link, ...], start: int, duration: int) -> bool:
        cycles = range(start, start + duration)
        held = self._held
        occupancy = self._occupied
        if held:
            for link in path:
                held_from = held.get(link)
                if held_from is not None and start + duration > held_from:
                    raise RuntimeError(
                        f"link {link} is held by an unreleased round-trip "
                        "acquisition; release() it before arbitrating again"
                    )
                occupied = occupancy.get(link)
                if occupied and not occupied.isdisjoint(cycles):
                    return False
            return True
        for link in path:
            occupied = occupancy.get(link)
            if occupied and not occupied.isdisjoint(cycles):
                return False
        return True

    def release(self, links: Tuple[Link, ...], at: int) -> None:
        for link in links:
            held_from = self._held.pop(link, None)
            if held_from is not None:
                self._occupied.setdefault(link, set()).update(
                    range(held_from, at)
                )

    def link_busy_cycles(self) -> Dict[Link, int]:
        return {link: len(cycles) for link, cycles in self._occupied.items()}


class OracleSmartTraversal(NamedTuple):
    arrival: int
    hops: int
    queue_cycles: int


class SetSmartOracle:
    """SMART bypass reservation over per-link sets of busy cycles."""

    def __init__(self, topology: MeshTopology, hpc_max: int) -> None:
        self.topology = topology
        self.hpc_max = hpc_max
        self._occupied: Dict[Link, set] = {
            link: set() for link in topology.all_links()
        }
        self.messages = 0
        self.total_hops = 0
        self.premature_stops = 0
        self.total_queue_cycles = 0

    def link_busy_cycles(self) -> Dict[Link, int]:
        return {
            link: len(cycles)
            for link, cycles in self._occupied.items()
            if cycles
        }

    def send(self, src: int, dst: int, now: int) -> OracleSmartTraversal:
        path: List[Link] = self.topology.xy_path(src, dst)
        self.messages += 1
        self.total_hops += len(path)
        if not path:
            return OracleSmartTraversal(arrival=now, hops=0, queue_cycles=0)
        t = now + 1
        queued = 0
        stops = 0
        index = 0
        occupancy = self._occupied
        hpc = self.hpc_max
        npath = len(path)
        while index < npath:
            first_occupied = occupancy[path[index]]
            while t in first_occupied:
                queued += 1
                t += 1
            end = index + hpc
            if end > npath:
                end = npath
            i = index
            while i < end:
                occupied = occupancy[path[i]]
                if t in occupied:
                    break
                occupied.add(t)
                i += 1
            t += 1
            if i == end:
                index = end
            else:
                index = i
                stops += 1
                t += 1
        self.premature_stops += stops
        self.total_queue_cycles += queued
        return OracleSmartTraversal(
            arrival=t, hops=len(path), queue_cycles=queued
        )
