"""SMART NoC model [HPCA'13], the monolithic configuration's fast NoC.

SMART lets a flit dynamically build a multi-hop bypass path over a
mesh, covering up to HPCmax hops per cycle.  Unlike NOCSTAR's
circuit-switched paths, SMART bypasses are *not guaranteed*: SSR
(SMART-hop setup request) conflicts force the flit to stop and get
latched at an intermediate router, paying a router traversal before
re-arbitrating (§II-F, Table I).

The model reserves the links of each HPC segment; a conflicting link
splits the segment at the conflict point — exactly a SMART "premature
stop".  Segments are tested and reserved as link bitmasks against a
:class:`~repro.noc.occupancy.LinkOccupancy` store."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.faults.routing import UnreachableError
from repro.noc.mesh import Traversal
from repro.noc.occupancy import LinkLayout, LinkOccupancy
from repro.noc.route_cache import shared_route_cache
from repro.noc.topology import Link, MeshTopology
from repro.obs import NULL_SINK


class SmartNetwork:
    """SMART mesh with HPCmax bypass and conflict-induced stops."""

    def __init__(
        self, topology: MeshTopology, hpc_max: int = 8, sink=NULL_SINK,
        faults=None, routes=None,
    ) -> None:
        if hpc_max < 1:
            raise ValueError("HPCmax must be at least 1")
        self.topology = topology
        self.hpc_max = hpc_max
        self.sink = sink
        #: Bound event emitter, or None when unobserved — send() then
        #: skips building the kwargs for a no-op sink call.
        self._event = sink.event if sink.enabled else None
        self.faults = faults  # Optional[FaultInjector]
        routes = routes or shared_route_cache(topology.num_tiles)
        self.routes = routes
        if faults is not None and faults.router.dead:
            # Dead links invalidate the fault-free route tables: every
            # send routes through the FaultAwareRouter instead.
            self._route = self._fault_route
        else:
            self._route = routes.path
        #: cycle -> bitmask of link ids carrying a flit (per-cycle
        #: occupancy; see the reservation note in repro.core.nocstar).
        self._layout = LinkLayout(topology)
        self._occupancy = LinkOccupancy()
        #: (src, dst) -> (path, per-link bits, prefix masks).
        self._masks: Dict[Tuple[int, int], tuple] = {}
        self.messages = 0
        self.total_hops = 0
        self.premature_stops = 0
        self.total_queue_cycles = 0

    def link_busy_cycles(self) -> Dict[Link, int]:
        """Cycles each link carried a flit (utilization numerator)."""
        link_of = self._layout.link_of
        return {
            link_of(link_id): cycles
            for link_id, cycles in self._occupancy.busy_counts().items()
        }

    def _fault_route(self, src: int, dst: int) -> List[Link]:
        """Fault-aware route: bypass segments then ride the detour path
        (SSRs follow whatever route the flit is configured with)."""
        path = self.faults.router.route(src, dst)
        if path is None:
            raise UnreachableError(
                f"no alive route {src}->{dst}; caller must pre-check "
                "reachability and degrade to a local walk"
            )
        return list(path)

    def _path_masks(self, src: int, dst: int) -> tuple:
        """``(path, bits, prefix)`` for the route ``src -> dst``.

        ``bits[i]`` is link ``i``'s bit and ``prefix[k]`` the OR of the
        first ``k`` bits; routes never repeat a link, so the mask of
        links ``[i, j)`` is ``prefix[j] ^ prefix[i]``.
        """
        key = (src, dst)
        masks = self._masks.get(key)
        if masks is None:
            path = tuple(self._route(src, dst))
            link_id = self._layout.link_id
            bits = [1 << link_id(link) for link in path]
            prefix = [0]
            for bit in bits:
                prefix.append(prefix[-1] | bit)
            masks = self._masks[key] = (path, bits, prefix)
        return masks

    def send(self, src: int, dst: int, now: int) -> Traversal:
        path, bits, prefix = self._path_masks(src, dst)
        npath = len(path)
        self.messages += 1
        self.total_hops += npath
        if not npath:
            return Traversal(arrival=now, hops=0)
        # One SSR setup cycle precedes the first data cycle.
        t = now + 1
        queued = 0
        stops = 0
        index = 0
        busy = self._occupancy.busy
        get = busy.get
        hpc = self.hpc_max
        while index < npath:
            # A cycle where the segment's first link is busy advances
            # nothing (the flit waits at the router): step to the first
            # cycle that can make progress.
            first = bits[index]
            occupied = get(t, 0)
            while occupied & first:
                queued += 1
                t += 1
                occupied = get(t, 0)
            end = index + hpc
            if end > npath:
                end = npath
            segment = prefix[end] ^ prefix[index]
            if occupied & segment:
                # Premature stop: the bypass extends up to the first
                # busy link, whose predecessors are still traversed
                # (and reserved) this cycle; the flit is latched at an
                # intermediate router.
                i = index + 1
                while not occupied & bits[i]:
                    i += 1
                busy[t] = occupied | (prefix[i] ^ prefix[index])
                index = i
                stops += 1
                t += 2  # bypass cycle + router traversal/re-arbitration
            else:
                # The whole segment is free: one AND tested it, one OR
                # reserves it, and it crosses in one cycle.
                busy[t] = occupied | segment
                index = end
                t += 1
        self.premature_stops += stops
        self.total_queue_cycles += queued
        if self._event is not None:
            self._event(
                now, "smart_setup",
                src=src, dst=dst, hops=npath, stops=stops, queued=queued,
            )
        return Traversal(
            arrival=t, hops=npath, queue_cycles=queued, links=path
        )
