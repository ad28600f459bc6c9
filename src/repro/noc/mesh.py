"""The paper's multi-hop mesh model.

:class:`ContentionFreeMesh` is the baseline for the distributed /
monolithic configurations: "we place enough buffers and links in the
system to prevent link contention" (§IV), so a message deterministically
takes ``hops * (tr + tw)`` cycles.  Fig 11c's latency-vs-injection
comparison, which does model mesh queueing, runs
:func:`repro.noc.synthetic.run_mesh_traffic` instead.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

from repro.faults.routing import UnreachableError
from repro.noc.route_cache import shared_route_cache
from repro.noc.topology import Link, MeshTopology
from repro.obs import NULL_SINK


class Traversal(NamedTuple):
    """Outcome of sending one message.

    A NamedTuple rather than a dataclass: one is built per message on
    the simulator's hottest paths, and tuple construction is several
    times cheaper than a frozen dataclass ``__init__``.
    """

    arrival: int
    hops: int
    queue_cycles: int = 0
    links: Tuple[Link, ...] = ()


class ContentionFreeMesh:
    """Deterministic mesh: tr + tw cycles per hop, no queueing."""

    def __init__(
        self,
        topology: MeshTopology,
        router_cycles: int = 1,
        wire_cycles: int = 1,
        sink=NULL_SINK,
        faults=None,
        routes=None,
    ) -> None:
        self.topology = topology
        self.router_cycles = router_cycles
        self.wire_cycles = wire_cycles
        self.cycles_per_hop = router_cycles + wire_cycles
        self.faults = faults  # Optional[FaultInjector]
        routes = routes or shared_route_cache(topology.num_tiles)
        self.routes = routes
        self._hops = routes.hops
        self._latency = routes.mesh_latency(self.cycles_per_hop)
        self.messages = 0
        self.total_hops = 0
        #: link -> messages carried; populated only when observed.
        self.link_traversals: Dict[Link, int] = {}
        if faults is not None and faults.router.dead:
            # Fault-aware routing subsumes observation: the detour path
            # must be computed anyway, so links are always accounted.
            # Dead links also invalidate the fault-free route tables.
            self._route = self._fault_route
            self.send = self._send_path  # type: ignore[method-assign]
        elif sink.enabled:
            # Construction-time dispatch, not per-send branching: the
            # unobserved send never touches a link path.
            self._route = routes.path
            self.send = self._send_path  # type: ignore[method-assign]

    def send(self, src: int, dst: int, now: int) -> Traversal:
        hops = self._hops[src][dst]
        self.messages += 1
        self.total_hops += hops
        return Traversal(arrival=now + self._latency[src][dst], hops=hops)

    def _send_path(self, src: int, dst: int, now: int) -> Traversal:
        """send() over an explicit link path, with per-link accounting.

        Detours lengthen the path beyond the Manhattan distance, so the
        hop count (and latency) comes from the path itself; on the
        fault-free XY route it equals the table-driven :meth:`send`.
        """
        path = self._route(src, dst)
        for link in path:
            self.link_traversals[link] = self.link_traversals.get(link, 0) + 1
        self.messages += 1
        self.total_hops += len(path)
        return Traversal(
            arrival=now + len(path) * self.cycles_per_hop,
            hops=len(path),
            links=path,
        )

    def _fault_route(self, src: int, dst: int) -> Tuple[Link, ...]:
        """The fault-aware route around dead links."""
        path = self.faults.router.route(src, dst)
        if path is None:
            raise UnreachableError(
                f"no alive route {src}->{dst}; caller must pre-check "
                "reachability and degrade to a local walk"
            )
        return path

    def link_busy_cycles(self) -> Dict[Link, int]:
        """Cycles each link's wire carried a flit (observed runs only)."""
        return {
            link: count * self.wire_cycles
            for link, count in self.link_traversals.items()
        }

