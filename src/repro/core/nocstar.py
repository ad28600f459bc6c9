"""The NOCSTAR interconnect: latchless, circuit-switched, single-cycle.

Datapath (§III-B1): a mux-based latchless switch sits next to each TLB
slice; once every link of the XY path is granted, the message ripples
through all intermediate switches combinationally — up to ``hpc_max``
hops per clock — and is latched only at the destination.

Control path (§III-B2): before the traversal, the source requests every
link of the path from that link's arbiter *in the same cycle*; the
grants are ANDed.  Any missing grant means the whole setup retries next
cycle (no partial paths).  This discrete-event model resolves
contention with per-cycle link reservations: a setup succeeds in the
first cycle all links are simultaneously free, and each failed attempt
is charged one retry cycle and one round of control energy.

Both link-acquisition modes of §V are supported: one-way (request and
response each arbitrate for a single traversal) and round-trip (links
held for the whole remote access and released explicitly).

Reservations live in a :class:`~repro.noc.occupancy.LinkOccupancy`
store: ``cycle -> bitmask`` of busy link ids.  The link ids follow
:class:`~repro.noc.occupancy.LinkLayout` — east, west, south and north
blocks, row-major for east/west and column-major for south/north — so
an XY route's X leg (one row, one direction) and Y leg (one column, one
direction) are each a contiguous run of ids.  The path mask is two
shifted runs of ones, computed in O(1) from the tile coordinates;
testing "is the path free in cycle ``c``" is one AND against that
cycle's mask, and reserving it is one OR.  The arbiter grants all links
at once, and so does the model.

Occupancy stays per cycle rather than a busy-until watermark per link:
the driving engine resolves cores' misses slightly out of global time
order (bounded by its run-ahead quantum), and a watermark would make a
reservation placed at cycle 5000 block an unrelated message at cycle
4000.  With per-cycle masks, only true same-cycle conflicts on a link
cause retries, and cycles nobody reserved cost no memory.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from repro.core.config import NocstarConfig
from repro.core.link_arbiter import control_fanout
from repro.faults.inject import (
    FALLBACK_CYCLES_PER_HOP,
    FALLBACK_INJECTION_CYCLES,
)
from repro.faults.routing import UnreachableError
from repro.noc.occupancy import LinkLayout, LinkOccupancy, link_ids
from repro.noc.route_cache import shared_route_cache
from repro.noc.topology import Link, MeshTopology
from repro.obs import NULL_SINK


class NocstarTraversal(NamedTuple):
    """Outcome of one message through the TLB interconnect.

    A NamedTuple for the same reason as :class:`repro.noc.mesh.
    Traversal`: construction sits on the per-message hot path.
    """

    ready: int  # cycle the message is available at the destination
    hops: int
    setup_retries: int
    traversal_cycles: int
    #: ``(topology, src, dst)`` of the XY circuit that carried the
    #: message, or None when no circuit was set up (local delivery,
    #: buffered-mesh fallback).
    circuit: Optional[Tuple[MeshTopology, int, int]] = None

    @property
    def contended(self) -> bool:
        return self.setup_retries > 0

    @property
    def links(self) -> Tuple[Link, ...]:
        """The circuit's links, built on demand: arbitration itself
        works on link bitmasks, and only round-trip release and
        introspection need the tuples."""
        if self.circuit is None:
            return ()
        topology, src, dst = self.circuit
        return tuple(topology.xy_path(src, dst))


class NocstarInterconnect:
    """Discrete-event model of the NOCSTAR TLB network."""

    def __init__(
        self,
        topology: MeshTopology,
        config: NocstarConfig = NocstarConfig(),
        sink=NULL_SINK,
        faults=None,
        routes=None,
    ) -> None:
        self.topology = topology
        self.config = config
        self.sink = sink
        #: Bound event emitter, or None when unobserved — the hot send
        #: paths then skip building the kwargs for a no-op sink call.
        self._event = sink.event if sink.enabled else None
        self.faults = faults  # Optional[FaultInjector]
        routes = routes or shared_route_cache(topology.num_tiles)
        self.routes = routes
        # Hop counts and uncontended traversal durations are pure
        # (src, dst) functions, read from the fault-free tables; the
        # link arbitration itself is always live.
        self._hops = routes.hops
        self._cycles = routes.nocstar_cycles(config.hpc_max)
        self._layout = LinkLayout(topology)
        self._xy_mask = self._layout.xy_mask
        if faults is not None and (
            faults.router.dead or faults.plan.arbiter_drop_prob > 0.0
        ):
            # Construction-time dispatch: the fault-free hot path stays
            # branch-free and byte-identical to the pre-fault model.
            self.send = self._send_faulty
        #: cycle -> bitmask of link ids carrying data in that cycle.
        self._occupancy = LinkOccupancy()
        #: link id -> cycle from which the link is held (round-trip
        #: mode), and the OR of the held links' bits.
        self._held: Dict[int, int] = {}
        self._held_mask = 0
        self.messages = 0
        self.local_messages = 0
        self.total_hops = 0
        self.total_setup_retries = 0
        self.uncontended_messages = 0
        self.control_requests = 0  # arbiter requests (energy accounting)

    # ------------------------------------------------------------------
    # Datapath

    def traversal_cycles(self, hops: int) -> int:
        """Cycles for the data traversal: ceil(hops / HPCmax)."""
        return -(-hops // self.config.hpc_max) if hops else 0

    def send(
        self,
        src: int,
        dst: int,
        now: int,
        speculative_setup: bool = False,
        hold: bool = False,
    ) -> NocstarTraversal:
        """Send one message from tile ``src`` to tile ``dst``.

        ``speculative_setup`` overlaps the path-setup cycle with
        preceding work (the paper sets up the response path during the
        slice lookup, §III-C).  ``hold`` keeps the links reserved until
        :meth:`release` — round-trip acquisition.

        The XY circuit is set up at the first cycle all its links are
        free for the traversal's duration, and reserved.  Each failed
        cycle is one setup retry; the search jumps past busy cycles
        (:meth:`LinkOccupancy.first_free`), which lands on the same
        first feasible start as retrying cycle by cycle.
        """
        self.messages += 1
        if src == dst:
            self.local_messages += 1
            return NocstarTraversal(now, 0, 0, 0)
        hops = self._hops[src][dst]
        duration = self._cycles[src][dst]
        mask = self._xy_mask(src, dst)
        earliest = now if speculative_setup else now + 1
        start = self._occupancy.first_free(mask, earliest, duration)
        if self._held_mask & mask:
            # Held links stay busy past their (unknown) release, so the
            # start just found is feasible only if it clears the holds.
            self._check_holds(mask, start + duration)
        self._occupancy.reserve(mask, start, duration)
        if hold:
            self._hold(mask, start + duration)
        retries = start - earliest
        # Every setup attempt broadcasts a request to all path arbiters.
        self.control_requests += hops * (retries + 1)
        self.total_hops += hops
        self.total_setup_retries += retries
        if retries == 0:
            self.uncontended_messages += 1
        if self._event is not None:
            self._event(
                now, "nocstar_setup",
                src=src, dst=dst, hops=hops, retries=retries, hold=hold,
            )
        return NocstarTraversal(
            ready=start + duration,
            hops=hops,
            setup_retries=retries,
            traversal_cycles=duration,
            circuit=(self.topology, src, dst),
        )

    def _send_faulty(
        self,
        src: int,
        dst: int,
        now: int,
        speculative_setup: bool = False,
        hold: bool = False,
    ) -> "NocstarTraversal":
        """:meth:`send` under fault injection.

        Resilience policy: a permanently dead link on the arbiters' XY
        path makes the setup unwinnable, so the message falls back to
        buffered-mesh routing immediately.  Otherwise the setup loop
        retries through contention (next cycle, as fault-free) and
        through transient arbiter drops (exponential backoff, capped at
        ``max_backoff``); if the grant has not landed within
        ``setup_timeout`` cycles the circuit-switched fabric is
        abandoned and the message falls back too.
        """
        self.messages += 1
        if src == dst:
            self.local_messages += 1
            return NocstarTraversal(now, 0, 0, 0)
        inj = self.faults
        path = self.topology.xy_path(src, dst)
        hops = len(path)
        duration = self.traversal_cycles(hops)
        earliest = now if speculative_setup else now + 1
        if not inj.router.path_alive(path):
            return self._fallback(src, dst, earliest, hops, attempts=1)
        mask = self._xy_mask(src, dst)
        deadline = earliest + inj.plan.setup_timeout
        start = earliest
        attempts = 0
        drops = 0
        backoff = 1
        while True:
            if start >= deadline:
                return self._fallback(src, dst, start, hops, attempts)
            attempts += 1
            if not self._path_free(mask, start, duration):
                start += 1  # contention: retry next cycle, as fault-free
                continue
            if inj.drop_setup():
                drops += 1
                inj.record_drop(start, src, dst, backoff)
                start += backoff
                backoff = min(backoff * 2, inj.plan.max_backoff)
                continue
            break
        self._occupancy.reserve(mask, start, duration)
        if hold:
            self._hold(mask, start + duration)
        retries = attempts - 1
        self.control_requests += hops * attempts
        self.total_hops += hops
        self.total_setup_retries += retries
        if retries == 0:
            self.uncontended_messages += 1
        self.sink.event(
            now, "nocstar_setup",
            src=src, dst=dst, hops=hops, retries=retries, hold=hold,
            drops=drops,
        )
        return NocstarTraversal(
            ready=start + duration,
            hops=hops,
            setup_retries=retries,
            traversal_cycles=duration,
            circuit=(self.topology, src, dst),
        )

    def _fallback(
        self, src: int, dst: int, giveup: int, xy_hops: int, attempts: int
    ) -> "NocstarTraversal":
        """Deliver over the buffered coherence mesh after abandoning setup.

        The failed attempts still burned control energy; the traversal
        is then charged at buffered-mesh cost (injection plus
        router+wire per hop) over the fault-aware route.  The result
        carries no circuit (``links == ()``), so round-trip hold/release
        bookkeeping is skipped by the existing guards.
        """
        inj = self.faults
        path = inj.router.route(src, dst)
        if path is None:
            raise UnreachableError(
                f"no alive route {src}->{dst}; caller must pre-check "
                "reachability and degrade to a local walk"
            )
        hops = len(path)
        self.control_requests += xy_hops * attempts
        self.total_setup_retries += attempts
        self.total_hops += hops
        ready = giveup + FALLBACK_INJECTION_CYCLES + FALLBACK_CYCLES_PER_HOP * hops
        inj.record_fallback(giveup, src, dst, hops)
        return NocstarTraversal(
            ready=ready,
            hops=hops,
            setup_retries=attempts,
            traversal_cycles=ready - giveup,
        )

    def _path_free(self, mask: int, start: int, duration: int) -> bool:
        """True if every link of ``mask`` is free for [start, start+duration)."""
        if self._held_mask & mask:
            self._check_holds(mask, start + duration)
        return self._occupancy.is_free(mask, start, duration)

    def _check_holds(self, mask: int, end: int) -> None:
        """Raise if a span ending at ``end`` runs into a held link.

        Arbitrating over a link that is currently *held* (round-trip
        acquisition in flight) is a protocol error: the holder releases
        before the next transaction is issued, so a held link at send
        time means the caller broke the hold/release discipline — and
        waiting for it would never terminate (the release time is not
        yet known).
        """
        for link_id, held_from in self._held.items():
            if mask >> link_id & 1 and end > held_from:
                raise RuntimeError(
                    f"link {self._layout.link_of(link_id)} is held by an "
                    "unreleased round-trip acquisition; release() it "
                    "before arbitrating again"
                )

    def _hold(self, mask: int, held_from: int) -> None:
        for link_id in link_ids(mask):
            self._held[link_id] = held_from
        self._held_mask |= mask

    def release(self, links: Tuple[Link, ...], at: int) -> None:
        """Release round-trip-held links at cycle ``at``.

        The held window is converted into explicit occupancy so that
        slightly out-of-order requests (see module docstring) still see
        the hold."""
        for link in links:
            link_id = self._layout.link_id(link)
            held_from = self._held.pop(link_id, None)
            if held_from is not None:
                bit = 1 << link_id
                self._held_mask &= ~bit
                self._occupancy.reserve(bit, held_from, at - held_from)

    # ------------------------------------------------------------------
    # Introspection

    def link_busy_cycles(self) -> Dict[Link, int]:
        """Cycles each link carried data (utilization numerator).

        Round-trip holds still in flight are not counted; every hold is
        released before a run finishes, converting it into occupancy.
        """
        link_of = self._layout.link_of
        return {
            link_of(link_id): cycles
            for link_id, cycles in self._occupancy.busy_counts().items()
        }

    @property
    def mean_setup_retries(self) -> float:
        sent = self.messages - self.local_messages
        return self.total_setup_retries / sent if sent else 0.0

    @property
    def no_contention_fraction(self) -> float:
        sent = self.messages - self.local_messages
        return self.uncontended_messages / sent if sent else 1.0

    def control_wires_per_core(self) -> int:
        """Fan-out of control wires per core under XY routing."""
        return control_fanout(self.topology.rows, self.topology.cols)
