"""The simulated machine: TLB hierarchy + interconnect + walkers.

One :class:`System` instance models a whole chip for one configuration.
The engine drives it with trace records; everything below the L1 TLB
probe — shared-slice lookups, network traversals, port and walker
queueing, page-table walks, shootdowns — happens in
:meth:`System.l2_transaction` and friends, against explicit
per-cycle reservation state (link/port occupancy maps, walker queues),
which is how contention becomes latency.

Timing of a remote NOCSTAR access follows Fig 10: path setup (1 cycle),
single-cycle traversal, slice port + SRAM lookup, speculative response
path setup overlapped with the lookup, single-cycle response traversal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.config import ROUND_TRIP
from repro.core.indexing import get_indexer
from repro.core.nocstar import NocstarInterconnect
from repro.energy.components import (
    ARBITERS_POWER_MW,
    SWITCH_POWER_MW,
)
from repro.energy.model import EnergyModel
from repro.faults.inject import FaultInjector
from repro.faults.models import FaultPlan
from repro.mem import sram
from repro.mem.cache import CacheHierarchy
from repro.noc.bus import BusNetwork
from repro.noc.fbfly import FlattenedButterfly
from repro.noc.mesh import ContentionFreeMesh
from repro.noc.route_cache import shared_route_cache
from repro.noc.smart import SmartNetwork
from repro.noc.topology import MeshTopology
from repro.obs import NULL_SINK
from repro.sim import configs as cfg
from repro.tlb.l1 import L1Tlb, L1TlbConfig
from repro.tlb.l2_private import L2TlbConfig, PrivateL2Tlb
from repro.tlb.l2_shared import (
    PREFETCH_CLASS,
    PRIORITY,
    WALK_CLASS,
    DistributedSharedTlb,
    MonolithicSharedTlb,
)
from repro.tlb.prefetch import SequentialPrefetcher
from repro.tlb.shootdown import InvalidationController
from repro.tlb.stats import TlbStats
from repro.vm.address import PAGE_1G, PAGE_2M, PAGE_4K
from repro.vm.page_table import PageTable
from repro.vm.walker import FixedLatencyWalker, PageTableWalker, WalkerQueue

#: Leakage of one buffered mesh router / SMART router, mW (documented
#: modelling constants; see DESIGN.md energy substitution).
MESH_ROUTER_MW = 3.0
SMART_ROUTER_MW = 3.4
#: Fixed cost of taking a shootdown IPI on a core (handler entry/exit).
IPI_CYCLES = 30
#: Cache-disruption penalty charged to a core per walk another core's
#: request executed on it (remote-PTW pollution, §V Fig 17).
POLLUTION_CYCLES_PER_FILL = 6

_SHIFT = {PAGE_4K: 0, PAGE_2M: 9, PAGE_1G: 18}


class System:
    """One simulated chip."""

    def __init__(
        self,
        config: cfg.SystemConfig,
        record_intervals: bool = False,
        timeline: Optional[List[Tuple[str, int, int]]] = None,
        sink=NULL_SINK,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.config = config
        n = config.num_cores
        self.topology = MeshTopology(n)
        #: Precomputed fault-free route/latency tables, shared across
        #: systems of the same size (and with every interconnect built
        #: here): the single source of hop counts and uncontended
        #: traversal times.
        self.routes = shared_route_cache(n)
        #: Runtime fault state; None keeps every component on its exact
        #: fault-free code path (an empty plan is normalised to None by
        #: the engine, so rate-0 runs are bit-identical to plain runs).
        self.faults: Optional[FaultInjector] = None
        if faults is not None and not faults.is_empty:
            self.faults = FaultInjector(faults, self.topology, sink=sink)
        #: True when the active network routes around failed links (so
        #: an unreachable pair must be degraded before issuing).
        self._network_fault_aware = False
        l1_config = L1TlbConfig()
        if config.l1_scale != 1.0:
            l1_config = l1_config.scaled(config.l1_scale)
        self.l1s = [L1Tlb(l1_config) for _ in range(n)]
        self.record_intervals = record_intervals
        self.intervals: List[Tuple[int, int, int]] = []
        self.timeline = timeline
        self.sink = sink
        #: Bound event emitter, or None when unobserved — hot paths
        #: then skip building kwargs for a no-op sink call.
        self._event = sink.event if sink.enabled else None
        self.stats = TlbStats()

        # --- L2 organisation -------------------------------------------
        self.private_l2: List[PrivateL2Tlb] = []
        self.shared_l2 = None
        self.network = None
        self.mono_tile = self.topology.edge_tile
        scheme = config.scheme
        if scheme == cfg.PRIVATE:
            l2cfg = L2TlbConfig(
                config.entries_per_core, config.l2_ways, policy=config.policy
            )
            self.private_l2 = [PrivateL2Tlb(l2cfg) for _ in range(n)]
            self.l2_lookup_cycles = self.private_l2[0].lookup_cycles
        elif scheme == cfg.MONOLITHIC:
            banks = config.monolithic_banks or MonolithicSharedTlb.banks_for(n)
            self.shared_l2 = MonolithicSharedTlb(
                config.entries_per_core * n, banks, config.l2_ways,
                indexer=get_indexer(config.slice_indexing),
                policy=config.policy, arbitration=config.arbitration,
            )
            if config.fixed_shared_latency is not None:
                self.l2_lookup_cycles = config.fixed_shared_latency
            else:
                self.l2_lookup_cycles = self.shared_l2.lookup_cycles
            if config.interconnect == cfg.MESH:
                self.network = ContentionFreeMesh(
                    self.topology, sink=sink, faults=self.faults,
                    routes=self.routes,
                )
                self._network_fault_aware = True
            elif config.interconnect == cfg.SMART:
                self.network = SmartNetwork(
                    self.topology, config.smart_hpc, sink=sink,
                    faults=self.faults, routes=self.routes,
                )
                self._network_fault_aware = True
        else:  # distributed / nocstar / ideal
            self.shared_l2 = DistributedSharedTlb(
                n, config.entries_per_core, config.l2_ways,
                indexer=get_indexer(config.slice_indexing),
                policy=config.policy, arbitration=config.arbitration,
            )
            self.l2_lookup_cycles = self.shared_l2.lookup_cycles
            if scheme == cfg.DISTRIBUTED:
                if config.interconnect == cfg.BUS:
                    self.network = BusNetwork(self.topology)
                elif config.interconnect == cfg.FBFLY_WIDE:
                    self.network = FlattenedButterfly(self.topology)
                elif config.interconnect == cfg.FBFLY_NARROW:
                    self.network = FlattenedButterfly(
                        self.topology, narrow=True
                    )
                else:
                    self.network = ContentionFreeMesh(
                        self.topology, sink=sink, faults=self.faults,
                        routes=self.routes,
                    )
                    self._network_fault_aware = True
            elif scheme == cfg.NOCSTAR:
                # The idealised fabric abstracts links away entirely, so
                # link faults have nothing physical to act on there.
                net_faults = None if config.nocstar_ideal else self.faults
                self.network = NocstarInterconnect(
                    self.topology, config.nocstar, sink=sink,
                    faults=net_faults, routes=self.routes,
                )
                self._network_fault_aware = not config.nocstar_ideal

        # Scheme predicates, precomputed: the transaction hot paths
        # test them per message.
        self._is_monolithic = scheme == cfg.MONOLITHIC
        self._is_nocstar = isinstance(self.network, NocstarInterconnect)

        # Tables used by System itself (ideal-NOCSTAR timing and
        # shootdown delivery both reduce to pure hop-count formulas).
        self._hops = self.routes.hops
        if self._is_nocstar:
            self._nocstar_cycles = self.routes.nocstar_cycles(
                config.nocstar.hpc_max
            )

        # --- Walkers ------------------------------------------------------
        self.page_table = PageTable()
        if config.ptw_fixed is not None:
            self.walker = FixedLatencyWalker(
                self.page_table, config.ptw_fixed, sink=sink
            )
        else:
            self.caches = CacheHierarchy(n)
            self.walker = PageTableWalker(
                self.page_table, self.caches, n, sink=sink
            )
        self.walker_queues = [WalkerQueue() for _ in range(n)]

        if config.qos_way_quota is not None and self.shared_l2 is not None:
            for shard in self.shared_l2.shards:
                shard.way_quota = config.qos_way_quota

        # --- Prefetch / shootdown -----------------------------------------
        self.prefetcher = SequentialPrefetcher(config.prefetch_distances)
        self.invalidation = InvalidationController(
            n, min(config.leader_granularity, n)
        )
        #: Stall cycles to apply to each core at its next resume.
        self.pending_penalty = [0] * n
        #: Fraction of access latency the OoO core hides (see configs).
        self._visible = 1.0 - config.translation_overlap
        #: Service classes the shared-port reservations tag their
        #: traffic with; all zero under FIFO arbitration, so the FIFO
        #: reservation arithmetic is untouched (shootdown sweeps stay
        #: class 0 — the highest — in both modes).
        prio = config.arbitration == PRIORITY
        self._klass_walk = WALK_CLASS if prio else 0
        self._klass_prefetch = PREFETCH_CLASS if prio else 0

    # ------------------------------------------------------------------
    # Translation path below the L1 probe

    def l2_transaction(
        self, core: int, asid: int, size: int, page_number: int, now: int
    ) -> int:
        """Resolve an L1 TLB miss; returns the stall in cycles.

        The caller (engine fast path) has already probed the L1 and
        inserts the translation into it afterwards.
        """
        if self.config.scheme == cfg.PRIVATE:
            return self._private_transaction(core, asid, size, page_number, now)
        return self._shared_transaction(core, asid, size, page_number, now)

    def _charge(self, access_cycles: int, walk_cycles: int) -> int:
        """Stall visible to the core: OoO hides part of the *access*
        latency (SRAM + interconnect), never the walk."""
        visible = self._visible
        if visible == 1.0:
            # int(x * 1.0) == x exactly for any cycle count below 2**53,
            # so the fast path is bit-identical, not an approximation.
            return access_cycles + walk_cycles
        return int(access_cycles * visible) + walk_cycles

    def _private_transaction(
        self, core: int, asid: int, size: int, page_number: int, now: int
    ) -> int:
        l2 = self.private_l2[core]
        lookup_done = now + self.l2_lookup_cycles
        hit = l2.lookup_page_number(asid, size, page_number)
        if self._event is not None:
            self._event(
                lookup_done, "l2_lookup", core=core, slice=core, hit=hit
            )
        if hit:
            self.stats.l2_hits += 1
            return self._charge(self.l2_lookup_cycles, 0)
        self.stats.l2_misses += 1
        done = self._walk_at(core, asid, size, page_number, lookup_done)
        l2.insert_page_number(asid, size, page_number)
        if self.prefetcher.enabled:
            for pa, ps, pp in self.prefetcher.candidates(asid, size, page_number):
                if l2.lookup_page_number(pa, ps, pp):
                    continue
                self._async_prefetch_walk(core, pa, ps, pp, done)
                l2.insert_page_number(pa, ps, pp)
                self.stats.prefetches += 1
        return self._charge(self.l2_lookup_cycles, done - lookup_done)

    def _shared_transaction(
        self, core: int, asid: int, size: int, page_number: int, now: int
    ) -> int:
        shared = self.shared_l2
        home = shared.home(page_number, asid)
        dst_tile = self.mono_tile if self._is_monolithic else home
        inj = self.faults
        if inj is not None:
            # Degrade rather than hang: a dead home slice cannot serve
            # the lookup, and a partitioned pair cannot complete the
            # round trip — either way the request walks locally (no
            # shared fill: the slice would never receive it).
            dead_slice = not self._is_monolithic and inj.slice_dead(home)
            unreachable = (
                core != dst_tile
                and self._network_fault_aware
                and not inj.router.reachable_round_trip(core, dst_tile)
            )
            if dead_slice or unreachable:
                self.stats.l2_misses += 1
                inj.record_degraded_walk(now, core, dst_tile)
                walk_done = self._walk_at(core, asid, size, page_number, now)
                if self.timeline is not None:
                    self.timeline.append(("walk", now, walk_done))
                return self._charge(0, walk_done - now)
        held_links = ()

        # Request leg.
        if self._is_nocstar:
            if self.config.nocstar_ideal:
                hops = self._hops[core][dst_tile]
                dur = self._nocstar_cycles[core][dst_tile]
                arrival = now + (1 + dur if hops else 0)
                self.network.messages += 1
                self.network.total_hops += hops
                self.network.uncontended_messages += 1 if hops else 0
            elif self.config.nocstar.acquire == ROUND_TRIP:
                traversal = self.network.send(core, dst_tile, now, hold=True)
                arrival = traversal.ready
                held_links = traversal.links
            else:
                traversal = self.network.send(core, dst_tile, now)
                arrival = traversal.ready
        elif self.network is not None:
            arrival = self.network.send(core, dst_tile, now).arrival
            if self._is_monolithic:
                arrival += MonolithicSharedTlb.INGRESS_CYCLES
        else:
            arrival = now  # ideal zero-latency interconnect / fixed-latency

        # Slice/bank port + SRAM lookup.
        start = shared.reserve_read(home, arrival, self._klass_walk)
        lookup_done = start + self.l2_lookup_cycles
        if self.record_intervals:
            self.intervals.append((arrival, lookup_done, home))
        if self.timeline is not None:
            self.timeline.append(("request-network", now, arrival))
            self.timeline.append(("slice-lookup", start, lookup_done))

        hit = shared.lookup_page_number(asid, size, page_number, home)
        if self._event is not None:
            self._event(
                lookup_done, "l2_lookup", core=core, slice=home, hit=hit
            )
        walk_cycles = 0
        if hit:
            self.stats.l2_hits += 1
            response_from = lookup_done
        else:
            self.stats.l2_misses += 1
            if self.config.ptw_policy == cfg.PTW_REMOTE and not self._is_monolithic:
                walk_core = dst_tile
                walk_done = self._walk_at(
                    walk_core, asid, size, page_number, lookup_done
                )
                if walk_core != core and self.config.ptw_fixed is None:
                    self.pending_penalty[walk_core] += (
                        self.walker.last_pollution * POLLUTION_CYCLES_PER_FILL
                    )
                shared.insert_page_number(asid, size, page_number)
                shared.reserve_write(home, walk_done, self._klass_walk)
                walk_cycles = walk_done - lookup_done
                response_from = walk_done
            else:
                # Miss message returns to the requester, which walks and
                # then sends the fill back to the home slice.
                miss_reply = self._response(core, dst_tile, lookup_done, held_links)
                walk_done = self._walk_at(core, asid, size, page_number, miss_reply)
                held_links = ()  # released by the miss reply
                self._async_fill(core, dst_tile, home, walk_done)
                shared.insert_page_number(asid, size, page_number)
                if self.prefetcher.enabled:
                    self._prefetch_fill(core, asid, size, page_number, walk_done)
                if self.timeline is not None:
                    self.timeline.append(("walk", miss_reply, walk_done))
                return self._charge(miss_reply - now, walk_done - miss_reply)

        response_ready = self._response(core, dst_tile, response_from, held_links)
        if self.timeline is not None:
            self.timeline.append(("response-network", response_from, response_ready))
        if not hit and self.prefetcher.enabled:
            self._prefetch_fill(core, asid, size, page_number, response_ready)
        return self._charge(response_ready - now - walk_cycles, walk_cycles)

    def _response(
        self, core: int, dst_tile: int, ready_at: int, held_links
    ) -> int:
        """Send the response (or miss message) back to the requester."""
        if self._is_nocstar:
            if self.config.nocstar_ideal:
                hops = self._hops[dst_tile][core]
                dur = self._nocstar_cycles[dst_tile][core]
                self.network.messages += 1
                self.network.total_hops += hops
                self.network.uncontended_messages += 1 if hops else 0
                return ready_at + dur
            if held_links:
                # Round-trip acquisition: path still ours, no arbitration.
                dur = self.network.traversal_cycles(len(held_links))
                ready = ready_at + dur
                self.network.release(held_links, ready)
                self.network.messages += 1
                self.network.total_hops += len(held_links)
                return ready
            return self.network.send(
                dst_tile, core, ready_at, speculative_setup=True
            ).ready
        if self.network is not None:
            egress = (
                MonolithicSharedTlb.INGRESS_CYCLES if self._is_monolithic else 0
            )
            return self.network.send(dst_tile, core, ready_at).arrival + egress
        return ready_at

    def _async_fill(self, core: int, dst_tile: int, home: int, when: int) -> None:
        """Fire-and-forget insert message from requester back to the slice."""
        if self.network is not None:
            # Fills on the ideal NOCSTAR fabric still arbitrate for links
            # (and can retry), unlike its request and response legs.
            self.network.send(core, dst_tile, when)
        self.shared_l2.reserve_write(home, when, self._klass_walk)

    def _prefetch_fill(
        self, core: int, asid: int, size: int, page_number: int, when: int
    ) -> None:
        """Prefetch neighbour translations into their home slices.

        Each prefetched translation requires its own page walk, which
        occupies (but does not stall on) the requesting core's walkers
        — this is what makes over-aggressive distances (+/-3) pollute,
        as the paper observed."""
        for pa, ps, pp in self.prefetcher.candidates(asid, size, page_number):
            if self.shared_l2.probe_page_number(pa, ps, pp):
                continue
            self._async_prefetch_walk(core, pa, ps, pp, when)
            self.shared_l2.insert_page_number(pa, ps, pp)
            self.shared_l2.reserve_write(
                self.shared_l2.home(pp, pa), when, self._klass_prefetch
            )
            self.stats.prefetches += 1

    def _async_prefetch_walk(
        self, core: int, asid: int, size: int, page_number: int, when: int
    ) -> None:
        latency = self.walker.walk(
            core, asid, page_number << _SHIFT[size], size, when
        )
        if self.faults is not None:
            latency = self.faults.walk_latency(latency)
        self.walker_queues[core].admit(when, latency)

    def _walk_at(
        self, core: int, asid: int, size: int, page_number: int, now: int
    ) -> int:
        """Queue and perform a page walk at ``core``'s hardware walker."""
        vpn = page_number << _SHIFT[size]
        latency = self.walker.walk(core, asid, vpn, size, now)
        self.stats.walks += 1
        if self.faults is not None:
            latency = self.faults.walk_latency(latency)
        return self.walker_queues[core].admit(now, latency)

    # ------------------------------------------------------------------
    # Shootdowns and storms

    def apply_shootdown(
        self, initiator: int, entries: List[Tuple[int, int, int]], now: int
    ) -> None:
        """One remapping event: IPI all cores, invalidate L1s and L2.

        Charges every core the IPI handler cost; the initiator
        additionally waits for the L2 invalidations to complete, which
        is where leader policy and slice-port congestion matter.
        """
        n = self.config.num_cores
        self.sink.event(
            now, "shootdown", initiator=initiator, entries=len(entries)
        )
        # Every core's L1s (and private L2s) share one geometry, so the
        # keys are bucketed by set once and the buckets reused per core.
        by_size: Dict[int, List[Tuple[int, int, int]]] = {}
        for entry in entries:
            by_size.setdefault(entry[1], []).append(entry)
        l1_groups = [
            (size, self.l1s[0].array(size).group_by_set(keys))
            for size, keys in by_size.items()
        ]
        pending = self.pending_penalty
        for core in range(n):
            l1 = self.l1s[core]
            for size, groups in l1_groups:
                l1.array(size).invalidate_groups(groups)
            pending[core] += IPI_CYCLES
        if self.config.scheme == cfg.PRIVATE:
            l2_groups = self.private_l2[0].array.group_by_set(entries)
            for core in range(n):
                self.private_l2[core].array.invalidate_groups(l2_groups)
                pending[core] += len(entries)
            return
        shared = self.shared_l2
        per_home: Dict[int, List[Tuple[int, int, int]]] = {}
        for entry in entries:
            per_home.setdefault(shared.home(entry[2], entry[0]), []).append(
                entry
            )
        plan = self.invalidation.plan(initiator, sorted(per_home))
        self.stats.shootdown_messages += len(plan.messages)
        completion = now
        sender_done: Dict[int, int] = {}
        for message in plan.messages:
            dst_tile = self.mono_tile if self._is_monolithic else message.dst
            if message.kind == "relay":
                dst_tile = message.dst
            arrival = self._plain_send(message.src, dst_tile, now)
            if message.kind == "invalidate":
                finish = shared.write_ports[message.dst].reserve_many(
                    arrival, max(1, len(per_home.get(message.dst, ())))
                )
            else:
                finish = arrival
            # The IPI handler issues all its invalidates, then spins
            # until the last one is acknowledged — the congestion that
            # penalises the naive every-core-relays policy (Fig 16R).
            sender_done[message.src] = max(
                sender_done.get(message.src, now), finish
            )
            completion = max(completion, finish)
        for sender, done in sender_done.items():
            if sender != initiator:
                pending[sender] += done - now
        for home, keys in per_home.items():
            shard = shared.shards[home]
            shard.invalidate_groups(shard.group_by_set(keys))
        pending[initiator] += completion - now

    def _plain_send(self, src: int, dst: int, now: int) -> int:
        """Deliver a shootdown relay/invalidate message.

        IPI and invalidation traffic rides the chip's primary coherence
        NoC (a buffered mesh), not the latency-tuned TLB sideband — a
        flood of simultaneous invalidates would otherwise jam the
        circuit-switched fabric's all-or-nothing arbitration.  Their
        congestion shows up where it belongs: at the slice write ports
        and in the senders' IPI-handler stalls.

        Under fault injection delivery is delegated to the injector:
        the message is routed around dead links, retried with backoff
        on transient drops, and skipped (zero cost, counted) when the
        target is partitioned away.  With no dead links and no drop
        probability the injector's cost formula reduces to exactly the
        expression below."""
        if self.faults is not None:
            arrival = self.faults.shootdown_send(src, dst, now)
            return now if arrival is None else arrival
        return now + 2 * self._hops[src][dst] + 1

    def flush_all_tlbs(self) -> None:
        """Full TLB flush (context-switch storms, §V)."""
        for l1 in self.l1s:
            l1.flush()
        if self.private_l2:
            for l2 in self.private_l2:
                l2.flush()
        if self.shared_l2 is not None:
            self.shared_l2.flush()
        self.stats.flushes += 1

    # ------------------------------------------------------------------
    # Bookkeeping

    def static_power_mw(self) -> float:
        config = self.config
        n = config.num_cores
        if config.scheme == cfg.PRIVATE:
            return n * sram.budget(config.entries_per_core).power_mw
        if config.scheme == cfg.MONOLITHIC:
            power = sram.budget(config.entries_per_core * n).power_mw
            if config.interconnect == cfg.SMART:
                power += n * SMART_ROUTER_MW
            elif config.interconnect == cfg.MESH:
                power += n * MESH_ROUTER_MW
            return power
        power = n * sram.budget(config.entries_per_core).power_mw
        if config.scheme == cfg.NOCSTAR:
            power += n * (SWITCH_POWER_MW + ARBITERS_POWER_MW)
        elif config.scheme == cfg.DISTRIBUTED:
            if config.interconnect == cfg.BUS:
                power += n * 0.5  # wire drivers only
            elif config.interconnect in (cfg.FBFLY_WIDE, cfg.FBFLY_NARROW):
                power += n * 2 * MESH_ROUTER_MW  # high-radix crossbars
            else:
                power += n * MESH_ROUTER_MW
        return power

    def finalize_stats(self) -> None:
        """Fold structure counters into the run-level stats."""
        self.stats.l1_hits = sum(l1.hits for l1 in self.l1s)
        self.stats.l1_misses = sum(l1.misses for l1 in self.l1s)

    def finalize_metrics(self, cycles: int) -> None:
        """Publish end-of-run gauges/counters into the metrics sink.

        Called once after :meth:`finalize_stats`; a no-op sink makes
        this free.  Everything here is *derived* from simulation state,
        so publishing it can never perturb timing.
        """
        sink = self.sink
        if not sink.enabled:
            return
        sink.gauge("run.cycles", cycles)
        sink.count("tlb.l1.hits", self.stats.l1_hits)
        sink.count("tlb.l1.misses", self.stats.l1_misses)
        sink.count("tlb.l2.hits", self.stats.l2_hits)
        sink.count("tlb.l2.misses", self.stats.l2_misses)
        sink.count("walk.count", self.stats.walks)
        sink.count("tlb.prefetches", self.stats.prefetches)
        sink.count("shootdown.messages", self.stats.shootdown_messages)
        if self.shared_l2 is not None:
            slices = self.shared_l2.shards
        else:
            slices = [l2.array for l2 in self.private_l2]
        for i, arr in enumerate(slices):
            sink.gauge(f"tlb.slice.{i}.hits", arr.hits)
            sink.gauge(f"tlb.slice.{i}.misses", arr.misses)
            sink.gauge(f"tlb.slice.{i}.occupancy", arr.occupancy)
            sink.gauge(f"tlb.slice.{i}.evictions", arr.evictions)
        sink.count(
            "walk.queued", sum(q.queued_walks for q in self.walker_queues)
        )
        sink.count(
            "walk.queue_cycles",
            sum(q.total_queue_cycles for q in self.walker_queues),
        )
        network = self.network
        if network is not None:
            for name in (
                "messages",
                "total_hops",
                "total_setup_retries",
                "premature_stops",
                "total_queue_cycles",
                "control_requests",
                "uncontended_messages",
                "local_messages",
            ):
                value = getattr(network, name, None)
                if value is not None:
                    sink.count(f"noc.{name}", value)
            busy_fn = getattr(network, "link_busy_cycles", None)
            if busy_fn is not None:
                for (src, dst), busy in busy_fn().items():
                    sink.gauge(f"noc.link.{src}>{dst}.busy_cycles", busy)
                    sink.gauge(
                        f"noc.link.{src}>{dst}.util",
                        busy / cycles if cycles else 0.0,
                    )
        if self.faults is not None:
            self.faults.publish_metrics()
        trace = sink.trace
        if trace is not None:
            sink.gauge("trace.emitted", trace.emitted)
            sink.gauge("trace.dropped", trace.dropped)

    def energy_summary(self, cycles: int) -> Dict[str, float]:
        model = EnergyModel(static_power_mw=self.static_power_mw())
        model.l1_lookup(self.stats.l1_accesses)
        if self.config.scheme == cfg.PRIVATE:
            entries = self.config.entries_per_core
            accesses = sum(l2.accesses for l2 in self.private_l2)
            model.l2_lookup(entries, accesses)
        else:
            if self._is_monolithic:
                entries = self.config.entries_per_core * self.config.num_cores
            else:
                entries = self.config.entries_per_core
            model.l2_lookup(entries, self.shared_l2.accesses)
        if self._is_nocstar:
            hops = self.network.total_hops
            if self.faults is not None:
                # Fallback hops traversed the buffered mesh, not the
                # latchless switches: charge them at the mesh rate.
                fallback = self.faults.fallback_hops
                model.nocstar_hops(hops - fallback)
                model.mesh_hops(fallback)
            else:
                model.nocstar_hops(hops)
            model.control(self.network.control_requests)
        elif self.network is not None:
            model.mesh_hops(self.network.total_hops)
        # Run-level walk energy is charged at the paper's 2TB-footprint
        # rate (the multi-GB page table keeps leaf PTEs effectively
        # uncached), so walk *elimination* carries the energy weight the
        # paper reports in Fig 14 — see EnergyParams.big_footprint_walk_pj.
        total_walks = self.stats.walks + self.stats.prefetches
        model.breakdown.walk_pj += (
            model.params.big_footprint_walk_pj * total_walks
        )
        model.finalize(cycles)
        return model.breakdown.as_dict()

    def network_summary(self) -> Dict[str, float]:
        if self._is_nocstar:
            return {
                "messages": self.network.messages,
                "mean_setup_retries": self.network.mean_setup_retries,
                "no_contention_fraction": self.network.no_contention_fraction,
                "mean_hops": (
                    self.network.total_hops / self.network.messages
                    if self.network.messages
                    else 0.0
                ),
            }
        if self.network is not None:
            messages = self.network.messages
            return {
                "messages": messages,
                "mean_hops": (
                    self.network.total_hops / messages
                    if messages and hasattr(self.network, "total_hops")
                    else 0.0
                ),
            }
        return {}

    def fault_summary(self) -> Optional[Dict[str, int]]:
        """Degradation counters of this run, or None when fault-free."""
        return self.faults.summary() if self.faults is not None else None

    def walk_level_summary(self) -> Dict[str, int]:
        if isinstance(self.walker, PageTableWalker):
            return dict(self.walker.level_hits)
        return {"fixed": self.walker.walks}
