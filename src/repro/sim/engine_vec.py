"""Vectorized mega-mesh machinery for the batched engine.

The batched fast path (:mod:`repro.sim.engine`) still performs one
Python-level L1 probe per trace record during its compile pre-pass and
one Python-level heap transaction per quantum window.  At 64 cores
that is fine; at 256-1024 tiles the per-record interpreter overhead
dominates wall-clock.  This module supplies the three pieces the
``_drive_vectorized`` loop composes, each proven byte-identical to the
scalar path it replaces (the differential corpus runs all three):

* :func:`bulk_fill_compile_cache` — the numpy compile pre-pass.  All
  per-core miss streams are column-stacked into ``(cores, records)``
  arrays; the per-core L1 LRU arrays are simulated *in lockstep across
  cores* (one numpy step per trace position, per page size: set-index
  gather, key-match ``argmax`` for the hit way, an MRU shift expressed
  as a masked column roll, and segment-sums/``cumsum`` for the cycle
  prefix tables).  The output is written into the engine's per-workload
  compile cache in exactly the scalar ``_compile_core_cached`` format
  (Python-int prefix lists, miss positions, miss records, counter
  deltas), so the drive loop — and any later batched run sharing the
  workload — consumes it unchanged.
* :func:`make_lean_transaction` — an inlined mesh-distributed L2
  transaction for the un-observed fault-free common case, driving the
  *real* slice/port/walker state through flattened int tables (the
  System's shared RouteCache rows, raw ``_PortSet`` cycle dicts, raw
  per-set ``LruState`` OrderedDicts) and the walker's own ``walk``,
  with counters accumulated in bulk and folded back at the end.  Any configuration outside its gate
  (non-mesh interconnects, priority arbitration, non-LRU slices, QoS
  quotas, prefetch, faults, observability) falls through to the
  ordinary ``System.l2_transaction`` — correct for every config, just
  not flattened.
* :func:`vectorized_wanted` — the dispatch predicate.  Auto-engages at
  ``>= 256`` cores; ``REPRO_VECTORIZED_ENGINE=1`` forces it on at any
  scale (the differential harness does this), ``=0`` disables it.
  Storms, shootdowns, ``REPRO_REFERENCE_ENGINE=1``, watchdogs, and
  remote-PTW configs all fall back exactly as the batched path's own
  gates dictate — the env toggle can never change a result, only which
  engine produces it.

Why the no-expiry scheduler in ``_drive_vectorized`` is exact: absent
storms, shootdowns, and remote-PTW pollution, a quantum-expiry heap pop
neither reads nor writes shared state (``pending_penalty`` stays zero,
nothing fires at the frontier), so only *transaction* pops are
observable.  Each core's transaction call time is a pure function of
its own resume time and its compiled prefix table, so the loop computes
it directly with the same windowed ``bisect`` the batched loop applies
one quantum at a time, and a numpy ``argmin``/cohort scan over the
per-core call-time vector reproduces the heap's ``(time, core)`` pop
order exactly.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.sim import configs as cfg
from repro.tlb.l2_shared import FIFO
from repro.vm.address import PAGE_1G

#: Environment switch selecting the record-at-a-time reference drive
#: loop (see :mod:`repro.sim.engine`); it wins over every other loop
#: and does not affect routing.  Empty and "0" mean "off".
REFERENCE_ENV = "REPRO_REFERENCE_ENGINE"

#: Environment switch for the vectorized mega-mesh path: "0" disables,
#: any other non-empty value forces it on at every core count, unset
#: auto-engages at VECTORIZED_MIN_CORES.  Read at use time so tests can
#: flip it per run.  Never affects results — only which bit-identical
#: engine produces them — so ENGINE_VERSION is untouched.
VECTORIZED_ENV = "REPRO_VECTORIZED_ENGINE"

#: Core count at which the vectorized path engages by default.
VECTORIZED_MIN_CORES = 256

#: Packing layout for (asid, size-code, page_number) -> one int64 key.
_PN_BITS = 48
_CODE_BITS = 2


def vectorized_mode(num_cores: int) -> bool:
    """Whether the env/threshold selects the vectorized drive loop."""
    value = os.environ.get(VECTORIZED_ENV, "")
    if value == "0":
        return False
    if value:
        return True
    return num_cores >= VECTORIZED_MIN_CORES


def reference_mode() -> bool:
    """True when the reference drive loop is forced."""
    return os.environ.get(REFERENCE_ENV, "") not in ("", "0")


def vectorized_wanted(config, watchdog_cycles: Optional[int]) -> bool:
    """Dispatch gate for ``_drive_vectorized`` (inside the batched gate).

    Beyond the batched path's own conditions (no storms/shootdowns/
    reference mode, checked by the caller) the no-expiry scheduler
    needs two more: no watchdog (the watchdog observes expiry-pop
    times) and no remote-PTW pollution (the only transaction-side
    writer of ``pending_penalty``).
    """
    return (
        watchdog_cycles is None
        and config.ptw_policy == cfg.PTW_REQUESTER
        and vectorized_mode(config.num_cores)
    )


def _merged_streams(workload, num_cores: int) -> Optional[List]:
    """Every core's merged stream, or None when shapes are unsuitable."""
    from repro.sim.engine import _merged_stream

    streams = []
    length = None
    for core in range(num_cores):
        core_streams = workload.core_streams(core)
        merged = (
            core_streams[0]
            if len(core_streams) == 1
            else _merged_stream(core_streams)
        )
        if length is None:
            length = len(merged)
        elif len(merged) != length:
            return None  # ragged cores: scalar compile handles them
        streams.append(merged)
    if not length:
        return None
    return streams


def bulk_fill_compile_cache(workload, l1s, cache) -> bool:
    """Compile every core's stream at once; fill the engine cache.

    Returns True when the cache now holds every core (either it already
    did, or the lockstep pass just populated it); False when the
    workload's shape or value ranges fall outside the vectorized
    assumptions, in which case the caller's per-core scalar compile
    path applies unchanged.
    """
    num_cores = len(l1s)
    proto = l1s[0]
    size_order = list(proto._arrays)
    geoms = [proto.array(size) for size in size_order]
    key_suffix = tuple(
        sorted((size, a.entries, a.ways, a.index_shift)
               for size, a in zip(size_order, geoms))
    )
    if all((core,) + key_suffix in cache for core in range(num_cores)):
        return True

    streams = _merged_streams(workload, num_cores)
    if streams is None:
        return False
    recs = np.asarray(streams, dtype=np.int64)
    if recs.ndim != 3 or recs.shape[2] != 4:
        return False
    gaps = recs[:, :, 0]
    asids = recs[:, :, 1]
    sizes = recs[:, :, 2]
    pns = recs[:, :, 3]
    num_records = recs.shape[1]
    if (
        gaps.min() < 0
        or asids.min() < 0
        or pns.min() < 0
        or asids.max() >= 1 << (63 - _PN_BITS - _CODE_BITS)
        or pns.max() >= 1 << _PN_BITS
        or len(size_order) >= 1 << _CODE_BITS
    ):
        return False

    codes = np.full(sizes.shape, -1, dtype=np.int64)
    for code, size in enumerate(size_order):
        codes[sizes == size] = code
    if codes.min() < 0:
        return False  # a page size with no L1 array; let the scalar path raise
    packed = (
        (asids << (_PN_BITS + _CODE_BITS)) | (codes << _PN_BITS) | pns
    )

    # Lockstep per-size LRU state: keys[(core, set, way)] ordered
    # MRU-first with -1 sentinels, plus an occupancy count per set.
    state = []
    for array in geoms:
        ways = array.ways
        num_sets = array.num_sets
        state.append((
            np.full((num_cores, num_sets, ways), -1, dtype=np.int64),
            np.zeros((num_cores, num_sets), dtype=np.int32),
            ways,
            array.index_shift,
            num_sets,
        ))
    n_codes = len(size_order)
    hits_cs = np.zeros((num_cores, n_codes), dtype=np.int64)
    misses_cs = np.zeros((num_cores, n_codes), dtype=np.int64)
    evicts_cs = np.zeros((num_cores, n_codes), dtype=np.int64)
    miss_core_chunks: List[np.ndarray] = []
    miss_step_chunks: List[np.ndarray] = []

    for r in range(num_records):
        col = codes[:, r]
        for code in np.unique(col).tolist():
            keys, cnt, ways, shift, num_sets = state[code]
            members = np.flatnonzero(col == code)
            key_m = packed[members, r]
            set_idx = (pns[members, r] >> shift) % num_sets
            rows = keys[members, set_idx]  # (K, ways) gathered copy
            hit_mask = rows == key_m[:, None]
            is_hit = hit_mask.any(axis=1)
            full = cnt[members, set_idx]
            # The hit way (or, on a miss, the last way: either the LRU
            # victim of a full set or a don't-care sentinel slot).
            way = np.where(is_hit, hit_mask.argmax(axis=1), ways - 1)
            # MRU update: new key to way 0, ways 1..way shift right.
            out = np.empty_like(rows)
            out[:, 0] = key_m
            if ways > 1:
                lanes = np.arange(1, ways)
                out[:, 1:] = np.where(
                    lanes[None, :] <= way[:, None], rows[:, :-1], rows[:, 1:]
                )
            keys[members, set_idx] = out
            cnt[members, set_idx] = np.where(
                is_hit, full, np.minimum(full + 1, ways)
            )
            hits_cs[members[is_hit], code] += 1
            missed = members[~is_hit]
            misses_cs[missed, code] += 1
            evicts_cs[members[(~is_hit) & (full >= ways)], code] += 1
            if missed.size:
                miss_core_chunks.append(missed)
                miss_step_chunks.append(
                    np.full(missed.size, r, dtype=np.int64)
                )

    if miss_core_chunks:
        miss_cores = np.concatenate(miss_core_chunks)
        miss_steps = np.concatenate(miss_step_chunks)
        # Collection is step-major; a stable core sort yields per-core
        # segments with steps ascending — the scalar emission order.
        order = np.argsort(miss_cores, kind="stable")
        miss_cores = miss_cores[order]
        miss_steps = miss_steps[order]
    else:
        miss_cores = np.empty(0, dtype=np.int64)
        miss_steps = np.empty(0, dtype=np.int64)
    counts = np.bincount(miss_cores, minlength=num_cores)
    offsets = np.zeros(num_cores + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])

    prefix_all = np.zeros((num_cores, num_records + 1), dtype=np.int64)
    np.cumsum(gaps + 1, axis=1, out=prefix_all[:, 1:])

    for core in range(num_cores):
        steps = miss_steps[offsets[core]:offsets[core + 1]]
        miss_rec = list(zip(
            asids[core, steps].tolist(),
            sizes[core, steps].tolist(),
            pns[core, steps].tolist(),
        ))
        deltas = tuple(
            (
                size,
                (
                    int(hits_cs[core, code]),
                    int(misses_cs[core, code]),
                    # One insert per miss; admit() spills on full sets.
                    int(misses_cs[core, code]),
                    int(evicts_cs[core, code]),
                ),
            )
            for code, size in enumerate(size_order)
        )
        cache[(core,) + key_suffix] = (
            prefix_all[core].tolist(),
            steps.tolist(),
            miss_rec,
            deltas,
        )
    return True


def make_lean_transaction(
    system, sink
) -> Optional[Tuple[Callable[[int, int, int, int, int], int], Callable[[], None]]]:
    """Inlined mesh-distributed transaction, or None outside its gate.

    Returns ``(transaction, finalize)``: ``transaction`` matches the
    ``System.l2_transaction`` signature and semantics byte-for-byte for
    the gated configuration; ``finalize`` folds the locally accumulated
    slice/stat/network counters back into the live objects and must run
    once after the drive loop.
    """
    config = system.config
    if (
        config.scheme != cfg.DISTRIBUTED
        or config.interconnect != cfg.MESH
        or config.slice_indexing != "modulo"
        or config.policy != "lru"
        or config.arbitration != FIFO
        or config.qos_way_quota is not None
        or config.ptw_policy != cfg.PTW_REQUESTER
        or system.prefetcher.enabled
        or system.faults is not None
        or system.record_intervals
        or system.timeline is not None
        or sink.enabled
    ):
        return None

    shared = system.shared_l2
    num_slices = shared.num_shards
    lat_rows = system.routes.mesh_latency(system.network.cycles_per_hop)
    hop_rows = system.routes.hops
    lookup_cycles = system.l2_lookup_cycles
    read_ports = shared.read_ports
    write_ports = shared.write_ports
    read_starts = [ports._starts for ports in read_ports]
    write_starts = [ports._starts for ports in write_ports]
    num_read = read_ports[0].num_ports
    num_write = write_ports[0].num_ports
    slice_sets = [shard._sets for shard in shared.shards]
    shard0 = shared.shards[0]
    shard_shift = shard0.index_shift
    shard_num_sets = shard0.num_sets
    shard_ways = shard0.ways
    make_set = shard0._state_cls  # materialises lazily-constructed sets
    visible = system._visible
    overlap_off = visible == 1.0
    do_walk = system.walker.walk
    from repro.sim.system import _SHIFT  # local: avoids a module cycle

    shifts = dict(_SHIFT)
    queues = system.walker_queues
    queue_busy = [q._busy_until for q in queues]

    slice_hits = [0] * num_slices
    slice_misses = [0] * num_slices
    slice_inserts = [0] * num_slices
    slice_evicts = [0] * num_slices
    # [l2_hits, l2_misses, messages, total_hops, walks]
    totals = [0, 0, 0, 0, 0]

    def transaction(
        core: int, asid: int, size: int, page_number: int, now: int
    ) -> int:
        home = page_number % num_slices
        latency = lat_rows[core][home]  # symmetric: also the return leg
        starts = read_starts[home]
        start = now + latency
        arrival = start
        while starts.get(start, 0) >= num_read:
            start += 1
        starts[start] = starts.get(start, 0) + 1
        if start != arrival:
            read_ports[home].conflict_cycles += start - arrival
        lookup_done = start + lookup_cycles
        hops = hop_rows[core][home]
        if size != PAGE_1G:
            sets = slice_sets[home]
            set_idx = (page_number >> shard_shift) % shard_num_sets
            cache_set = sets[set_idx]
            if cache_set is None:
                cache_set = sets[set_idx] = make_set(shard_ways)
            key = (asid, size, page_number)
            if key in cache_set:
                cache_set.move_to_end(key)
                slice_hits[home] += 1
                totals[0] += 1
                totals[2] += 2  # request + response
                totals[3] += 2 * hops
                access = lookup_done + latency - now
                if overlap_off:
                    return access
                return int(access * visible)
        else:
            cache_set = None
        # Miss: reply to the requester, walk there, fill back to home.
        slice_misses[home] += 1
        totals[1] += 1
        totals[2] += 3  # request + miss reply + fill
        totals[3] += 3 * hops
        miss_reply = lookup_done + latency
        # Inlined System._walk_at: the walk plus the two-walker
        # admit (ties pick walker 0, exactly WalkerQueue.admit's min).
        cycles = do_walk(
            core, asid, page_number << shifts[size], size, miss_reply
        )
        totals[4] += 1
        busy = queue_busy[core]
        if busy[0] <= busy[1]:
            walker_slot = 0
            avail = busy[0]
        else:
            walker_slot = 1
            avail = busy[1]
        if avail > miss_reply:
            queue = queues[core]
            queue.total_queue_cycles += avail - miss_reply
            queue.queued_walks += 1
        else:
            avail = miss_reply
        walk_done = avail + cycles
        busy[walker_slot] = walk_done
        wstarts = write_starts[home]
        wstart = walk_done
        while wstarts.get(wstart, 0) >= num_write:
            wstart += 1
        wstarts[wstart] = wstarts.get(wstart, 0) + 1
        if wstart != walk_done:
            write_ports[home].conflict_cycles += wstart - walk_done
        if cache_set is not None:  # 1GB translations are never cached
            if len(cache_set) >= shard_ways:
                cache_set.popitem(last=False)
                slice_evicts[home] += 1
            cache_set[key] = None
            slice_inserts[home] += 1
        walk_cycles = walk_done - miss_reply
        if overlap_off:
            return miss_reply - now + walk_cycles
        return int((miss_reply - now) * visible) + walk_cycles

    def finalize() -> None:
        for i, shard in enumerate(shared.shards):
            shard.hits += slice_hits[i]
            shard.misses += slice_misses[i]
            shard.insertions += slice_inserts[i]
            shard.evictions += slice_evicts[i]
        stats = system.stats
        stats.l2_hits += totals[0]
        stats.l2_misses += totals[1]
        stats.walks += totals[4]
        network = system.network
        network.messages += totals[2]
        network.total_hops += totals[3]

    return transaction, finalize
