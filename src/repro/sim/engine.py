"""Quantum-bounded discrete-event engine.

Cores are actors on a time-ordered heap.  A popped core executes trace
records inline — the L1-TLB-hit fast path never touches the heap —
until it suffers an L1 miss or exhausts a run-ahead quantum, then
resolves the miss against the system's shared resource state and
re-enters the heap at its resume time.  The quantum bounds how far a
core's resource reservations can run ahead of the global frontier (see
DESIGN.md, simulator notes).

Four drive loops produce bit-identical results:

* the **batched fast path** (default): absent storms and shootdowns,
  nothing outside a core ever touches its L1 TLBs, so each core's
  L1 hit/miss sequence is a pure function of its merged trace stream.
  A pre-pass replays every stream through the real L1 arrays once,
  compiling it into cycle prefix sums plus the exact miss positions;
  the drive loop then advances whole guaranteed-hit segments per heap
  pop with one bisect instead of one Python iteration per record.
* the **vectorized loop** (mega-mesh scale, see
  :mod:`repro.sim.engine_vec`): the batched loop without expiry heap
  pops, selected inside the batched gate.
* the **event loop** (any run with storms or shootdowns — they
  invalidate L1 entries externally, so hits cannot be precompiled):
  record at a time like the reference loop, but over pre-merged
  streams with the L1 probe inlined.
* the **reference loop** (``REPRO_REFERENCE_ENGINE=1``, for every
  run): the original record-at-a-time loop, kept verbatim.  The
  differential test harness proves the other loops byte-identical to
  it, which is why ``ENGINE_VERSION`` did not change for them.

Optional pathological traffic (§V) is injected at the global frontier:
*storms* (context-switch flushes plus superpage-promotion invalidation
bursts) and steady *shootdown* traffic for the invalidation-policy
study.
"""

from __future__ import annotations

import gc
import heapq
import weakref
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.faults.models import FaultPlan, FaultSpec, derive_seed
from repro.obs import NULL_SINK, EventTrace, MetricsSink
from repro.sim import configs as cfg
from repro.sim.engine_vec import (
    VECTORIZED_ENV,
    bulk_fill_compile_cache,
    make_lean_transaction,
    reference_mode,
    vectorized_wanted,
)
from repro.sim.results import RunResult
from repro.sim.system import System
from repro.vm.address import PAGE_4K
from repro.workloads.trace import Workload

DEFAULT_QUANTUM = 256

#: Version tag of the simulation's observable behaviour.  The result
#: cache (repro.exec) embeds this in every content address, so stale
#: entries are invalidated by construction.  Bump it on ANY change that
#: can alter a RunResult: engine scheduling, system/TLB/walker models,
#: workload generation, energy accounting.  Observability (the metrics
#: sink / event trace) is pure: it records sim-cycle timestamps that
#: the model already computed and never feeds back into timing, so
#: enabling or extending it does NOT bump this version.  Fault
#: injection likewise does not bump it: with ``faults=None`` (or an
#: empty plan) the engine follows the exact pre-fault code path, and a
#: non-empty plan is itself a cache-key field of the RunUnit, so
#: key => result determinism still holds.
ENGINE_VERSION = "1"


class WatchdogExpired(RuntimeError):
    """Raised when simulated time exceeds ``watchdog_cycles``.

    A liveness backstop for fault experiments: resilience bugs must
    surface as this exception, never as a silent hang."""


@dataclass(frozen=True)
class StormConfig:
    """TLB-storm microbenchmark knobs (§V, Fig 19).

    Every ``period`` cycles: a context switch flushes all TLBs, and a
    superpage promotion invalidates ``burst_entries`` distinct 4KB
    translations homed across the slices.
    """

    period: int
    burst_entries: int = 512
    flush: bool = True
    asid: int = 1

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("storm period must be positive")


@dataclass(frozen=True)
class ShootdownTraffic:
    """Steady page-remapping traffic (Fig 16R's invalidation study).

    ``initiators`` > 1 fires that many shootdowns from different cores
    at each event — the concurrent-invalidation scenario where a single
    chip-wide leader serialises and the paper's "middle ground" leader
    granularity wins (§III-G).
    """

    period: int
    entries_per_event: int = 1
    asid: int = 1
    initiators: int = 1

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("shootdown period must be positive")
        if self.initiators < 1:
            raise ValueError("need at least one initiator")


class _CoreState:
    __slots__ = ("streams", "positions", "rr", "time", "finish")

    def __init__(self, streams) -> None:
        self.streams = streams
        self.positions = [0] * len(streams)
        self.rr = 0
        self.time = 0
        self.finish: Optional[int] = None

    def next_record(self):
        """Round-robin across SMT streams; None when all are drained."""
        n = len(self.streams)
        for _ in range(n):
            s = self.rr % n
            self.rr += 1
            pos = self.positions[s]
            if pos < len(self.streams[s]):
                self.positions[s] = pos + 1
                return self.streams[s][pos]
        return None


def simulate(
    config: cfg.SystemConfig,
    workload: Workload,
    quantum: int = DEFAULT_QUANTUM,
    storm: Optional[StormConfig] = None,
    shootdown: Optional[ShootdownTraffic] = None,
    record_intervals: bool = False,
    metrics: bool = False,
    trace: bool = False,
    faults: Optional[FaultPlan] = None,
    watchdog_cycles: Optional[int] = None,
) -> RunResult:
    """Run ``workload`` on a machine built from ``config``.

    The low-level primitive operating on an already-built trace; a
    :class:`~repro.sim.scenario.Scenario` runs through its units
    (:meth:`~repro.sim.scenario.RunUnit.execute`) or a Runner.

    ``metrics`` attaches a :class:`~repro.obs.MetricsSink` and returns
    a snapshot in ``RunResult.metrics``; ``trace`` (implies metrics)
    additionally ring-buffers typed events into ``RunResult.trace``.
    Both are pure observation — timing is identical either way.

    ``faults`` injects a :class:`~repro.faults.models.FaultPlan` (or a
    :class:`~repro.faults.models.FaultSpec`, compiled here against the
    workload's seed).  An empty plan is normalised to ``None``, which
    keeps rate-0 sweep points bit-identical to plain runs.
    ``watchdog_cycles`` raises :class:`WatchdogExpired` if simulated
    time ever exceeds it — the no-hang backstop for fault experiments.
    """
    if not isinstance(config, cfg.SystemConfig):
        raise TypeError(
            f"expected SystemConfig, got {type(config).__name__}; run a "
            "Scenario with RunUnit.execute() or a Runner"
        )
    if workload.num_cores != config.num_cores:
        raise ValueError(
            f"workload has {workload.num_cores} cores, config expects "
            f"{config.num_cores}"
        )
    if faults is not None:
        if isinstance(faults, FaultSpec):
            faults = faults.compile(
                config.num_cores, derive_seed(workload.seed, "faults")
            )
        if faults.num_tiles != config.num_cores:
            raise ValueError(
                f"fault plan compiled for {faults.num_tiles} tiles, "
                f"config has {config.num_cores} cores"
            )
        if faults.is_empty:
            faults = None  # exact fault-free code path
    event_trace = EventTrace() if trace else None
    sink = MetricsSink(trace=event_trace) if (metrics or trace) else NULL_SINK
    system = System(
        config, record_intervals=record_intervals, sink=sink, faults=faults
    )
    reference = reference_mode()
    if storm is None and shootdown is None and not reference:
        # Batched fast path: with no external L1 invalidations the hit/
        # miss sequence is stream-determined, so hit runs advance in one
        # bisect per heap pop.  Bit-identical to the reference loop (the
        # differential harness is the proof), so ENGINE_VERSION stays.
        # At mega-mesh scale (or when forced via REPRO_VECTORIZED_ENGINE)
        # the vectorized variant applies — same results, numpy compile
        # and expiry-free scheduling (see repro.sim.engine_vec).
        if vectorized_wanted(config, watchdog_cycles):
            finishes = _drive_vectorized(system, workload, quantum, sink)
        else:
            finishes = _drive_batched(
                system, workload, quantum, sink, watchdog_cycles
            )
    elif reference:
        finishes = _drive_reference(
            system, workload, quantum, storm, shootdown, sink,
            watchdog_cycles,
        )
    else:
        # Storms/shootdowns invalidate L1 entries mid-run, so hits cannot
        # be precompiled; the record loop runs with the L1 probe inlined.
        finishes = _drive_events(
            system, workload, quantum, storm, shootdown, sink,
            watchdog_cycles,
        )
    cycles = max(finishes)
    system.finalize_stats()
    system.finalize_metrics(cycles)
    app_cycles = {}
    for app, cores in workload.info.get("apps", {}).items():
        app_cycles[app] = sum(finishes[c] for c in cores) / len(cores)
    return RunResult(
        config_name=config.name,
        workload_name=workload.name,
        cycles=cycles,
        per_core_cycles=finishes,
        stats=system.stats,
        energy=system.energy_summary(cycles),
        network=system.network_summary(),
        walk_levels=system.walk_level_summary(),
        intervals=system.intervals if record_intervals else None,
        app_cycles=app_cycles,
        metrics=sink.registry.snapshot() if sink.enabled else None,
        trace=event_trace.to_records() if event_trace is not None else None,
        faults=system.fault_summary(),
    )


def _drive_reference(
    system: System,
    workload: Workload,
    quantum: int,
    storm: Optional[StormConfig],
    shootdown: Optional[ShootdownTraffic],
    sink,
    watchdog_cycles: Optional[int],
) -> List[int]:
    """The original record-at-a-time drive loop (kept verbatim).

    Forced via ``REPRO_REFERENCE_ENGINE=1`` as the differential-testing
    baseline; storm/shootdown runs otherwise take :func:`_drive_events`.
    """
    num_cores = system.config.num_cores
    states = [_CoreState(workload.core_streams(c)) for c in range(num_cores)]
    heap: List[Tuple[int, int]] = [(0, core) for core in range(num_cores)]
    heapq.heapify(heap)

    next_storm = storm.period if storm else None
    next_shoot = shootdown.period if shootdown else None
    storm_seq = 0
    shoot_seq = 0
    l1_arrays = [
        {size: l1.array(size) for size in l1._arrays} for l1 in system.l1s
    ]
    pending = system.pending_penalty

    while heap:
        t, core = heapq.heappop(heap)
        if watchdog_cycles is not None and t > watchdog_cycles:
            raise WatchdogExpired(
                f"core {core} resumed at cycle {t}, past the "
                f"{watchdog_cycles}-cycle watchdog"
            )
        state = states[core]
        if pending[core]:
            t += pending[core]
            pending[core] = 0
        # Pathological traffic fires at the global frontier (t is minimal).
        if next_storm is not None and t >= next_storm:
            _apply_storm(system, storm, next_storm, storm_seq)
            storm_seq += 1
            next_storm += storm.period
        if next_shoot is not None and t >= next_shoot:
            _apply_shootdown_traffic(system, shootdown, next_shoot, shoot_seq)
            shoot_seq += 1
            next_shoot += shootdown.period
        deadline = t + quantum
        arrays = l1_arrays[core]
        resumed = False
        while t < deadline:
            record = state.next_record()
            if record is None:
                state.finish = t
                resumed = True  # drained: do not re-enter the heap
                break
            gap, asid, size, page_number = record
            t += gap + 1
            array = arrays[size]
            if array.lookup(asid, size, page_number):
                continue
            # Instrumentation rides the (rare) miss path only; the
            # L1-hit loop above stays sink-free.
            sink.event(t, "l1_lookup", core=core, hit=False)
            stall = system.l2_transaction(core, asid, size, page_number, t)
            sink.observe("translation.stall_cycles", stall)
            t += stall
            array.insert(asid, size, page_number)
            heapq.heappush(heap, (t, core))
            resumed = True
            break
        if not resumed:
            heapq.heappush(heap, (t, core))

    return [state.finish or 0 for state in states]


def _drive_events(
    system: System,
    workload: Workload,
    quantum: int,
    storm: Optional[StormConfig],
    shootdown: Optional[ShootdownTraffic],
    sink,
    watchdog_cycles: Optional[int],
) -> List[int]:
    """Record-at-a-time loop for storm/shootdown runs.

    Bit-identical to :func:`_drive_reference`: the same heap, pending-
    penalty, event-injection and watchdog steps, with two hot spots
    flattened.  Each core walks its pre-merged stream
    (:func:`_merged_stream`, the exact ``_CoreState.next_record``
    order), and the L1 probe is inlined as in :func:`_compile_core`.
    Unlike the compile pre-pass, the probe runs against live arrays at
    drive time, so external invalidations between heap pops are seen.
    """
    num_cores = system.config.num_cores
    streams = [
        _merged_stream(workload.core_streams(c)) for c in range(num_cores)
    ]
    positions = [0] * num_cores
    finishes = [0] * num_cores
    heap: List[Tuple[int, int]] = [(0, core) for core in range(num_cores)]
    heapq.heapify(heap)

    next_storm = storm.period if storm else None
    next_shoot = shootdown.period if shootdown else None
    storm_seq = 0
    shoot_seq = 0
    # Per core: page size -> (sets, index shift, set count, array).
    l1_bindings = [
        {
            size: (array._sets, array.index_shift, array.num_sets, array)
            for size, array in l1._arrays.items()
        }
        for l1 in system.l1s
    ]
    pending = system.pending_penalty
    l2_transaction = system.l2_transaction
    observed = sink.enabled
    heappush = heapq.heappush
    heappop = heapq.heappop

    while heap:
        t, core = heappop(heap)
        if watchdog_cycles is not None and t > watchdog_cycles:
            raise WatchdogExpired(
                f"core {core} resumed at cycle {t}, past the "
                f"{watchdog_cycles}-cycle watchdog"
            )
        if pending[core]:
            t += pending[core]
            pending[core] = 0
        # Pathological traffic fires at the global frontier (t is minimal).
        if next_storm is not None and t >= next_storm:
            _apply_storm(system, storm, next_storm, storm_seq)
            storm_seq += 1
            next_storm += storm.period
        if next_shoot is not None and t >= next_shoot:
            _apply_shootdown_traffic(system, shootdown, next_shoot, shoot_seq)
            shoot_seq += 1
            next_shoot += shootdown.period
        deadline = t + quantum
        stream = streams[core]
        end = len(stream)
        pos = positions[core]
        bindings = l1_bindings[core]
        last_size = None  # forces a binding fetch on the first record
        while t < deadline:
            if pos == end:
                finishes[core] = t  # drained: do not re-enter the heap
                break
            gap, asid, size, page_number = stream[pos]
            pos += 1
            t += gap + 1
            if size != last_size:
                sets, shift, num_sets, array = bindings[size]
                last_size = size
            cache_set = sets[(page_number >> shift) % num_sets]
            key = (asid, size, page_number)
            # A lazily-constructed set (None) is empty: always a miss,
            # and insert() below materialises it.
            if cache_set is not None and key in cache_set:
                cache_set.move_to_end(key)
                array.hits += 1
                continue
            array.misses += 1
            if observed:
                sink.event(t, "l1_lookup", core=core, hit=False)
            stall = l2_transaction(core, asid, size, page_number, t)
            if observed:
                sink.observe("translation.stall_cycles", stall)
            t += stall
            array.insert(asid, size, page_number)
            heappush(heap, (t, core))
            break
        else:
            heappush(heap, (t, core))
        positions[core] = pos

    return finishes


class _CompiledCore:
    """One core's trace compiled into hit-run segments.

    ``prefix[i]`` is the cycle cost of the first ``i`` records (each
    record costs ``gap + 1``), so advancing from record ``a`` to ``b``
    costs ``prefix[b] - prefix[a]``.  ``miss_pos``/``miss_rec`` hold the
    positions and payloads of the records that miss the L1 — everything
    between consecutive misses is a guaranteed-hit run.
    """

    __slots__ = ("prefix", "miss_pos", "miss_rec", "count", "pos", "mi",
                 "finish")

    def __init__(self, prefix, miss_pos, miss_rec) -> None:
        self.prefix = prefix
        self.miss_pos = miss_pos
        self.miss_rec = miss_rec
        self.count = len(prefix) - 1
        self.pos = 0  # next record index
        self.mi = 0  # next miss index
        self.finish: Optional[int] = None


def _merged_stream(streams):
    """The core's SMT streams merged in ``_CoreState.next_record`` order.

    The round-robin interleave is statically deterministic (it depends
    only on stream lengths, never on timing), so it can be materialised
    up front.
    """
    if len(streams) == 1:
        return streams[0]
    merged = []
    positions = [0] * len(streams)
    n = len(streams)
    rr = 0
    remaining = sum(len(s) for s in streams)
    append = merged.append
    while remaining:
        s = rr % n
        rr += 1
        pos = positions[s]
        if pos < len(streams[s]):
            positions[s] = pos + 1
            append(streams[s][pos])
            remaining -= 1
    return merged


def _compile_core(streams, arrays) -> _CompiledCore:
    """Replay one core's merged stream through its real L1 arrays.

    The replay performs exactly the lookup/insert sequence the
    reference loop would (one lookup per record, insert on miss), so
    the arrays end the pre-pass in the same state — same hit/miss/
    eviction counters, same LRU order — as after an unbatched run.
    Valid only while nothing else touches the L1s mid-run, which is the
    batched mode's gate (no storms, no shootdowns).
    """
    merged = _merged_stream(streams)
    prefix = [0] * (len(merged) + 1)
    miss_pos: List[int] = []
    miss_rec: List[Tuple[int, int, int]] = []
    add_pos = miss_pos.append
    add_rec = miss_rec.append
    # The probe below is SetAssociativeTLB.lookup inlined (this is the
    # hottest loop of a batched run: one probe per trace record), with
    # the hit/miss counters accumulated locally and folded back in bulk
    # — nothing reads them mid-run.  Misses are rare, so insert() stays
    # a method call.  Must mirror lookup() exactly.
    per_size = {
        size: (array._sets, array.index_shift, array.num_sets, [0, 0])
        for size, array in arrays.items()
    }
    acc = 0
    i = 0
    # Streams are long runs of one page size, so the per-size bindings
    # are re-fetched only on a size switch.
    last_size = None
    sets = shift = num_sets = counts = None
    for gap, asid, size, page_number in merged:
        acc += gap + 1
        i += 1
        prefix[i] = acc
        if size != last_size:
            sets, shift, num_sets, counts = per_size[size]
            last_size = size
        cache_set = sets[(page_number >> shift) % num_sets]
        key = (asid, size, page_number)
        # A lazily-constructed set (None) is empty: always a miss, and
        # insert() below materialises it through _set_for.
        if cache_set is not None and key in cache_set:
            cache_set.move_to_end(key)
            counts[0] += 1
            continue
        counts[1] += 1
        add_pos(i - 1)
        add_rec(key)
        arrays[size].insert(asid, size, page_number)
    for size, (_, _, _, counts) in per_size.items():
        arrays[size].hits += counts[0]
        arrays[size].misses += counts[1]
    return _CompiledCore(prefix, miss_pos, miss_rec)


#: Compiled cores memoised per live Workload object (keyed by id, with
#: a weakref guard against id reuse).  The compile pre-pass is a pure
#: function of (streams, L1 geometry), so lineups and repeat runs that
#: share one workload build pay it once per core instead of once per
#: System.
_COMPILE_CACHE: Dict[int, Tuple[object, Dict]] = {}

_COUNTERS = ("hits", "misses", "insertions", "evictions")


def _compile_cache_for(workload) -> Dict:
    wid = id(workload)
    entry = _COMPILE_CACHE.get(wid)
    if entry is None or entry[0]() is not workload:
        ref = weakref.ref(
            workload, lambda _, wid=wid: _COMPILE_CACHE.pop(wid, None)
        )
        entry = (ref, {})
        _COMPILE_CACHE[wid] = entry
    return entry[1]


def _compile_core_cached(workload, core: int, arrays) -> _CompiledCore:
    """Memoising wrapper around :func:`_compile_core`.

    A cache hit replays only the counter deltas (hits/misses/
    insertions/evictions); the array *contents* are left empty, which
    is sound because nothing downstream of the drive loop reads L1
    entries — only counters (and batched mode guarantees no storms or
    shootdowns ever probe them mid-run).
    """
    cache = _compile_cache_for(workload)
    key = (core,) + tuple(
        sorted(
            (size, a.entries, a.ways, a.index_shift)
            for size, a in arrays.items()
        )
    )
    hit = cache.get(key)
    if hit is not None:
        prefix, miss_pos, miss_rec, deltas = hit
        for size, delta in deltas:
            array = arrays[size]
            for name, value in zip(_COUNTERS, delta):
                setattr(array, name, getattr(array, name) + value)
        return _CompiledCore(prefix, miss_pos, miss_rec)
    before = {
        size: [getattr(a, name) for name in _COUNTERS]
        for size, a in arrays.items()
    }
    cc = _compile_core(workload.core_streams(core), arrays)
    deltas = tuple(
        (
            size,
            tuple(
                getattr(a, name) - old
                for name, old in zip(_COUNTERS, before[size])
            ),
        )
        for size, a in arrays.items()
    )
    cache[key] = (cc.prefix, cc.miss_pos, cc.miss_rec, deltas)
    return cc


def _drive_batched(
    system: System,
    workload: Workload,
    quantum: int,
    sink,
    watchdog_cycles: Optional[int],
) -> List[int]:
    """Segment-batched drive loop; bit-identical to the reference loop.

    Per heap pop, one ``bisect_left`` finds how far the core runs
    before its quantum expires (``cut``); comparing that against the
    next precompiled miss position decides the outcome.  The loop-top
    guard of the reference loop (``while t < deadline``) admits record
    ``q`` iff ``prefix[q] < prefix[pos] + quantum``, so the three cases
    below reproduce its push/finish times — and therefore its heap-pop
    order, its ``l2_transaction`` times, and its pending-penalty
    application points — exactly.
    """
    num_cores = system.config.num_cores
    compiled = [
        _compile_core_cached(
            workload, core, {size: l1.array(size) for size in l1._arrays}
        )
        for core, l1 in enumerate(system.l1s)
    ]
    heap: List[Tuple[int, int]] = [(0, core) for core in range(num_cores)]
    heapq.heapify(heap)
    pending = system.pending_penalty
    l2_transaction = system.l2_transaction
    observed = sink.enabled

    while heap:
        t, core = heapq.heappop(heap)
        if watchdog_cycles is not None and t > watchdog_cycles:
            raise WatchdogExpired(
                f"core {core} resumed at cycle {t}, past the "
                f"{watchdog_cycles}-cycle watchdog"
            )
        cc = compiled[core]
        if pending[core]:
            t += pending[core]
            pending[core] = 0
        prefix = cc.prefix
        pos = cc.pos
        base = prefix[pos]
        limit = base + quantum
        count = cc.count
        mi = cc.mi
        miss = cc.miss_pos[mi] if mi < len(cc.miss_pos) else None
        # First record position whose loop-top check would fail.
        cut = bisect_left(prefix, limit, pos, count + 1)
        if miss is not None and miss < cut:
            # The quantum reaches the next L1 miss: resolve it at the
            # exact cycle the reference loop would (hit run + the miss
            # record's own gap+1).
            t_miss = t + prefix[miss + 1] - base
            asid, size, page_number = cc.miss_rec[mi]
            if observed:
                sink.event(t_miss, "l1_lookup", core=core, hit=False)
            stall = l2_transaction(core, asid, size, page_number, t_miss)
            if observed:
                sink.observe("translation.stall_cycles", stall)
            cc.pos = miss + 1
            cc.mi = mi + 1
            heapq.heappush(heap, (t_miss + stall, core))
        elif cut == count + 1:
            # Stream drained inside the quantum: all remaining records
            # are hits; the core finishes and leaves the heap.
            cc.pos = count
            cc.finish = t + prefix[count] - base
        else:
            # Quantum expiry mid-run: advance the whole admitted hit
            # segment and re-enter the heap at the expiry time.
            cc.pos = cut
            heapq.heappush(heap, (t + prefix[cut] - base, core))

    return [cc.finish or 0 for cc in compiled]


def _drive_vectorized(
    system: System,
    workload: Workload,
    quantum: int,
    sink,
) -> List[int]:
    """Mega-mesh drive loop; bit-identical to the batched loop.

    Three scalar hot spots of ``_drive_batched`` are restructured for
    256-1024 tile meshes (see :mod:`repro.sim.engine_vec`):

    * the compile pre-pass runs once over column-stacked ``(core,
      record)`` arrays, stepping every core's L1 LRU state in lockstep,
      and fills the ordinary compile cache — a later batched run on the
      same workload replays it for free, and vice versa;
    * quantum-expiry heap traffic disappears: with ``pending_penalty``
      pinned at zero (no storms/shootdowns/remote-PTW — the dispatch
      gate) expiry pops are pure bookkeeping, so each core's next
      transaction call time is computed directly with the batched
      loop's own windowed bisect, and a numpy argmin/cohort scan over
      the call-time vector reproduces the heap's ``(t, core)`` order;
    * eligible mesh-distributed configs resolve each transaction
      through an inlined flat-table path over the live slice/port/
      walker state (``make_lean_transaction``); everything else uses
      ``System.l2_transaction`` unchanged.
    """
    num_cores = system.config.num_cores
    bulk_fill_compile_cache(
        workload, system.l1s, _compile_cache_for(workload)
    )  # best-effort: on False the per-core scalar compile below applies
    compiled = [
        _compile_core_cached(
            workload, core, {size: l1.array(size) for size in l1._arrays}
        )
        for core, l1 in enumerate(system.l1s)
    ]
    l2_transaction = system.l2_transaction
    finalize = None
    lean = make_lean_transaction(system, sink)
    if lean is not None:
        l2_transaction, finalize = lean
    observed = sink.enabled
    observe = sink.observe
    event = sink.event

    idle = 1 << 62  # sentinel call time for finished cores
    call_times = np.full(num_cores, idle, dtype=np.int64)
    pending_miss: List[Optional[Tuple[int, int, int]]] = [None] * num_cores
    pending_time = [0] * num_cores

    def schedule(core: int, cc: _CompiledCore, t: int) -> bool:
        """Advance ``core`` from resume time ``t`` to its next call.

        Replays the batched loop's quantum windows (expiry hops) until
        the window containing the next miss — or the end of the stream
        — is reached; expiry pops touch nothing observable, so only the
        resulting transaction call time matters.  Returns False when
        the core finished.
        """
        prefix = cc.prefix
        count = cc.count
        pos = cc.pos
        mi = cc.mi
        miss_pos = cc.miss_pos
        miss = miss_pos[mi] if mi < len(miss_pos) else None
        base = prefix[pos]
        while True:
            cut = bisect_left(prefix, base + quantum, pos, count + 1)
            if miss is not None and miss < cut:
                cc.pos = miss + 1
                cc.mi = mi + 1
                pending_miss[core] = cc.miss_rec[mi]
                pending_time[core] = t + prefix[miss + 1] - base
                call_times[core] = t
                return True
            if cut == count + 1:
                cc.pos = count
                cc.finish = t + prefix[count] - base
                call_times[core] = idle
                return False
            t += prefix[cut] - base
            pos = cut
            base = prefix[cut]

    active = 0
    for core in range(num_cores):
        if schedule(core, compiled[core], 0):
            active += 1

    # The drive loop allocates heavily (keys, port dicts, walk tuples)
    # but creates no reference cycles, so generational collections scan
    # hundreds of thousands of live simulator objects to reclaim almost
    # nothing.  Pause collection for the loop; allocations are still
    # freed by refcounting, and cycles (if any) collect on re-enable.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        while active:
            frontier = call_times.min()
            # All transactions called at the frontier cycle, in core
            # order — exactly the heap's (t, core) tie-break.
            for core in np.flatnonzero(call_times == frontier).tolist():
                cc = compiled[core]
                t_miss = pending_time[core]
                asid, size, page_number = pending_miss[core]
                if observed:
                    event(t_miss, "l1_lookup", core=core, hit=False)
                stall = l2_transaction(core, asid, size, page_number, t_miss)
                if observed:
                    observe("translation.stall_cycles", stall)
                if not schedule(core, cc, t_miss + stall):
                    active -= 1
    finally:
        if gc_was_enabled:
            gc.enable()

    if finalize is not None:
        finalize()
    return [cc.finish or 0 for cc in compiled]


def _apply_storm(
    system: System, storm: StormConfig, now: int, seq: int
) -> None:
    """Context-switch flush plus a 512-entry promotion invalidation."""
    if storm.flush:
        system.flush_all_tlbs()
    system.sink.event(
        now, "storm_flush",
        seq=seq, entries=storm.burst_entries, flush=storm.flush,
    )
    base = (seq + 1) * storm.burst_entries
    entries = [
        (storm.asid, PAGE_4K, base + i) for i in range(storm.burst_entries)
    ]
    initiator = seq % system.config.num_cores
    system.apply_shootdown(initiator, entries, now)


def _apply_shootdown_traffic(
    system: System, traffic: ShootdownTraffic, now: int, seq: int
) -> None:
    cores = system.config.num_cores
    for k in range(traffic.initiators):
        base = ((seq * traffic.initiators) + k + 1) * 131
        entries = [
            (traffic.asid, PAGE_4K, base + i)
            for i in range(traffic.entries_per_event)
        ]
        initiator = (seq + k * (cores // traffic.initiators)) % cores
        system.apply_shootdown(initiator, entries, now)
