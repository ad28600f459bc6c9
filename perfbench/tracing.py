"""Per-layer host timing by wrapping each layer's public entry points.

Nothing under ``src/`` changes: :meth:`LayerTracer.install` replaces
module functions and class methods with timing wrappers before any
``System`` is built.  Hooks a layer binds at construction time are
wrapped on the instance instead: each interconnect picks its ``send``
variant in ``__init__``, and the lean mega-mesh transaction closure is
wrapped when ``make_lean_transaction`` returns it (it captures
``walker.walk_cycles``, already wrapped on the class by then).

Spans nest on one stack (the simulator is single-threaded), so a
layer's self time is its span minus the spans opened inside it.
Coarse layers (builds, compile, drive, finalize, exec calls) keep one
span record each — name, start, end, parent, pass id.  The hot leaf
layers (L2 transaction, NoC send, page walk, cache access) run up to a
few hundred thousand times per pass, so they are aggregated in memory
per (unit, layer) into calls and self time instead of one record per
call.  :meth:`LayerTracer.write` dumps both when the pass ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Layers timed per call but aggregated rather than recorded per span.
HOT_LAYERS = frozenset(
    {"system.l2_txn", "noc.send", "walker.walk", "cache.access"}
)

#: ``unit`` argument of the totals: every unit, and calls outside any.
ALL_UNITS = object()


class LayerTracer:
    """In-memory span recorder for one pass (one process)."""

    def __init__(self, pass_id: int) -> None:
        self.pass_id = pass_id
        #: Current unit name; per-unit aggregates are keyed on it.
        self.unit: Optional[str] = None
        #: Recorded coarse spans, in completion order.
        self.spans: List[Dict[str, object]] = []
        #: (unit, layer) -> self seconds / calls.
        self.self_s: Dict[tuple, float] = defaultdict(float)
        self.calls: Dict[tuple, int] = defaultdict(int)
        #: (unit, counter) -> value, for counts that are not calls.
        self.counts: Dict[tuple, int] = defaultdict(int)
        #: unit -> {"loop": ..., "lean": ...}
        self.labels: Dict[str, Dict[str, object]] = defaultdict(dict)
        #: unit -> live System objects it built (read, then dropped,
        #: as soon as the unit finishes).
        self.systems: Dict[str, list] = defaultdict(list)
        # Open frames: [child seconds, id of nearest recorded span].
        self._stack: List[list] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    # span machinery

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` timed as one span of ``layer`` per call."""
        stack = self._stack
        clock = time.perf_counter
        self_s = self.self_s
        calls = self.calls
        recorded = layer not in HOT_LAYERS
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent is not None else None
            span_id = parent_id
            if recorded:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                key = (tracer.unit, layer)
                self_s[key] += duration - frame[0]
                calls[key] += 1
                if parent is not None:
                    parent[0] += duration
                if recorded:
                    tracer.spans.append({
                        "name": layer, "id": span_id, "parent": parent_id,
                        "pass": tracer.pass_id, "unit": tracer.unit,
                        "start_s": start, "end_s": end,
                    })

        return timed

    def count(self, counter: str, value: int = 1) -> None:
        self.counts[(self.unit, counter)] += value

    @staticmethod
    def _total(table: dict, name: str, unit: object) -> float:
        return sum(
            v for (u, key), v in table.items()
            if key == name and (unit is ALL_UNITS or u == unit)
        )

    def total_self_s(self, layer: str, unit: object = ALL_UNITS) -> float:
        return self._total(self.self_s, layer, unit)

    def total_calls(self, layer: str, unit: object = ALL_UNITS) -> int:
        return self._total(self.calls, layer, unit)

    def total_count(self, counter: str, unit: object = ALL_UNITS) -> int:
        return self._total(self.counts, counter, unit)

    def write(self, path: str) -> None:
        """Coarse spans, then one aggregate line per (unit, layer)."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({"record": "span", **span}) + "\n")
            for (unit, layer), seconds in sorted(
                self.self_s.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
            ):
                fh.write(json.dumps({
                    "record": "aggregate", "pass": self.pass_id,
                    "unit": unit, "name": layer,
                    "calls": self.calls[(unit, layer)], "self_s": seconds,
                }) + "\n")

    # ------------------------------------------------------------------
    # installation

    def install(self, engine: bool) -> None:
        """Wrap the layers' entry points.

        ``engine=False`` wraps only what runs in this process of a
        ``Runner(jobs>1)`` pass (builds, trace store, result cache,
        dispatch): its pool workers are forked and would run any
        engine wrapper without reporting back.
        """
        from repro.exec.cache import ResultCache
        from repro.exec.runner import Runner
        from repro.exec.trace_store import TraceStore
        from repro.workloads import generators

        build = generators.build_multithreaded

        def build_counted(*args, **kwargs):
            workload = build(*args, **kwargs)
            self.count("workloads.records", sum(
                len(stream) for core in workload.traces for stream in core
            ))
            return workload

        # Callers import it from the module at call time.
        generators.build_multithreaded = self.wrap(
            "workloads.build", functools.wraps(build)(build_counted)
        )

        ensure = TraceStore.ensure

        def ensure_counted(store, signature):
            path, built = ensure(store, signature)
            if built:
                self.count("trace_store.builds")
            return path, built

        TraceStore.ensure = self.wrap(
            "trace_store.ensure", functools.wraps(ensure)(ensure_counted)
        )

        get = ResultCache.get

        def get_counted(cache, key):
            result = get(cache, key)
            if result is not None:
                self.count("result_cache.hits")
            return result

        ResultCache.get = self.wrap(
            "result_cache.get", functools.wraps(get)(get_counted)
        )
        ResultCache.put = self.wrap("result_cache.put", ResultCache.put)
        Runner._dispatch = self.wrap("runner.dispatch", Runner._dispatch)
        if engine:
            self._install_engine()

    def _install_engine(self) -> None:
        from repro.core.nocstar import NocstarInterconnect
        from repro.mem.cache import CacheHierarchy
        from repro.noc.bus import BusNetwork
        from repro.noc.fbfly import FlattenedButterfly
        from repro.noc.mesh import ContentionFreeMesh
        from repro.noc.smart import SmartNetwork
        from repro.sim import engine
        from repro.sim.system import System
        from repro.vm.walker import FixedLatencyWalker, PageTableWalker

        tracer = self
        # simulate() minus its children is the drive loop's own time.
        engine.simulate = self.wrap("engine.drive", engine.simulate)

        for loop_name in ("reference", "batched", "vectorized"):
            attr = f"_drive_{loop_name}"
            loop = getattr(engine, attr)

            def labelled(*args, _loop=loop, _name=loop_name, **kwargs):
                tracer.labels[tracer.unit]["loop"] = _name
                return _loop(*args, **kwargs)

            setattr(engine, attr, functools.wraps(loop)(labelled))

        compile_core = engine._compile_core

        def compile_counted(*args, **kwargs):
            tracer.count("engine.compile_cores")
            return compile_core(*args, **kwargs)

        engine._compile_core = functools.wraps(compile_core)(compile_counted)
        engine._compile_core_cached = self.wrap(
            "engine.compile", engine._compile_core_cached
        )
        bulk = engine.bulk_fill_compile_cache

        def bulk_counted(workload, l1s, cache):
            before = len(cache)
            filled = bulk(workload, l1s, cache)
            tracer.count("engine.compile_cores", len(cache) - before)
            return filled

        engine.bulk_fill_compile_cache = self.wrap(
            "engine.compile", functools.wraps(bulk)(bulk_counted)
        )

        make_lean = engine.make_lean_transaction

        def lean_wrapped(system, sink):
            lean = make_lean(system, sink)
            tracer.labels[tracer.unit]["lean"] = lean is not None
            if lean is None:
                return None
            transaction, finalize = lean
            return (
                tracer.wrap("system.l2_txn", transaction),
                tracer.wrap("system.finalize", finalize),
            )

        engine.make_lean_transaction = functools.wraps(make_lean)(lean_wrapped)

        init = System.__init__

        def system_init(system, *args, **kwargs):
            init(system, *args, **kwargs)
            tracer.systems[tracer.unit].append(system)

        System.__init__ = self.wrap(
            "system.build", functools.wraps(init)(system_init)
        )
        System.l2_transaction = self.wrap(
            "system.l2_txn", System.l2_transaction
        )
        for name in (
            "finalize_stats", "finalize_metrics", "energy_summary",
            "network_summary", "walk_level_summary", "fault_summary",
        ):
            setattr(System, name,
                    self.wrap("system.finalize", getattr(System, name)))

        shootdown = System.apply_shootdown

        def shootdown_counted(system, initiator, entries, now):
            tracer.count("tlb.invalidations", len(entries))
            return shootdown(system, initiator, entries, now)

        System.apply_shootdown = functools.wraps(shootdown)(shootdown_counted)

        # Interconnects choose their send() variant in __init__, so the
        # wrapper goes on each instance after construction.
        for cls in (ContentionFreeMesh, SmartNetwork, NocstarInterconnect,
                    BusNetwork, FlattenedButterfly):
            net_init = cls.__init__

            def network_init(network, *args, _init=net_init, **kwargs):
                _init(network, *args, **kwargs)
                network.send = tracer.wrap("noc.send", network.send)

            cls.__init__ = functools.wraps(net_init)(network_init)

        for cls in (PageTableWalker, FixedLatencyWalker):
            cls.walk = self.wrap("walker.walk", cls.walk)
            cls.walk_cycles = self.wrap("walker.walk", cls.walk_cycles)
        CacheHierarchy.access = self.wrap("cache.access", CacheHierarchy.access)
