"""Parallel experiment runner with content-addressed result caching.

The :class:`Runner` executes the independent :class:`RunUnit` grains of
a :class:`~repro.sim.scenario.Scenario`:

* **fan-out** — with ``jobs=N`` the units are mapped over a
  ``multiprocessing`` pool (``jobs=1`` is a pure in-process serial
  fallback with zero pool overhead);
* **memoisation** — with a ``cache_dir``, every unit's result is stored
  under its content address (see :mod:`repro.exec.cache`); warm re-runs
  of a suite skip simulation entirely;
* **zero-copy trace fan-out** — with a ``trace_store``, each distinct
  build signature in the dispatch list is materialized exactly once (in
  the parent, before the pool spins up) as a packed ``.npy`` artifact;
  workers then *attach* it through the page cache (``np.memmap``)
  instead of rebuilding the trace per unit or receiving pickled record
  arrays.  A lineup of N configurations over one workload costs one
  build, not N — and nothing at all when the
  :class:`~repro.exec.trace_store.TraceStore` is warm from an earlier
  sweep or session;
* **cost-aware scheduling** — each task's cost is estimated from
  ``num_cores × trace_length × scheme factor`` (factors calibrated from
  Runner telemetry) and tasks are dispatched longest-first over
  ``imap_unordered``, so a straggler starts first instead of last and
  the pool drains evenly.  Results are reassembled in submission order,
  so scheduling is invisible to callers;
* **observability** — every unit emits one JSONL telemetry record
  (key, wall time split into build/sim, cache hit/miss, cycles, miss
  rates) so benchmark trajectories can be tracked over time.

Determinism: units are rebuilt from seeds (or attached from artifacts
whose bytes those same seeds produced), the engine is deterministic,
and results are reassembled in submission order — parallel, cached,
attached, and serial paths are bit-identical.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.exec.cache import (
    ResultCache,
    canonicalize,
    unit_key,
    workload_fingerprint,
)
from repro.exec.trace_store import TraceStore, attach_workload
from repro.obs.spans import Span, Tracer, span_record
from repro.sim import configs as cfg
from repro.sim.engine import (
    DEFAULT_QUANTUM,
    ENGINE_VERSION,
    ShootdownTraffic,
    StormConfig,
    simulate,
)
from repro.sim.results import RunResult
from repro.sim.run import Comparison
from repro.sim.scenario import RunUnit, Scenario
from repro.workloads.trace import Workload

#: Telemetry file dropped next to the cache when none is specified.
TELEMETRY_BASENAME = "telemetry.jsonl"

#: Version of the telemetry record layout (see DESIGN.md for the field
#: table).  3: ``wall_s`` is split into ``build_s`` (trace build or
#: artifact attach) + ``sim_s`` (engine time), and trace-store activity
#: is summarised in a per-call ``record: "trace_store"`` line.
TELEMETRY_SCHEMA = 3

#: Relative simulation cost per scheme, calibrated from telemetry
#: ``sim_s`` at equal core counts and trace lengths.  NOCSTAR pays for
#: per-access setup arbitration; ideal skips the interconnect entirely.
#: Unknown schemes cost 1.0 — the scheduler degrades to trace-length
#: ordering, never breaks.
_SCHEME_COST = {
    "ideal": 0.7,
    "distributed": 0.95,
    "private": 1.0,
    "monolithic": 1.05,
    "nocstar": 1.45,
}

#: Storms and shootdowns roughly double per-access cost: their flushes
#: and invalidations turn L1 hits into misses, each paying a full L2
#: transaction (and the record-at-a-time event loop replaces the
#: batched one).
_REFERENCE_LOOP_COST = 2.0


class _Task(NamedTuple):
    """One schedulable simulation, self-contained for a pool worker.

    Exactly one of ``unit`` / ``prebuilt`` is set.  ``artifact`` (when
    not ``None``) points at a packed trace to attach in place of
    building — for prebuilt tasks it also replaces the pickled
    workload, which is the zero-copy half of the data plane.
    """

    index: int
    cost: float
    unit: Optional[RunUnit]
    artifact: Optional[str]
    prebuilt: Optional[tuple]


def _config_cost(
    config: cfg.SystemConfig,
    trace_length: int,
    storm: Optional[StormConfig],
    shootdown: Optional[ShootdownTraffic],
) -> float:
    cost = float(config.num_cores) * trace_length
    cost *= _SCHEME_COST.get(config.scheme, 1.0)
    if storm is not None or shootdown is not None:
        cost *= _REFERENCE_LOOP_COST
    return cost


def unit_cost(unit: RunUnit) -> float:
    """Estimated relative cost of one unit (the LPT scheduling weight).

    Shared by the Runner's longest-first dispatch and the serving
    tier's admission queue, so both layers order work by the same
    calibrated model.
    """
    return _config_cost(
        unit.config,
        unit.accesses_per_core * unit.smt,
        unit.storm,
        unit.shootdown,
    )


#: Backwards-compatible private alias (pre-serve name).
_unit_cost = unit_cost


def _execute_task(task: _Task) -> Tuple[int, RunResult, float, float]:
    """Pool worker body: attach-or-build, then simulate; both timed.

    Returns ``(index, result, build_s, sim_s)`` — the index rides along
    because ``imap_unordered`` yields completions in finish order and
    the parent reassembles by submission index.
    """
    start = time.perf_counter()
    if task.unit is not None:
        unit = task.unit
        if task.artifact is not None:
            workload = attach_workload(task.artifact)
        else:
            workload = unit.build_workload()
        built = time.perf_counter()
        result = simulate(
            unit.config,
            workload,
            quantum=unit.quantum,
            storm=unit.storm,
            shootdown=unit.shootdown,
            record_intervals=unit.record_intervals,
            metrics=unit.metrics,
            trace=unit.trace,
            faults=unit.fault_plan(),
        )
    else:
        (
            config, workload, storm, shootdown, record_intervals, quantum,
            metrics, trace,
        ) = task.prebuilt
        if task.artifact is not None:
            workload = attach_workload(task.artifact)
        built = time.perf_counter()
        result = simulate(
            config,
            workload,
            quantum=quantum,
            storm=storm,
            shootdown=shootdown,
            record_intervals=record_intervals,
            metrics=metrics,
            trace=trace,
        )
    return task.index, result, built - start, time.perf_counter() - built


def execute_unit(
    unit: RunUnit, artifact: Optional[str] = None
) -> Tuple[RunResult, float, float]:
    """Execute one unit (attach-or-build) outside a Runner.

    The serving tier's pool workers call this; it funnels into the same
    :func:`_execute_task` body the Runner dispatches, which is what
    makes an HTTP-submitted unit byte-identical to a CLI run of the
    same unit.  Returns ``(result, build_s, sim_s)``.
    """
    _, result, build_s, sim_s = _execute_task(
        _Task(index=0, cost=0.0, unit=unit, artifact=artifact, prebuilt=None)
    )
    return result, build_s, sim_s


class Runner:
    """Executes scenarios over a worker pool, through a result cache.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (default) runs serially in-process.
    cache_dir:
        Directory of the content-addressed result cache.  ``None``
        disables caching (and telemetry, unless ``telemetry_path`` is
        given explicitly).
    use_cache:
        Master switch; ``False`` ignores ``cache_dir`` for lookups and
        stores (the CLI's ``--no-cache``).
    telemetry_path:
        JSONL file appended with one record per executed unit.
        Defaults to ``<cache_dir>/telemetry.jsonl`` when caching is on.
    engine_version:
        Cache-key version tag; defaults to the engine's own
        :data:`~repro.sim.engine.ENGINE_VERSION`.  Exposed so tests can
        prove that bumping the tag invalidates stale entries.
    trace_store:
        A :class:`~repro.exec.trace_store.TraceStore` (or a directory
        path for one).  When set, traces are materialized once per
        build signature and attached zero-copy by every worker; when
        ``None`` (default) units build their own traces as before.
    tracer:
        A :class:`~repro.obs.spans.Tracer`.  When set, each
        ``execute_units``/``run_prebuilt`` call is recorded as a
        ``runner.execute`` span whose per-unit children carry the
        schema-3 ``build_s``/``sim_s`` split (tail-anchored at each
        unit's completion, the same synthesis the serving tier uses).
        Pure telemetry: spans never touch cache keys or results.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
        telemetry_path: Optional[str] = None,
        engine_version: Optional[str] = None,
        trace_store: Optional[Union[TraceStore, str]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.engine_version = engine_version or ENGINE_VERSION
        self.cache: Optional[ResultCache] = None
        if cache_dir is not None and use_cache:
            self.cache = ResultCache(cache_dir)
        if telemetry_path is None and self.cache is not None:
            telemetry_path = os.path.join(self.cache.root, TELEMETRY_BASENAME)
        self.telemetry_path = telemetry_path
        if isinstance(trace_store, str):
            trace_store = TraceStore(trace_store)
        self.trace_store: Optional[TraceStore] = trace_store
        #: Hit/miss counters of the most recent ``run``/``execute`` call.
        self.stats: Dict[str, int] = {"hits": 0, "misses": 0}
        #: Trace-store activity of the most recent call: how many
        #: artifacts were built (vs found warm) and the time spent.
        self.trace_stats: Dict[str, float] = {"builds": 0, "build_s": 0.0}
        self.tracer = tracer
        #: Wall-clock completion times of the last dispatch, by index
        #: (the anchor for tail-synthesized per-unit spans).
        self._arrivals: Dict[int, float] = {}
        self._span: Optional[Span] = None

    # ------------------------------------------------------------------
    # scenario execution

    def run(self, scenario: Scenario) -> Dict[str, Comparison]:
        """Run a full scenario; one :class:`Comparison` per workload."""
        names = [config.name for config in scenario.configurations]
        if scenario.baseline_name not in names:
            raise ValueError(
                f"no baseline {scenario.baseline_name!r} in the lineup"
            )
        units = scenario.units()
        results = self.execute_units(units)
        per_config = len(scenario.configurations)
        out: Dict[str, Comparison] = {}
        for index, spec in enumerate(scenario.workloads):
            chunk = results[index * per_config : (index + 1) * per_config]
            out[spec.name] = Comparison(
                spec.name,
                dict(zip(names, chunk)),
                scenario.baseline_name,
            )
        return out

    def run_one(self, scenario: Scenario) -> Comparison:
        """Run a single-workload scenario and return its comparison."""
        if len(scenario.workloads) != 1:
            raise ValueError(
                "run_one needs a single-workload scenario; "
                "use run() for sweeps"
            )
        return self.run(scenario)[scenario.workloads[0].name]

    def execute_units(self, units: Sequence[RunUnit]) -> List[RunResult]:
        """Execute units (cache, then pool); results in unit order."""
        if self.tracer is None:
            return self._execute_units(units)
        with self.tracer.span(
            "runner.execute", units=len(units), jobs=self.jobs
        ) as span:
            self._span = span
            try:
                results = self._execute_units(units)
            finally:
                self._span = None
            span.attrs["cache_hits"] = self.stats["hits"]
            span.attrs["misses"] = self.stats["misses"]
            return results

    def _execute_units(self, units: Sequence[RunUnit]) -> List[RunResult]:
        self.stats = {"hits": 0, "misses": 0}
        self.trace_stats = {"builds": 0, "build_s": 0.0}
        keys: List[Optional[str]] = [None] * len(units)
        results: List[Optional[RunResult]] = [None] * len(units)
        pending: List[int] = []
        for i, unit in enumerate(units):
            if self.cache is not None:
                # Hit wall_s = key computation + cache read, so warm-run
                # telemetry reflects real lookup cost rather than 0.0.
                start = time.perf_counter()
                keys[i] = unit_key(unit, self.engine_version)
                hit = self.cache.get(keys[i])
                if hit is not None:
                    results[i] = hit
                    self.stats["hits"] += 1
                    self._telemetry(
                        keys[i], unit.config.name, unit.workload.name,
                        unit.config.num_cores, unit.seed, "hit",
                        time.perf_counter() - start, 0.0, 0.0, hit,
                    )
                    continue
            pending.append(i)

        artifacts = self._stage_signatures(units, pending)
        tasks = [
            _Task(
                index=i,
                cost=_unit_cost(units[i]),
                unit=units[i],
                artifact=artifacts.get(units[i].build_signature()),
                prebuilt=None,
            )
            for i in pending
        ]
        for index, result, build_s, sim_s in self._dispatch(tasks):
            results[index] = result
            self.stats["misses"] += 1
            if self.cache is not None:
                self.cache.put(keys[index], result)
            unit = units[index]
            self._unit_spans(index, unit.config.name, build_s, sim_s)
            self._telemetry(
                keys[index], unit.config.name, unit.workload.name,
                unit.config.num_cores, unit.seed,
                "miss" if self.cache is not None else "off",
                build_s + sim_s, build_s, sim_s, result,
            )
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # prebuilt workloads (loaded traces, multiprogrammed mixes)

    def run_prebuilt(
        self,
        workload: Workload,
        configurations: Sequence[cfg.SystemConfig],
        baseline_name: str = "private",
        storm: Optional[StormConfig] = None,
        shootdown: Optional[ShootdownTraffic] = None,
        record_intervals: bool = False,
        quantum: int = DEFAULT_QUANTUM,
        metrics: bool = False,
        trace: bool = False,
    ) -> Comparison:
        """Run an already-built workload through a lineup.

        The cache key hashes the workload's trace records (there is no
        spec to canonicalise), so loaded ``.npz`` traces and
        multiprogrammed mixes cache just as scenario units do.  With a
        trace store the workload is materialized once under that same
        fingerprint and attached by every worker — never pickled per
        task.
        """
        if self.tracer is None:
            return self._run_prebuilt(
                workload, configurations, baseline_name, storm, shootdown,
                record_intervals, quantum, metrics, trace,
            )
        with self.tracer.span(
            "runner.execute", workload=workload.name, jobs=self.jobs
        ) as span:
            self._span = span
            try:
                comparison = self._run_prebuilt(
                    workload, configurations, baseline_name, storm,
                    shootdown, record_intervals, quantum, metrics, trace,
                )
            finally:
                self._span = None
            span.attrs["cache_hits"] = self.stats["hits"]
            span.attrs["misses"] = self.stats["misses"]
            return comparison

    def _run_prebuilt(
        self,
        workload: Workload,
        configurations: Sequence[cfg.SystemConfig],
        baseline_name: str,
        storm: Optional[StormConfig],
        shootdown: Optional[ShootdownTraffic],
        record_intervals: bool,
        quantum: int,
        metrics: bool,
        trace: bool,
    ) -> Comparison:
        configurations = list(configurations)
        names = [config.name for config in configurations]
        if baseline_name not in names:
            raise ValueError(f"no baseline {baseline_name!r} in the lineup")
        self.stats = {"hits": 0, "misses": 0}
        self.trace_stats = {"builds": 0, "build_s": 0.0}
        keys: List[Optional[str]] = [None] * len(configurations)
        results: List[Optional[RunResult]] = [None] * len(configurations)
        pending: List[int] = []
        fingerprint = (
            workload_fingerprint(workload)
            if self.cache is not None or self.trace_store is not None
            else None
        )
        for i, config in enumerate(configurations):
            if self.cache is not None:
                start = time.perf_counter()
                payload = {
                    "workload_fingerprint": fingerprint,
                    "config": canonicalize(config),
                    "storm": canonicalize(storm),
                    "shootdown": canonicalize(shootdown),
                    "record_intervals": record_intervals,
                    "quantum": quantum,
                    "metrics": metrics,
                    "trace": trace,
                }
                keys[i] = unit_key(payload, self.engine_version)
                hit = self.cache.get(keys[i])
                if hit is not None:
                    results[i] = hit
                    self.stats["hits"] += 1
                    self._telemetry(
                        keys[i], config.name, workload.name,
                        config.num_cores, workload.seed, "hit",
                        time.perf_counter() - start, 0.0, 0.0, hit,
                    )
                    continue
            pending.append(i)

        artifact: Optional[str] = None
        if self.trace_store is not None and pending:
            start = time.perf_counter()
            artifact, built = self.trace_store.ensure_prebuilt(
                fingerprint, workload
            )
            if built:
                self.trace_stats["builds"] += 1
                self.trace_stats["build_s"] += time.perf_counter() - start
            self._store_telemetry()
        trace_length = sum(
            len(stream) for core in workload.traces for stream in core
        )
        tasks = [
            _Task(
                index=i,
                cost=_config_cost(
                    configurations[i], trace_length, storm, shootdown
                ),
                unit=None,
                artifact=artifact,
                prebuilt=(
                    configurations[i],
                    None if artifact is not None else workload,
                    storm, shootdown, record_intervals, quantum, metrics,
                    trace,
                ),
            )
            for i in pending
        ]
        for index, result, build_s, sim_s in self._dispatch(tasks):
            results[index] = result
            self.stats["misses"] += 1
            if self.cache is not None:
                self.cache.put(keys[index], result)
            self._unit_spans(
                index, configurations[index].name, build_s, sim_s
            )
            self._telemetry(
                keys[index], configurations[index].name, workload.name,
                configurations[index].num_cores, workload.seed,
                "miss" if self.cache is not None else "off",
                build_s + sim_s, build_s, sim_s, result,
            )
        return Comparison(workload.name, dict(zip(names, results)), baseline_name)

    # ------------------------------------------------------------------
    # internals

    def _stage_signatures(
        self, units: Sequence[RunUnit], pending: Sequence[int]
    ) -> Dict[tuple, str]:
        """Materialize every distinct build signature exactly once.

        Runs in the parent before any fan-out — the build-once point of
        the data plane.  Returns ``signature -> artifact path`` for the
        dispatch list; empty (build-in-worker behaviour) without a
        store.
        """
        artifacts: Dict[tuple, str] = {}
        if self.trace_store is None or not pending:
            return artifacts
        for i in pending:
            signature = units[i].build_signature()
            if signature in artifacts:
                continue
            start = time.perf_counter()
            path, built = self.trace_store.ensure(signature)
            if built:
                self.trace_stats["builds"] += 1
                self.trace_stats["build_s"] += time.perf_counter() - start
            artifacts[signature] = path
        self._store_telemetry()
        return artifacts

    def _dispatch(
        self, tasks: List[_Task]
    ) -> List[Tuple[int, RunResult, float, float]]:
        """Run tasks longest-first; return completions in index order.

        The single dispatch path for serial and parallel execution:
        both orderings, the worker body, and the reassembly are shared,
        so telemetry and determinism logic exist exactly once.  With a
        pool, ``imap_unordered(chunksize=1)`` lets free workers steal
        the next-longest task instead of being handed a fixed slice —
        longest-first submission bounds the straggler tail (LPT).
        """
        if not tasks:
            return []
        self._arrivals = {}
        ordered = sorted(tasks, key=lambda task: (-task.cost, task.index))
        done = []
        if self.jobs > 1 and len(ordered) > 1:
            workers = min(self.jobs, len(ordered))
            with multiprocessing.Pool(processes=workers) as pool:
                for item in pool.imap_unordered(
                    _execute_task, ordered, chunksize=1
                ):
                    done.append(item)
                    self._arrivals[item[0]] = time.time()
        else:
            for task in ordered:
                item = _execute_task(task)
                done.append(item)
                self._arrivals[item[0]] = time.time()
        done.sort(key=lambda item: item[0])
        return done

    def _unit_spans(
        self, index: int, config_name: str, build_s: float, sim_s: float
    ) -> None:
        """Tail-anchored build/sim spans of one completed unit.

        The worker reports durations, not wall timestamps, so the unit
        span is anchored at its completion time in the parent; the
        anchor error is one result-pickle hand-off, rendered as gap in
        the ``runner.execute`` parent rather than misattributed.
        """
        if self.tracer is None or self._span is None:
            return
        end = self._arrivals.get(index)
        if end is None:
            return
        sim_start = end - sim_s
        start = sim_start - build_s
        unit_rec = span_record(
            name="unit.exec",
            trace_id=self.tracer.trace_id,
            parent_id=self._span.span_id,
            start_s=start,
            end_s=end,
            attrs={"config": config_name},
        )
        self.tracer.records.append(unit_rec)
        self.tracer.records.append(
            span_record(
                name="unit.build",
                trace_id=self.tracer.trace_id,
                parent_id=unit_rec["span_id"],
                start_s=start,
                end_s=sim_start,
                attrs={"config": config_name},
            )
        )
        self.tracer.records.append(
            span_record(
                name="unit.sim",
                trace_id=self.tracer.trace_id,
                parent_id=unit_rec["span_id"],
                start_s=sim_start,
                end_s=end,
                attrs={"config": config_name},
            )
        )

    def _telemetry(
        self,
        key: Optional[str],
        config_name: str,
        workload_name: str,
        cores: int,
        seed: int,
        cache_state: str,
        wall_s: float,
        build_s: float,
        sim_s: float,
        result: RunResult,
    ) -> None:
        if self.telemetry_path is None:
            return
        record = {
            "schema": TELEMETRY_SCHEMA,
            "key": key,
            "config": config_name,
            "workload": workload_name,
            "cores": cores,
            "seed": seed,
            "engine": self.engine_version,
            "cache": cache_state,
            "wall_s": round(wall_s, 6),
            "build_s": round(build_s, 6),
            "sim_s": round(sim_s, 6),
            "cycles": result.cycles,
            "l1_miss_rate": result.stats.l1_miss_rate,
            "l2_miss_rate": result.stats.l2_miss_rate,
            "walks": result.stats.walks,
            "metrics": getattr(result, "metrics", None),
        }
        self._append_telemetry(record)

    def _store_telemetry(self) -> None:
        """One summary line per execute call describing store activity.

        Carries neither ``kind`` nor ``cycles``/``metrics``, so the
        report loader classifies it as neither run nor event and skips
        it; it exists for humans and benchmark tooling reading the raw
        JSONL.
        """
        if self.telemetry_path is None:
            return
        self._append_telemetry(
            {
                "schema": TELEMETRY_SCHEMA,
                "record": "trace_store",
                "builds": self.trace_stats["builds"],
                "build_s": round(self.trace_stats["build_s"], 6),
            }
        )

    def _append_telemetry(self, record: Dict) -> None:
        directory = os.path.dirname(self.telemetry_path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(self.telemetry_path, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
