"""Parallel experiment runner with content-addressed result caching.

The :class:`Runner` executes the independent :class:`RunUnit` grains of
a :class:`~repro.sim.scenario.Scenario`.  An already-built workload run
through a lineup (:meth:`Runner.run_prebuilt`) becomes one private
``_PrebuiltUnit`` per configuration and takes the same pipeline; every
unit, in a Runner pool or a serving worker, runs through the one worker
body :func:`execute_unit`.  The pipeline provides:

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
  ``num_cores × records per core × scheme factor`` (factors calibrated
  from Runner telemetry) and tasks are dispatched longest-first over
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
from dataclasses import dataclass, replace
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

    ``artifact`` (when not ``None``) points at a packed trace to attach
    in place of building — for a prebuilt cell it also replaces the
    pickled workload, which is the zero-copy half of the data plane.
    """

    index: int
    cost: float
    unit: RunUnit
    artifact: Optional[str]


@dataclass(frozen=True)
class _PrebuiltUnit(RunUnit):
    """One lineup cell over an already-built workload.

    Loaded ``.npz`` traces and multiprogrammed mixes have no spec to
    rebuild from, so ``workload`` holds the built :class:`Workload`
    itself (``None`` in a task whose trace-store artifact replaces it),
    ``accesses_per_core`` its records per core (all SMT streams, so
    :func:`unit_cost` weighs it like the generated twin) and ``seed``
    its seed.  The cache key hashes the records via ``fingerprint``;
    the payload layout is pinned so cache entries written by earlier
    versions still hit.
    """

    fingerprint: Optional[str] = None

    def cache_payload(self) -> Dict[str, object]:
        return {
            "workload_fingerprint": self.fingerprint,
            "config": canonicalize(self.config),
            "storm": canonicalize(self.storm),
            "shootdown": canonicalize(self.shootdown),
            "record_intervals": self.record_intervals,
            "quantum": self.quantum,
            "metrics": self.metrics,
            "trace": self.trace,
        }

    def build_signature(self) -> Tuple:
        return ("prebuilt", self.fingerprint)

    def build_workload(self) -> Workload:
        return self.workload


def unit_cost(unit: RunUnit) -> float:
    """Estimated relative cost of one unit (the LPT scheduling weight).

    Shared by the Runner's longest-first dispatch and the serving
    tier's admission queue, so both layers order work by the same
    calibrated model.
    """
    cost = float(unit.config.num_cores) * (unit.accesses_per_core * unit.smt)
    cost *= _SCHEME_COST.get(unit.config.scheme, 1.0)
    if unit.storm is not None or unit.shootdown is not None:
        cost *= _REFERENCE_LOOP_COST
    return cost


def execute_unit(
    unit: RunUnit, artifact: Optional[str] = None
) -> Tuple[RunResult, float, float]:
    """Attach-or-build one unit's workload, then simulate; both timed.

    The one worker body: Runner pool workers and the serving tier's
    pool workers both run it, which is what makes an HTTP-submitted
    unit byte-identical to a CLI run of the same unit.  Returns
    ``(result, build_s, sim_s)``.
    """
    start = time.perf_counter()
    if artifact is not None:
        workload = attach_workload(artifact)
    else:
        workload = unit.build_workload()
    built = time.perf_counter()
    result = unit.execute(workload)
    return result, built - start, time.perf_counter() - built


def _execute_task(task: _Task) -> Tuple[int, RunResult, float, float]:
    """Pool worker body: :func:`execute_unit` plus the task's index.

    The index rides along because ``imap_unordered`` yields completions
    in finish order and the parent reassembles by submission index.
    """
    return (task.index, *execute_unit(task.unit, task.artifact))


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
                payload = (
                    unit.cache_payload()
                    if isinstance(unit, _PrebuiltUnit)
                    else unit
                )
                keys[i] = unit_key(payload, self.engine_version)
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
        tasks = []
        for i in pending:
            unit = units[i]
            artifact = artifacts.get(unit.build_signature())
            if artifact is not None and isinstance(unit, _PrebuiltUnit):
                # Ship the artifact path, not the pickled records.
                unit = replace(unit, workload=None)
            tasks.append(_Task(i, unit_cost(unit), unit, artifact))
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
        configurations = list(configurations)
        names = [config.name for config in configurations]
        if baseline_name not in names:
            raise ValueError(f"no baseline {baseline_name!r} in the lineup")
        fingerprint = (
            workload_fingerprint(workload)
            if self.cache is not None or self.trace_store is not None
            else None
        )
        units = [
            _PrebuiltUnit(
                config=config,
                workload=workload,
                accesses_per_core=workload.total_accesses
                // workload.num_cores,
                seed=workload.seed,
                superpages=workload.superpages,
                storm=storm,
                shootdown=shootdown,
                record_intervals=record_intervals,
                quantum=quantum,
                metrics=metrics,
                trace=trace,
                fingerprint=fingerprint,
            )
            for config in configurations
        ]
        results = self.execute_units(units)
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
            if isinstance(units[i], _PrebuiltUnit):
                path, built = self.trace_store.ensure_prebuilt(
                    units[i].fingerprint, units[i].workload
                )
            else:
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
