"""Async job manager: the execution core of the serving tier.

The :class:`JobManager` turns submissions into exactly-once executions:

* **coalescing** — a job's identity is the canonical form of its
  :class:`~repro.serve.schema.SubmitRequest`; identical submissions
  (from any client, at any moment while the job is retained) attach to
  the same job.  Below the job, each
  :class:`~repro.sim.scenario.RunUnit` grain is keyed by the *existing*
  result-cache key (:func:`repro.exec.cache.unit_key`), so two
  different jobs that overlap in units — e.g. lineups sharing a
  baseline — share those executions too, and everything dedups against
  CLI runs pointed at the same cache directory;
* **admission & scheduling** — queued executions are dispatched over a
  long-lived worker pool (processes; ``workers=0`` is an in-process
  thread mode for embedding and tests) in (service class,
  longest-first) order: interactive jobs always leave the queue before
  batch jobs, and within a class the PR 5 cost model
  (:func:`repro.exec.runner.unit_cost`) orders work longest-first so
  stragglers start early;
* **quotas** — each client may participate in at most ``quota`` active
  jobs; excess submissions are rejected with
  :class:`QuotaExceededError` (HTTP 429 at the daemon);
* **TTL retention** — finished job records and result-cache entries
  older than ``result_ttl_s`` are evicted by a periodic sweep
  (:meth:`JobManager.sweep`, also callable directly).  Eviction is
  safe by construction: results are content-addressed, so the worst
  case is one re-simulation;
* **observability** — a :class:`~repro.obs.MetricsRegistry` under the
  ``serve.*`` namespace (submission/coalescing/cache counters,
  queue/exec/job latency histograms, depth gauges) plus per-job
  telemetry snapshots embedded in every
  :class:`~repro.serve.schema.JobStatus`.

Determinism: workers run :func:`repro.exec.runner.execute_unit` — the
same body Runner pool workers execute — so an HTTP-submitted scenario
returns the byte-identical RunResult the CLI produces.
"""

from __future__ import annotations

import asyncio
import heapq
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.exec.cache import ResultCache, unit_key
from repro.exec.runner import execute_unit, unit_cost
from repro.exec.trace_store import TraceStore
from repro.obs import MetricsRegistry
from repro.obs.spans import new_id, span_record, unit_span_records
from repro.serve.schema import (
    SERVICE_CLASSES,
    JobResult,
    JobStatus,
    SubmitRequest,
)
from repro.sim.engine import ENGINE_VERSION
from repro.sim.results import RunResult
from repro.sim.scenario import RunUnit

#: Default retention of finished jobs and their cached results.
DEFAULT_TTL_S = 3600.0


class QuotaExceededError(RuntimeError):
    """A client tried to exceed its active-job quota."""

    def __init__(self, client_id: str, active: int, quota: int) -> None:
        super().__init__(
            f"client {client_id!r} has {active} active job(s); quota is "
            f"{quota}"
        )
        self.client_id = client_id
        self.active = active
        self.quota = quota


class UnknownJobError(KeyError):
    """No such job id (never created, or TTL-evicted)."""


class JobNotDoneError(RuntimeError):
    """Result requested before the job finished."""


class JobFailedError(RuntimeError):
    """Result requested for a job whose execution failed."""


@dataclass(frozen=True)
class ServeConfig:
    """Daemon-side knobs, all orthogonal to simulated outcomes."""

    #: Worker processes.  ``0`` runs executions in a single in-process
    #: thread (embedding/tests); ``>= 1`` uses a long-lived process pool.
    workers: int = 2
    #: Max active jobs a single client may participate in (0 = no limit).
    quota: int = 8
    #: Retention of finished jobs + result-cache entries; None disables
    #: the sweep entirely.
    result_ttl_s: Optional[float] = DEFAULT_TTL_S
    #: Content-addressed result cache directory (None = in-flight
    #: coalescing only, no cross-run dedup).
    cache_dir: Optional[str] = None
    #: Materialized trace-artifact store (None = build in workers).
    trace_store: Optional[str] = None
    #: Seconds between TTL sweeps (None = derived from the TTL).
    sweep_interval_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0 (got {self.workers})")
        if self.quota < 0:
            raise ValueError(f"quota must be >= 0 (got {self.quota})")
        if self.result_ttl_s is not None and self.result_ttl_s < 0:
            raise ValueError("result_ttl_s must be >= 0 or None")


class _Execution:
    """One in-flight or finished unit execution, shared across jobs."""

    __slots__ = (
        "key", "unit", "cost", "rank", "artifact", "state", "result",
        "error", "build_s", "sim_s", "created", "started", "finished",
        "created_ts", "started_ts", "finished_ts",
        "done_event", "job_ids", "cached",
    )

    def __init__(
        self, key: str, unit: RunUnit, rank: int, artifact: Optional[str]
    ) -> None:
        self.key = key
        self.unit = unit
        self.cost = unit_cost(unit)
        self.rank = rank
        self.artifact = artifact
        self.state = "queued"  # queued | running | done | failed
        self.result: Optional[RunResult] = None
        self.error: Optional[str] = None
        self.build_s = 0.0
        self.sim_s = 0.0
        self.created = time.monotonic()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        # Wall-clock twins of the monotonic fields, for span records
        # only (durations keep using the monotonic clock).
        self.created_ts = time.time()
        self.started_ts: Optional[float] = None
        self.finished_ts: Optional[float] = None
        self.done_event = asyncio.Event()
        self.job_ids: Set[str] = set()
        self.cached = False

    @classmethod
    def resolved(cls, key: str, unit: RunUnit, result: RunResult) -> "_Execution":
        """An execution satisfied instantly from the result cache."""
        execution = cls(key, unit, rank=0, artifact=None)
        execution.state = "done"
        execution.result = result
        execution.cached = True
        execution.started = execution.created
        execution.finished = execution.created
        execution.started_ts = execution.created_ts
        execution.finished_ts = execution.created_ts
        execution.done_event.set()
        return execution


class _Job:
    """One coalesced submission: a lineup of executions plus clients."""

    __slots__ = (
        "job_id", "request", "clients", "executions", "created", "finished",
        "created_ts", "finished_ts", "trace", "span_id", "extra_spans",
    )

    #: Cap on coalesce/reject side-spans retained per job — repeat
    #: coalesced submissions must not grow a job record without bound.
    MAX_EXTRA_SPANS = 64

    def __init__(self, job_id: str, request: SubmitRequest) -> None:
        self.job_id = job_id
        self.request = request
        self.clients: Set[str] = {request.client_id}
        self.executions: List[_Execution] = []
        self.created = time.monotonic()
        self.finished: Optional[float] = None
        self.created_ts = time.time()
        self.finished_ts: Optional[float] = None
        #: First trace context seen for this job (creator's, or the
        #: first traced coalescer's) — parents the server span tree.
        self.trace: Optional[Dict[str, str]] = (
            dict(request.trace_context) if request.trace_context else None
        )
        #: span_id of the synthesized ``server.submit`` root.
        self.span_id = new_id()
        #: Point-event span records (job/unit coalesce hits).
        self.extra_spans: List[Dict[str, object]] = []

    def note_span(self, record: Dict[str, object]) -> None:
        if len(self.extra_spans) < self.MAX_EXTRA_SPANS:
            self.extra_spans.append(record)

    @property
    def state(self) -> str:
        if any(e.state == "failed" for e in self.executions):
            return "failed"
        if all(e.state == "done" for e in self.executions):
            return "done"
        if any(e.state != "queued" for e in self.executions):
            return "running"
        return "queued"

    @property
    def active(self) -> bool:
        return self.state in ("queued", "running")


class JobManager:
    """Owns the queue, the pool, the jobs, and the serve metrics."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.registry = MetricsRegistry()
        self.cache: Optional[ResultCache] = (
            ResultCache(self.config.cache_dir)
            if self.config.cache_dir
            else None
        )
        self.trace_store: Optional[TraceStore] = (
            TraceStore(self.config.trace_store)
            if self.config.trace_store
            else None
        )
        self._jobs: Dict[str, _Job] = {}
        #: Span records with no job to live on (quota rejections),
        #: bounded so a reject storm cannot grow the manager.
        self.span_log: Deque[Dict[str, object]] = deque(maxlen=256)
        #: key -> queued/running execution (the coalescing map).
        self._inflight: Dict[str, _Execution] = {}
        self._heap: List[Tuple[int, float, int, _Execution]] = []
        self._seq = 0
        self._cond: Optional[asyncio.Condition] = None
        self._consumers: List[asyncio.Task] = []
        self._sweeper: Optional[asyncio.Task] = None
        self._pool = None
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        """Create the pool and the consumer/sweeper tasks."""
        if self._started:
            return
        self._cond = asyncio.Condition()
        if self.config.workers >= 1:
            self._pool = ProcessPoolExecutor(max_workers=self.config.workers)
        else:
            self._pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve-inline"
            )
        slots = max(1, self.config.workers)
        self._consumers = [
            asyncio.ensure_future(self._consume()) for _ in range(slots)
        ]
        if self.config.result_ttl_s is not None:
            self._sweeper = asyncio.ensure_future(self._sweep_loop())
        self._started = True

    async def close(self) -> None:
        """Cancel tasks and shut the pool down; idempotent."""
        if not self._started:
            return
        self._started = False
        tasks = list(self._consumers)
        if self._sweeper is not None:
            tasks.append(self._sweeper)
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._consumers = []
        self._sweeper = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # ------------------------------------------------------------------
    # submission

    async def submit(self, request: SubmitRequest) -> Tuple[str, Dict]:
        """Admit one request; returns ``(job_id, info)``.

        ``info`` reports what admission did: ``coalesced`` (attached to
        an existing job), ``units_cached`` (grains satisfied from the
        result cache), ``units_coalesced`` (grains attached to another
        job's in-flight executions), ``state``.
        """
        if not self._started:
            raise RuntimeError("JobManager.start() has not been awaited")
        self._count("serve.submissions")
        job_id = request.job_id()
        job = self._jobs.get(job_id)
        if job is not None:
            if request.client_id not in job.clients and job.active:
                self._check_quota(request)
            job.clients.add(request.client_id)
            self._count("serve.jobs_coalesced")
            if request.trace_context:
                now_ts = time.time()
                job.note_span(
                    span_record(
                        name="server.coalesced",
                        trace_id=request.trace_context["trace_id"],
                        parent_id=request.trace_context.get("parent_id"),
                        start_s=now_ts,
                        end_s=now_ts,
                        attrs={
                            "job_id": job_id,
                            "client_id": request.client_id,
                        },
                    )
                )
                if job.trace is None:
                    job.trace = dict(request.trace_context)
            return job_id, {
                "coalesced": True,
                "units_cached": sum(1 for e in job.executions if e.cached),
                "units_coalesced": 0,
                "state": job.state,
            }

        self._check_quota(request)
        # Scenario construction validates workload/config names and
        # raises SchemaError -> HTTP 400 before anything is enqueued.
        scenario = request.scenario()
        units = scenario.units()
        rank = SERVICE_CLASSES.index(request.service_class)
        job = _Job(job_id, request)
        cached = coalesced = 0
        fresh: List[_Execution] = []
        for unit in units:
            key = unit_key(unit, ENGINE_VERSION)
            execution = self._inflight.get(key)
            if execution is not None:
                coalesced += 1
                self._count("serve.units_coalesced")
                if job.trace is not None:
                    now_ts = time.time()
                    job.note_span(
                        span_record(
                            name="unit.coalesced",
                            trace_id=job.trace["trace_id"],
                            parent_id=job.span_id,
                            start_s=now_ts,
                            end_s=now_ts,
                            attrs={"config": unit.config.name},
                        )
                    )
                if rank < execution.rank and execution.state == "queued":
                    # A higher-priority class wants this unit: lazily
                    # re-push; stale heap entries are skipped on pop.
                    execution.rank = rank
                    await self._push(execution)
            else:
                hit = self.cache.get(key) if self.cache is not None else None
                if hit is not None:
                    cached += 1
                    self._count("serve.units_cache_hits")
                    execution = _Execution.resolved(key, unit, hit)
                else:
                    execution = _Execution(
                        key, unit, rank, await self._stage(unit)
                    )
                    fresh.append(execution)
            execution.job_ids.add(job_id)
            job.executions.append(execution)
        self._jobs[job_id] = job
        for execution in fresh:
            self._inflight[execution.key] = execution
            await self._push(execution)
        if job.state == "done":
            job.finished = time.monotonic()
            job.finished_ts = time.time()
            self._count("serve.completed_jobs")
        self._refresh_gauges()
        return job_id, {
            "coalesced": False,
            "units_cached": cached,
            "units_coalesced": coalesced,
            "state": job.state,
        }

    def _check_quota(self, request: SubmitRequest) -> None:
        if self.config.quota <= 0:
            return
        client_id = request.client_id
        active = sum(
            1
            for job in self._jobs.values()
            if job.active and client_id in job.clients
        )
        if active >= self.config.quota:
            self._count("serve.quota_rejections")
            if request.trace_context:
                # No job record to live on — the rejection span lands
                # in the bounded manager-level log instead.
                now_ts = time.time()
                self.span_log.append(
                    span_record(
                        name="server.quota_reject",
                        trace_id=request.trace_context["trace_id"],
                        parent_id=request.trace_context.get("parent_id"),
                        start_s=now_ts,
                        end_s=now_ts,
                        status="error: QuotaExceededError",
                        attrs={
                            "client_id": client_id,
                            "active": active,
                            "quota": self.config.quota,
                        },
                    )
                )
            raise QuotaExceededError(client_id, active, self.config.quota)

    async def _stage(self, unit: RunUnit) -> Optional[str]:
        """Materialize the unit's trace artifact (build-once), if any."""
        if self.trace_store is None:
            return None
        loop = asyncio.get_running_loop()
        start = time.monotonic()
        path, built = await loop.run_in_executor(
            None, self.trace_store.ensure, unit.build_signature()
        )
        if built:
            self._count("serve.trace_builds")
            self.registry.histogram("serve.trace_build_ms").observe(
                (time.monotonic() - start) * 1000.0
            )
        return path

    # ------------------------------------------------------------------
    # queue & dispatch

    async def _push(self, execution: _Execution) -> None:
        async with self._cond:
            self._seq += 1
            heapq.heappush(
                self._heap,
                (execution.rank, -execution.cost, self._seq, execution),
            )
            self._cond.notify()

    async def _pop(self) -> _Execution:
        async with self._cond:
            while True:
                while self._heap:
                    _, _, _, execution = heapq.heappop(self._heap)
                    if execution.state == "queued":
                        execution.state = "running"
                        execution.started = time.monotonic()
                        execution.started_ts = time.time()
                        return execution
                await self._cond.wait()

    async def _consume(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            execution = await self._pop()
            self._count("serve.executions")
            self.registry.histogram("serve.queue_ms").observe(
                (execution.started - execution.created) * 1000.0
            )
            self._refresh_gauges()
            try:
                result, build_s, sim_s = await loop.run_in_executor(
                    self._pool, execute_unit, execution.unit,
                    execution.artifact,
                )
            except asyncio.CancelledError:
                execution.state = "queued"
                execution.started = None
                execution.started_ts = None
                await self._push(execution)
                raise
            except Exception as exc:  # worker death, engine error
                execution.state = "failed"
                execution.error = f"{type(exc).__name__}: {exc}"
                self._count("serve.failed_executions")
            else:
                execution.state = "done"
                execution.result = result
                execution.build_s = build_s
                execution.sim_s = sim_s
                if self.cache is not None:
                    self.cache.put(execution.key, result)
                self.registry.histogram("serve.exec_ms").observe(
                    (build_s + sim_s) * 1000.0
                )
            execution.finished = time.monotonic()
            execution.finished_ts = time.time()
            execution.done_event.set()
            self._inflight.pop(execution.key, None)
            self._settle_jobs(execution)
            self._refresh_gauges()

    def _settle_jobs(self, execution: _Execution) -> None:
        for job_id in execution.job_ids:
            job = self._jobs.get(job_id)
            if job is None or job.finished is not None:
                continue
            state = job.state
            if state in ("done", "failed"):
                job.finished = time.monotonic()
                job.finished_ts = time.time()
                self._count(
                    "serve.completed_jobs"
                    if state == "done"
                    else "serve.failed_jobs"
                )
                self.registry.histogram("serve.job_ms").observe(
                    (job.finished - job.created) * 1000.0
                )

    def _count(self, name: str, n: int = 1) -> None:
        self.registry.counter(name).inc(n)

    def _refresh_gauges(self) -> None:
        self.registry.gauge("serve.queue_depth").set(
            sum(1 for e in self._inflight.values() if e.state == "queued")
        )
        self.registry.gauge("serve.inflight_executions").set(
            len(self._inflight)
        )
        self.registry.gauge("serve.active_jobs").set(
            sum(1 for job in self._jobs.values() if job.active)
        )
        self.registry.gauge("serve.retained_jobs").set(len(self._jobs))

    # ------------------------------------------------------------------
    # inspection

    def _job(self, job_id: str) -> _Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(job_id)
        return job

    def status(self, job_id: str) -> JobStatus:
        """The current :class:`JobStatus` snapshot of one job."""
        job = self._job(job_id)
        now = time.monotonic()
        started = [e.started for e in job.executions if e.started is not None]
        first_start = min(started) if started else None
        if first_start is None:
            queued_s = now - job.created
            run_s = 0.0
        else:
            queued_s = max(0.0, first_start - job.created)
            run_s = (job.finished or now) - first_start
        error = next(
            (e.error for e in job.executions if e.state == "failed"), None
        )
        telemetry = {
            "engine": ENGINE_VERSION,
            "units": [
                {
                    "config": e.unit.config.name,
                    "state": e.state,
                    "cache": "hit" if e.cached else "miss",
                    "cost": e.cost,
                    "build_s": round(e.build_s, 6),
                    "sim_s": round(e.sim_s, 6),
                }
                for e in job.executions
            ],
        }
        spans = self._job_spans(job)
        if spans is not None:
            telemetry["spans"] = spans
        return JobStatus(
            job_id=job.job_id,
            state=job.state,
            workload=job.request.workload,
            configs=job.request.configs,
            service_class=job.request.service_class,
            clients=tuple(sorted(job.clients)),
            units_total=len(job.executions),
            units_done=sum(1 for e in job.executions if e.state == "done"),
            units_cached=sum(1 for e in job.executions if e.cached),
            queued_s=round(queued_s, 6),
            run_s=round(run_s, 6),
            error=error,
            telemetry=telemetry,
        )

    def _job_spans(self, job: _Job) -> Optional[List[Dict[str, object]]]:
        """The server-side span tree of one traced job (else ``None``).

        Synthesized on demand from the wall-clock twins of the
        monotonic lifecycle timestamps — nothing here runs unless the
        submission carried a ``trace_context``, and nothing here is
        ever read back by the manager, so tracing stays a pure
        observer.  The ``unit.build``/``unit.sim`` children are
        anchored at the tail of ``unit.exec`` using the worker's
        schema-3 ``build_s``/``sim_s`` split (the executor hand-off
        before them is real queue/pickle time, rendered as the exec
        span's gap).
        """
        if job.trace is None:
            return None
        trace_id = job.trace["trace_id"]
        now_ts = time.time()
        end_ts = job.finished_ts if job.finished_ts is not None else now_ts
        records = [
            span_record(
                name="server.submit",
                trace_id=trace_id,
                span_id=job.span_id,
                parent_id=job.trace.get("parent_id"),
                start_s=job.created_ts,
                end_s=end_ts,
                attrs={"job_id": job.job_id, "state": job.state},
            )
        ]
        for e in job.executions:
            config = e.unit.config.name
            if e.cached:
                records.append(
                    span_record(
                        name="unit.cache_hit",
                        trace_id=trace_id,
                        parent_id=job.span_id,
                        start_s=e.created_ts,
                        end_s=e.created_ts,
                        attrs={"config": config},
                    )
                )
                continue
            queue_end = e.started_ts if e.started_ts is not None else end_ts
            records.append(
                span_record(
                    name="unit.queue",
                    trace_id=trace_id,
                    parent_id=job.span_id,
                    start_s=e.created_ts,
                    end_s=queue_end,
                    attrs={"config": config, "cost": e.cost},
                )
            )
            if e.started_ts is None:
                continue
            records.extend(
                unit_span_records(
                    trace_id=trace_id,
                    parent_id=job.span_id,
                    config=config,
                    start_s=e.started_ts,
                    end_s=(
                        e.finished_ts if e.finished_ts is not None else now_ts
                    ),
                    build_s=e.build_s,
                    sim_s=e.sim_s,
                    status=(
                        f"error: {e.error}" if e.state == "failed" else "ok"
                    ),
                    split=e.state == "done"
                    and (e.build_s > 0.0 or e.sim_s > 0.0),
                    state=e.state,
                )
            )
        records.extend(job.extra_spans)
        return records

    def storage_stats(self) -> Dict[str, object]:
        """Cache-pressure stats for ``/v1/healthz``.

        ``results`` mirrors :meth:`ResultCache.stats` and ``traces``
        :meth:`TraceStore.stats`; a disabled store reports ``None`` so
        operators can tell "empty" from "not configured".
        """
        return {
            "results": (
                self.cache.stats() if self.cache is not None else None
            ),
            "traces": (
                self.trace_store.stats()
                if self.trace_store is not None
                else None
            ),
        }

    def result(self, job_id: str) -> JobResult:
        """The completed :class:`JobResult`; raises until it exists."""
        job = self._job(job_id)
        state = job.state
        if state == "failed":
            error = next(
                (e.error for e in job.executions if e.state == "failed"),
                "unknown failure",
            )
            raise JobFailedError(error)
        if state != "done":
            raise JobNotDoneError(f"job {job_id} is {state}")
        results = {
            e.unit.config.name: e.result for e in job.executions
        }
        # Results are keyed by built-config names, which can differ
        # from the request's registry keys ("monolithic" builds
        # "monolithic-mesh") — the baseline must use the same keyspace.
        return JobResult(
            job_id=job.job_id,
            workload=job.request.workload,
            baseline=job.executions[0].unit.config.name,
            results=results,
        )

    async def wait(self, job_id: str, timeout: Optional[float] = None) -> JobStatus:
        """Block until the job finishes (or ``timeout`` elapses)."""
        job = self._job(job_id)
        waiters = [
            e.done_event.wait()
            for e in job.executions
            if not e.done_event.is_set()
        ]
        if waiters:
            await asyncio.wait_for(asyncio.gather(*waiters), timeout)
        return self.status(job_id)

    def metrics_snapshot(self) -> Dict[str, object]:
        """The ``serve.*`` registry snapshot (gauges refreshed first)."""
        self._refresh_gauges()
        return self.registry.snapshot()

    # ------------------------------------------------------------------
    # retention

    def sweep(self, now: Optional[float] = None) -> Dict[str, int]:
        """Evict finished jobs and cache entries older than the TTL.

        Exposed (and ``now``-injectable) so tests and operators can
        trigger retention deterministically; the background sweeper
        calls this on an interval.
        """
        ttl = self.config.result_ttl_s
        evicted = {"jobs": 0, "cache_entries": 0}
        if ttl is None:
            return evicted
        if now is None:
            now = time.monotonic()
        for job_id, job in list(self._jobs.items()):
            if job.finished is not None and now - job.finished > ttl:
                del self._jobs[job_id]
                evicted["jobs"] += 1
        if self.cache is not None:
            evicted["cache_entries"] = self.cache.evict_older_than(ttl)
        if evicted["jobs"]:
            self._count("serve.jobs_evicted", evicted["jobs"])
        if evicted["cache_entries"]:
            self._count("serve.cache_evictions", evicted["cache_entries"])
        self._refresh_gauges()
        return evicted

    async def _sweep_loop(self) -> None:
        ttl = self.config.result_ttl_s
        interval = self.config.sweep_interval_s
        if interval is None:
            interval = max(1.0, (ttl or DEFAULT_TTL_S) / 4.0)
        while True:
            await asyncio.sleep(interval)
            self.sweep()
