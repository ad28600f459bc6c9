"""JobManager semantics: coalescing, quotas, scheduling, retention."""

import asyncio
import pickle
import time

import pytest

from repro.exec.cache import ResultCache, unit_key
from repro.serve import jobs as jobs_mod
from repro.serve.jobs import (
    JobFailedError,
    JobManager,
    JobNotDoneError,
    QuotaExceededError,
    ServeConfig,
    UnknownJobError,
)
from repro.serve.schema import SubmitRequest
from repro.sim.engine import ENGINE_VERSION


def _request(**overrides):
    base = dict(workload="gups", configs=("private", "nocstar"),
                cores=4, accesses_per_core=200, seed=3)
    base.update(overrides)
    return SubmitRequest(**base)


def _run(coro):
    return asyncio.run(coro)


async def _with_manager(config, body):
    manager = JobManager(config)
    await manager.start()
    try:
        return await body(manager)
    finally:
        await manager.close()


def _counter(manager, name):
    return manager.registry.counter(name).value


# ----------------------------------------------------------------------
# coalescing

def test_concurrent_identical_submissions_execute_once():
    """N concurrent identical submissions -> one job, one execution per
    unit, N identical results (the tentpole's coalescing contract)."""
    fanout = 8

    async def body(manager):
        pairs = await asyncio.gather(
            *(manager.submit(_request()) for _ in range(fanout))
        )
        job_ids = {job_id for job_id, _ in pairs}
        assert len(job_ids) == 1
        (job_id,) = job_ids
        # Exactly one admission created the job; the rest coalesced.
        assert sum(1 for _, info in pairs if not info["coalesced"]) == 1
        assert sum(1 for _, info in pairs if info["coalesced"]) == fanout - 1
        await manager.wait(job_id)
        results = [manager.result(job_id) for _ in range(fanout)]
        blobs = {pickle.dumps(r.results) for r in results}
        assert len(blobs) == 1
        return manager.registry.snapshot()["counters"]

    counters = _run(_with_manager(ServeConfig(workers=0, quota=0), body))
    # One execution per unit of the lineup, despite 8 submissions.
    assert counters["serve.executions"] == 2
    assert counters["serve.submissions"] == 8
    assert counters["serve.jobs_coalesced"] == 7
    assert counters["serve.completed_jobs"] == 1


def test_overlapping_lineups_share_units(monkeypatch):
    """Two jobs sharing a baseline config share its execution."""

    def slow_execute(unit, artifact=None):
        time.sleep(0.2)  # keep units in flight across both submissions
        return slow_execute.real(unit, artifact)

    slow_execute.real = jobs_mod.execute_unit
    monkeypatch.setattr(jobs_mod, "execute_unit", slow_execute)

    async def body(manager):
        job_a, info_a = await manager.submit(
            _request(configs=("private", "nocstar"))
        )
        job_b, info_b = await manager.submit(
            _request(configs=("private", "distributed"))
        )
        assert job_a != job_b
        # The private unit was in flight when job B arrived.
        assert info_b["units_coalesced"] >= 1
        await manager.wait(job_a)
        await manager.wait(job_b)
        a = manager.result(job_a).results["private"]
        b = manager.result(job_b).results["private"]
        assert pickle.dumps(a) == pickle.dumps(b)
        return manager.registry.snapshot()["counters"]

    counters = _run(_with_manager(ServeConfig(workers=0, quota=0), body))
    # 4 requested units, 3 distinct: private executed once.
    assert counters["serve.executions"] == 3
    assert counters["serve.units_coalesced"] == 1


def test_cache_hit_resolves_without_execution(tmp_path):
    cache_dir = str(tmp_path / "cache")
    config = ServeConfig(workers=0, cache_dir=cache_dir)

    async def first(manager):
        job_id, info = await manager.submit(_request(configs=("nocstar",)))
        assert info["units_cached"] == 0
        await manager.wait(job_id)
        return manager.result(job_id).results["nocstar"]

    async def second(manager):
        job_id, info = await manager.submit(_request(configs=("nocstar",)))
        assert info["units_cached"] == 1
        assert info["state"] == "done"  # resolved at admission
        assert manager.status(job_id).units_cached == 1
        assert _counter(manager, "serve.executions") == 0
        assert _counter(manager, "serve.units_cache_hits") == 1
        return manager.result(job_id).results["nocstar"]

    fresh = _run(_with_manager(config, first))
    replayed = _run(_with_manager(config, second))
    assert pickle.dumps(fresh) == pickle.dumps(replayed)


def test_serve_cache_interoperates_with_runner_cache(tmp_path):
    """The coalescing key IS the Runner cache key, so a direct cache
    write (a CLI run) satisfies a later serve submission."""
    cache_dir = str(tmp_path / "cache")
    request = _request(configs=("nocstar",))
    unit = request.scenario().units()[0]
    from repro.exec.runner import execute_unit
    result, _, _ = execute_unit(unit)
    ResultCache(cache_dir).put(unit_key(unit, ENGINE_VERSION), result)

    async def body(manager):
        job_id, info = await manager.submit(request)
        assert info["units_cached"] == 1
        return manager.result(job_id).results["nocstar"]

    served = _run(
        _with_manager(ServeConfig(workers=0, cache_dir=cache_dir), body)
    )
    assert pickle.dumps(served) == pickle.dumps(result)


# ----------------------------------------------------------------------
# quotas

def test_quota_rejects_excess_jobs(monkeypatch):
    def slow_execute(unit, artifact=None):
        time.sleep(0.2)
        return slow_execute.real(unit, artifact)

    slow_execute.real = jobs_mod.execute_unit
    monkeypatch.setattr(jobs_mod, "execute_unit", slow_execute)

    async def body(manager):
        await manager.submit(_request(seed=1, client_id="alice"))
        with pytest.raises(QuotaExceededError) as excinfo:
            await manager.submit(_request(seed=2, client_id="alice"))
        assert excinfo.value.quota == 1
        # Another client is unaffected; re-submitting the SAME job is
        # coalescing, not new load, so it is also admitted.
        await manager.submit(_request(seed=1, client_id="bob"))
        job_id, info = await manager.submit(
            _request(seed=1, client_id="alice")
        )
        assert info["coalesced"]
        assert _counter(manager, "serve.quota_rejections") == 1
        await manager.wait(job_id)

    _run(_with_manager(ServeConfig(workers=0, quota=1), body))


# ----------------------------------------------------------------------
# scheduling

def test_dispatch_order_class_then_cost():
    """Interactive beats batch; within a class, costly units first."""

    async def body():
        manager = JobManager(ServeConfig(workers=0))
        manager._cond = asyncio.Condition()  # queue without consumers
        units = _request(
            configs=("private", "nocstar", "distributed")
        ).scenario().units()
        cheap, costly = units[0], units[1]
        batch = jobs_mod._Execution("k1", cheap, rank=1, artifact=None)
        inter_small = jobs_mod._Execution("k2", cheap, rank=0, artifact=None)
        inter_big = jobs_mod._Execution("k3", costly, rank=0, artifact=None)
        inter_big.cost = inter_small.cost + 1.0
        for execution in (batch, inter_small, inter_big):
            await manager._push(execution)
        order = [await manager._pop() for _ in range(3)]
        assert order == [inter_big, inter_small, batch]

    _run(body())


def test_priority_upgrade_repushes_queued_unit():
    async def body():
        manager = JobManager(ServeConfig(workers=0))
        manager._cond = asyncio.Condition()
        unit = _request(configs=("nocstar",)).scenario().units()[0]
        execution = jobs_mod._Execution("k", unit, rank=1, artifact=None)
        other = jobs_mod._Execution("k2", unit, rank=0, artifact=None)
        await manager._push(execution)
        await manager._push(other)
        # An interactive submission upgrades the queued batch unit.
        execution.rank = 0
        execution.cost = other.cost + 1.0
        await manager._push(execution)
        assert await manager._pop() is execution
        assert await manager._pop() is other
        # The stale heap entry for `execution` is skipped, not re-run.
        assert all(
            entry[3].state != "queued" for entry in manager._heap
        )

    _run(body())


# ----------------------------------------------------------------------
# failures & inspection

def test_failed_execution_fails_job(monkeypatch):
    def boom(unit, artifact=None):
        raise RuntimeError("sabotaged engine")

    monkeypatch.setattr(jobs_mod, "execute_unit", boom)

    async def body(manager):
        job_id, _ = await manager.submit(_request(configs=("nocstar",)))
        status = await manager.wait(job_id)
        assert status.state == "failed"
        assert "sabotaged" in status.error
        with pytest.raises(JobFailedError, match="sabotaged"):
            manager.result(job_id)
        assert _counter(manager, "serve.failed_executions") == 1
        assert _counter(manager, "serve.failed_jobs") == 1

    _run(_with_manager(ServeConfig(workers=0), body))


def test_unknown_job_and_not_done(monkeypatch):
    def slow_execute(unit, artifact=None):
        time.sleep(0.3)
        return slow_execute.real(unit, artifact)

    slow_execute.real = jobs_mod.execute_unit
    monkeypatch.setattr(jobs_mod, "execute_unit", slow_execute)

    async def body(manager):
        with pytest.raises(UnknownJobError):
            manager.status("feedbeef00000000")
        job_id, _ = await manager.submit(_request(configs=("nocstar",)))
        with pytest.raises(JobNotDoneError):
            manager.result(job_id)
        status = await manager.wait(job_id)
        assert status.state == "done"
        telemetry_units = status.telemetry["units"]
        assert [u["config"] for u in telemetry_units] == ["nocstar"]
        assert telemetry_units[0]["state"] == "done"
        assert status.run_s > 0.0

    _run(_with_manager(ServeConfig(workers=0), body))


def test_submit_requires_start():
    manager = JobManager(ServeConfig(workers=0))
    with pytest.raises(RuntimeError, match="start"):
        _run(manager.submit(_request()))


def test_bad_names_rejected_before_enqueue():
    from repro.serve.schema import SchemaError

    async def body(manager):
        with pytest.raises(SchemaError, match="unknown config"):
            await manager.submit(_request(configs=("warpdrive",)))
        assert _counter(manager, "serve.executions") == 0

    _run(_with_manager(ServeConfig(workers=0), body))


# ----------------------------------------------------------------------
# retention

def test_sweep_evicts_finished_jobs_after_ttl(tmp_path):
    config = ServeConfig(
        workers=0, result_ttl_s=100.0, cache_dir=str(tmp_path / "cache"),
        sweep_interval_s=3600.0,
    )

    async def body(manager):
        job_id, _ = await manager.submit(_request(configs=("nocstar",)))
        await manager.wait(job_id)
        # Within TTL: retained.
        evicted = manager.sweep(now=time.monotonic() + 50.0)
        assert evicted["jobs"] == 0
        manager.status(job_id)
        # Past TTL: the record goes away...
        evicted = manager.sweep(now=time.monotonic() + 101.0)
        assert evicted["jobs"] == 1
        with pytest.raises(UnknownJobError):
            manager.status(job_id)
        assert _counter(manager, "serve.jobs_evicted") == 1
        # ...but a resubmission is legal (and cache-resolved).
        job_id2, info = await manager.submit(_request(configs=("nocstar",)))
        assert job_id2 == job_id and info["units_cached"] == 1

    _run(_with_manager(config, body))


def test_sweep_disabled_when_ttl_none():
    async def body(manager):
        job_id, _ = await manager.submit(_request(configs=("nocstar",)))
        await manager.wait(job_id)
        assert manager.sweep(now=time.monotonic() + 1e9) == {
            "jobs": 0, "cache_entries": 0,
        }
        manager.status(job_id)

    _run(_with_manager(ServeConfig(workers=0, result_ttl_s=None), body))


def test_cache_evict_older_than(tmp_path):
    import os

    cache = ResultCache(str(tmp_path / "cache"))
    cache.put("a" * 64, {"x": 1})
    cache.put("b" * 64, {"x": 2})
    old = time.time() - 1000.0
    path = cache.path("a" * 64)
    os.utime(path, (old, old))
    assert cache.evict_older_than(500.0) == 1
    assert cache.get("a" * 64) is None
    assert cache.get("b" * 64) == {"x": 2}
    with pytest.raises(ValueError):
        cache.evict_older_than(-1.0)


def test_serve_config_validation():
    with pytest.raises(ValueError):
        ServeConfig(workers=-1)
    with pytest.raises(ValueError):
        ServeConfig(quota=-1)
    with pytest.raises(ValueError):
        ServeConfig(result_ttl_s=-5.0)
