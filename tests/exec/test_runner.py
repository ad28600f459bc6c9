"""Runner: parallel fan-out, result caching, telemetry, determinism."""

import json
import time

import pytest

from repro.exec.cache import (
    ResultCache,
    canonicalize,
    unit_key,
    workload_fingerprint,
)
from repro.exec.runner import Runner
from repro.obs.spans import Tracer
from repro.sim import configs as cfg
from repro.sim.engine import ENGINE_VERSION, StormConfig
from repro.sim.run import run_suite
from repro.sim.scenario import Scenario
from repro.workloads.generators import build_multithreaded
from repro.workloads.registry import get_workload


def _scenario(**overrides):
    base = dict(
        configurations=(cfg.private(4), cfg.nocstar(4)),
        workloads="olio",
        accesses_per_core=600,
        seed=3,
    )
    base.update(overrides)
    return Scenario(**base)


def test_parallel_results_bit_identical_to_serial():
    scenario = _scenario(workloads=("olio", "gups"))
    serial = Runner(jobs=1).run(scenario)
    parallel = Runner(jobs=4).run(scenario)
    assert set(serial) == set(parallel)
    for name in serial:
        assert serial[name].results == parallel[name].results
        for config_name, result in serial[name].results.items():
            twin = parallel[name].results[config_name]
            assert result.per_core_cycles == twin.per_core_cycles
            assert result.stats == twin.stats
            assert result.energy == twin.energy
            assert result.network == twin.network


def test_cache_hit_returns_stored_result(tmp_path):
    scenario = _scenario()
    cold_runner = Runner(jobs=1, cache_dir=str(tmp_path / "c"))
    cold = cold_runner.run_one(scenario)
    assert cold_runner.stats == {"hits": 0, "misses": 2}
    warm_runner = Runner(jobs=1, cache_dir=str(tmp_path / "c"))
    warm = warm_runner.run_one(scenario)
    assert warm_runner.stats == {"hits": 2, "misses": 0}
    assert warm.results == cold.results


def test_engine_version_bump_invalidates(tmp_path):
    scenario = _scenario(accesses_per_core=300)
    first = Runner(cache_dir=str(tmp_path), engine_version="v1")
    first.run_one(scenario)
    stale = Runner(cache_dir=str(tmp_path), engine_version="v2")
    stale.run_one(scenario)
    assert stale.stats == {"hits": 0, "misses": 2}
    fresh = Runner(cache_dir=str(tmp_path), engine_version="v1")
    fresh.run_one(scenario)
    assert fresh.stats == {"hits": 2, "misses": 0}


def test_no_cache_runner_never_touches_disk(tmp_path):
    runner = Runner(cache_dir=str(tmp_path / "c"), use_cache=False)
    runner.run_one(_scenario(accesses_per_core=200))
    assert runner.cache is None
    assert not (tmp_path / "c").exists()


def test_telemetry_records_hits_and_misses(tmp_path):
    cache_dir = tmp_path / "c"
    scenario = _scenario(accesses_per_core=300)
    Runner(cache_dir=str(cache_dir)).run_one(scenario)
    Runner(cache_dir=str(cache_dir)).run_one(scenario)
    lines = [
        json.loads(line)
        for line in (cache_dir / "telemetry.jsonl").read_text().splitlines()
    ]
    assert len(lines) == 4
    assert [rec["cache"] for rec in lines] == ["miss", "miss", "hit", "hit"]
    for rec in lines:
        assert rec["workload"] == "olio"
        assert rec["config"] in {"private", "nocstar"}
        assert rec["cycles"] > 0
        assert rec["wall_s"] >= 0
        assert len(rec["key"]) == 64


def test_warm_cache_rerun_at_least_5x_faster(tmp_path):
    """Acceptance criterion: warm re-run of a sweep is >= 5x faster."""
    scenario = _scenario(
        workloads=("olio", "gups"), accesses_per_core=3_000, seed=11
    )
    cold_runner = Runner(jobs=1, cache_dir=str(tmp_path / "c"))
    start = time.perf_counter()
    cold = cold_runner.run(scenario)
    cold_s = time.perf_counter() - start
    assert cold_runner.stats["misses"] == 4

    warm_runner = Runner(jobs=1, cache_dir=str(tmp_path / "c"))
    start = time.perf_counter()
    warm = warm_runner.run(scenario)
    warm_s = time.perf_counter() - start
    assert warm_runner.stats == {"hits": 4, "misses": 0}
    for name in cold:
        assert warm[name].results == cold[name].results
    assert warm_s < cold_s / 5, (
        f"warm rerun {warm_s:.3f}s vs cold {cold_s:.3f}s"
    )


def test_run_suite_with_jobs_matches_serial():
    scenario = _scenario(accesses_per_core=400)
    assert (
        run_suite(scenario, jobs=4)["olio"].results
        == run_suite(scenario)["olio"].results
    )


def test_missing_baseline_rejected():
    scenario = _scenario(
        configurations=(cfg.nocstar(4),), accesses_per_core=100
    )
    with pytest.raises(ValueError, match="baseline"):
        Runner().run(scenario)


def test_run_one_requires_single_workload():
    with pytest.raises(ValueError, match="single-workload"):
        Runner().run_one(_scenario(workloads=("olio", "gups")))


def test_run_prebuilt_parallel_and_cached(tmp_path):
    workload = build_multithreaded(
        get_workload("olio"), 4, accesses_per_core=500, seed=3
    )
    configs = [cfg.private(4), cfg.nocstar(4)]
    plain = Runner(jobs=1).run_prebuilt(workload, configs)
    fanned = Runner(jobs=2).run_prebuilt(workload, configs)
    assert plain.results == fanned.results

    cached = Runner(cache_dir=str(tmp_path / "c"))
    first = cached.run_prebuilt(workload, configs)
    assert cached.stats == {"hits": 0, "misses": 2}
    second = cached.run_prebuilt(workload, configs)
    assert cached.stats == {"hits": 2, "misses": 0}
    assert first.results == second.results == plain.results


def test_run_prebuilt_cache_keys_hash_the_workload_fingerprint(tmp_path):
    # Entries written before prebuilt cells became units must still hit,
    # so the key payload is pinned field by field.
    workload = build_multithreaded(
        get_workload("olio"), 4, accesses_per_core=300, seed=3
    )
    configs = [cfg.private(4), cfg.nocstar(4)]
    storm = StormConfig(period=4000)
    runner = Runner(cache_dir=str(tmp_path / "c"))
    runner.run_prebuilt(
        workload, configs, storm=storm, record_intervals=True, quantum=128
    )
    expected = {
        unit_key(
            {
                "workload_fingerprint": workload_fingerprint(workload),
                "config": canonicalize(config),
                "storm": canonicalize(storm),
                "shootdown": None,
                "record_intervals": True,
                "quantum": 128,
                "metrics": False,
                "trace": False,
            },
            ENGINE_VERSION,
        )
        for config in configs
    }
    assert set(ResultCache(str(tmp_path / "c")).keys()) == expected


def test_run_prebuilt_spans_and_telemetry_match_execute_units(tmp_path):
    workload = build_multithreaded(
        get_workload("olio"), 4, accesses_per_core=300, seed=7
    )
    tracer = Tracer()
    telemetry = tmp_path / "telemetry.jsonl"
    Runner(tracer=tracer, telemetry_path=str(telemetry)).run_prebuilt(
        workload, [cfg.private(4), cfg.nocstar(4)]
    )
    by_name = {}
    for record in tracer.records:
        by_name.setdefault(record["name"], []).append(record)
    (root,) = by_name["runner.execute"]
    assert root["attrs"] == {
        "units": 2, "jobs": 1, "cache_hits": 0, "misses": 2,
    }
    execs = by_name["unit.exec"]
    assert sorted(s["attrs"]["config"] for s in execs) == [
        "nocstar", "private",
    ]
    assert all(s["parent_id"] == root["span_id"] for s in execs)
    exec_ids = sorted(s["span_id"] for s in execs)
    for child in ("unit.build", "unit.sim"):
        assert sorted(s["parent_id"] for s in by_name[child]) == exec_ids

    rows = [json.loads(line) for line in telemetry.read_text().splitlines()]
    assert [
        (row["config"], row["workload"], row["seed"], row["cores"])
        for row in rows
    ] == [("private", workload.name, 7, 4), ("nocstar", workload.name, 7, 4)]


def test_invalid_jobs_rejected():
    with pytest.raises(ValueError):
        Runner(jobs=0)
