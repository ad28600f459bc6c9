"""Differential harness: the batched engine vs the reference engine.

The batched fast path (segment-compiled L1 hits) claims bit-identity
with the original drive loop — that claim is what let
``ENGINE_VERSION`` stay unchanged.  This suite is the proof: every
corpus scenario (all interconnects, faults on/off, observability
on/off, storm/shootdown traffic) must produce byte-identical
``RunResult`` snapshots and trace exports under both engines, across
serial, parallel, and cache-replayed execution.  Storm/shootdown
scenarios compare the inlined event loop (``_drive_events``) against
the verbatim reference loop.  Both loops read the same shared
RouteCache tables; tests/noc/test_route_cache.py checks those against
the topology.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.cache import canonical_json
from repro.exec.runner import Runner
from repro.noc.route_cache import RouteCache
from repro.noc.topology import MeshTopology
from repro.obs import write_obs_jsonl
from repro.sim import engine
from repro.sim.engine_vec import (
    REFERENCE_ENV,
    VECTORIZED_ENV,
    VECTORIZED_MIN_CORES,
)

from tests._corpus import (
    canonical_comparisons,
    differential_corpus,
    faulty_scenario,
)

CORPUS = differential_corpus()


def _execute(scenario, monkeypatch, reference):
    if reference:
        monkeypatch.setenv(REFERENCE_ENV, "1")
    else:
        monkeypatch.delenv(REFERENCE_ENV, raising=False)
    return scenario.units()[0].execute()


@pytest.mark.parametrize(
    "name,scenario", CORPUS, ids=[name for name, _ in CORPUS]
)
def test_engines_byte_identical(name, scenario, monkeypatch, tmp_path):
    batched = _execute(scenario, monkeypatch, reference=False)
    reference = _execute(scenario, monkeypatch, reference=True)
    assert canonical_json(batched) == canonical_json(reference)
    if scenario.trace:
        # The exported artefact (runs + events) must match byte for
        # byte, not just the in-memory snapshot.
        paths = []
        for tag, result in (("batched", batched), ("reference", reference)):
            path = tmp_path / f"{tag}.jsonl"
            write_obs_jsonl(
                str(path),
                [(result.config_name, result.workload_name, result)],
            )
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize(
    "name,scenario", CORPUS, ids=[name for name, _ in CORPUS]
)
def test_vectorized_engine_byte_identical(name, scenario, monkeypatch, tmp_path):
    """Forcing the mega-mesh drive loop never changes a single byte.

    Every corpus scenario runs under the default dispatch and with
    ``REPRO_VECTORIZED_ENGINE=1``; storm/shootdown scenarios take the
    event loop either way, which this comparison also proves (a broken
    dispatch would diverge, not skip).
    """
    monkeypatch.delenv(REFERENCE_ENV, raising=False)
    monkeypatch.delenv(VECTORIZED_ENV, raising=False)
    batched = scenario.units()[0].execute()
    monkeypatch.setenv(VECTORIZED_ENV, "1")
    vectorized = scenario.units()[0].execute()
    assert canonical_json(batched) == canonical_json(vectorized)
    if scenario.trace:
        paths = []
        for tag, result in (("batched", batched), ("vectorized", vectorized)):
            path = tmp_path / f"{tag}.jsonl"
            write_obs_jsonl(
                str(path),
                [(result.config_name, result.workload_name, result)],
            )
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


def test_fast_path_engages_and_reference_env_disables_it(monkeypatch):
    calls = []
    real = engine._drive_batched

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "_drive_batched", spy)
    _, scenario = CORPUS[0]
    monkeypatch.delenv(REFERENCE_ENV, raising=False)
    scenario.units()[0].execute()
    assert calls, "batched fast path never engaged"

    calls.clear()
    monkeypatch.setenv(REFERENCE_ENV, "1")
    scenario.units()[0].execute()
    assert not calls, "REPRO_REFERENCE_ENGINE=1 must force the reference loop"


def test_storm_and_shootdown_runs_use_the_event_loop(monkeypatch):
    # External L1 invalidations void the precompiled hit/miss sequence,
    # so these scenarios must take the record-at-a-time event loop —
    # never the batched or vectorized loop — and the reference switch
    # must still force the verbatim reference loop.
    def forbid(name):
        return lambda *a, **k: pytest.fail(f"{name} loop used under storms")

    monkeypatch.setattr(engine, "_drive_batched", forbid("batched"))
    monkeypatch.setattr(engine, "_drive_vectorized", forbid("vectorized"))
    storm_scenarios = [
        scenario for _, scenario in CORPUS
        if scenario.storm is not None or scenario.shootdown is not None
    ]
    assert len(storm_scenarios) >= 4
    loops = {name: getattr(engine, name)
             for name in ("_drive_events", "_drive_reference")}
    for reference, taken, skipped in (
        (False, "_drive_events", "_drive_reference"),
        (True, "_drive_reference", "_drive_events"),
    ):
        calls = []

        def spy(*args, _real=loops[taken], **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(engine, taken, spy)
        monkeypatch.setattr(engine, skipped, forbid(skipped))
        for env in ("0", "1"):
            monkeypatch.setenv(VECTORIZED_ENV, env)
            for scenario in storm_scenarios:
                _execute(scenario, monkeypatch, reference)
        assert len(calls) == 2 * len(storm_scenarios)


def test_runner_strategies_agree_across_engines(monkeypatch):
    scenario = faulty_scenario()
    monkeypatch.delenv(REFERENCE_ENV, raising=False)
    outputs = [
        canonical_comparisons(Runner(jobs=1, cache_dir=None).run(scenario)),
        canonical_comparisons(Runner(jobs=4, cache_dir=None).run(scenario)),
    ]
    # Pool workers are forked, so they inherit the reference switch.
    monkeypatch.setenv(REFERENCE_ENV, "1")
    outputs.append(
        canonical_comparisons(Runner(jobs=1, cache_dir=None).run(scenario))
    )
    outputs.append(
        canonical_comparisons(Runner(jobs=4, cache_dir=None).run(scenario))
    )
    assert len(set(outputs)) == 1


def _spy_vectorized(monkeypatch):
    calls = []
    real = engine._drive_vectorized

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "_drive_vectorized", spy)
    return calls


def _mega_run():
    from repro.sim import configs as cfg
    from repro.workloads.generators import build_multithreaded
    from repro.workloads.registry import get_workload

    workload = build_multithreaded(
        get_workload("gups"), VECTORIZED_MIN_CORES, accesses_per_core=4, seed=1
    )
    return cfg.distributed(VECTORIZED_MIN_CORES), workload


def test_vectorized_dispatch_auto_engages_at_mega_scale(monkeypatch):
    monkeypatch.delenv(REFERENCE_ENV, raising=False)
    monkeypatch.delenv(VECTORIZED_ENV, raising=False)
    calls = _spy_vectorized(monkeypatch)
    config, workload = _mega_run()
    engine.simulate(config, workload)
    assert calls, "vectorized loop must auto-engage at >= 256 cores"

    calls.clear()
    _, scenario = CORPUS[0]  # 8 cores: stays on the batched loop
    scenario.units()[0].execute()
    assert not calls


def test_vectorized_dispatch_env_overrides(monkeypatch):
    monkeypatch.delenv(REFERENCE_ENV, raising=False)
    calls = _spy_vectorized(monkeypatch)

    monkeypatch.setenv(VECTORIZED_ENV, "1")  # force on at small scale
    _, scenario = CORPUS[0]
    scenario.units()[0].execute()
    assert calls, "REPRO_VECTORIZED_ENGINE=1 must force the vectorized loop"

    calls.clear()
    monkeypatch.setenv(VECTORIZED_ENV, "0")  # disable at mega scale
    config, workload = _mega_run()
    engine.simulate(config, workload)
    assert not calls, "REPRO_VECTORIZED_ENGINE=0 must disable the loop"

    calls.clear()
    monkeypatch.setenv(VECTORIZED_ENV, "1")
    monkeypatch.setenv(REFERENCE_ENV, "1")  # reference switch always wins
    scenario.units()[0].execute()
    assert not calls, "REPRO_REFERENCE_ENGINE=1 must win over vectorized"


def test_runner_strategies_agree_with_vectorized_forced(monkeypatch):
    scenario = faulty_scenario()
    monkeypatch.delenv(REFERENCE_ENV, raising=False)
    monkeypatch.delenv(VECTORIZED_ENV, raising=False)
    outputs = [
        canonical_comparisons(Runner(jobs=1, cache_dir=None).run(scenario)),
    ]
    # Pool workers are forked, so they inherit the vectorized switch.
    monkeypatch.setenv(VECTORIZED_ENV, "1")
    outputs.append(
        canonical_comparisons(Runner(jobs=1, cache_dir=None).run(scenario))
    )
    outputs.append(
        canonical_comparisons(Runner(jobs=4, cache_dir=None).run(scenario))
    )
    assert len(set(outputs)) == 1


def test_vectorized_cache_replays_into_batched_engine(monkeypatch, tmp_path):
    # Same contract as the reference-replay test below: ENGINE_VERSION
    # did not change for the vectorized loop, so its cached results are
    # interchangeable with the batched engine's.
    scenario = faulty_scenario()
    cache_dir = str(tmp_path / "cache")
    monkeypatch.delenv(REFERENCE_ENV, raising=False)
    monkeypatch.setenv(VECTORIZED_ENV, "1")
    cold = Runner(jobs=1, cache_dir=cache_dir)
    vectorized = cold.run(scenario)
    assert cold.stats == {"hits": 0, "misses": 4}

    monkeypatch.delenv(VECTORIZED_ENV, raising=False)
    warm = Runner(jobs=1, cache_dir=cache_dir)
    replayed = warm.run(scenario)
    assert warm.stats == {"hits": 4, "misses": 0}

    fresh = canonical_comparisons(Runner(jobs=1, cache_dir=None).run(scenario))
    assert (
        canonical_comparisons(vectorized)
        == canonical_comparisons(replayed)
        == fresh
    )


@settings(max_examples=60, deadline=None)
@given(
    num_tiles=st.integers(min_value=2, max_value=64),
    router_cycles=st.integers(min_value=1, max_value=3),
    wire_cycles=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_vectorized_hop_latency_matches_live_mesh(
    num_tiles, router_cycles, wire_cycles, data
):
    """The int32 latency table the vectorized engine rides equals the
    topology's live hop count times the per-hop cost, route by route."""
    topology = MeshTopology(num_tiles)
    cache = RouteCache(topology)
    src = data.draw(st.integers(0, num_tiles - 1), label="src")
    dst = data.draw(st.integers(0, num_tiles - 1), label="dst")
    cycles_per_hop = router_cycles + wire_cycles
    table = cache.mesh_latency_array(cycles_per_hop)
    hops = topology.hops(src, dst)
    assert int(table[src][dst]) == hops * cycles_per_hop
    assert int(cache.hops_array[src][dst]) == hops


def test_reference_cache_replays_into_batched_engine(monkeypatch, tmp_path):
    # ENGINE_VERSION deliberately did not change for the fast path, so
    # results cached by the reference engine replay as hits under the
    # batched engine — and they had better be the same bytes.
    scenario = faulty_scenario()
    cache_dir = str(tmp_path / "cache")
    monkeypatch.setenv(REFERENCE_ENV, "1")
    cold = Runner(jobs=1, cache_dir=cache_dir)
    reference = cold.run(scenario)
    assert cold.stats == {"hits": 0, "misses": 4}

    monkeypatch.delenv(REFERENCE_ENV, raising=False)
    warm = Runner(jobs=1, cache_dir=cache_dir)
    replayed = warm.run(scenario)
    assert warm.stats == {"hits": 4, "misses": 0}

    fresh = canonical_comparisons(Runner(jobs=1, cache_dir=None).run(scenario))
    assert (
        canonical_comparisons(reference)
        == canonical_comparisons(replayed)
        == fresh
    )
