"""TraceStore: content addressing, build-once, attach identity, eviction."""

import os
import time

import pytest

from repro.exec.cache import workload_fingerprint
from repro.exec.trace_store import (
    TraceStore,
    _clear_attachments,
    attach_workload,
)
from repro.sim import configs as cfg
from repro.sim.scenario import Scenario
from repro.workloads.registry import get_workload


@pytest.fixture(autouse=True)
def _fresh_attachments():
    _clear_attachments()
    yield
    _clear_attachments()


def _scenario(**overrides):
    base = dict(
        configurations=(cfg.private(4), cfg.nocstar(4)),
        workloads="gups",
        accesses_per_core=200,
        seed=3,
    )
    base.update(overrides)
    return Scenario(**base)


def _signature(**overrides):
    return _scenario(**overrides).units()[0].build_signature()


def test_lineup_shares_one_signature():
    units = _scenario().units()
    assert len({unit.build_signature() for unit in units}) == 1


def test_key_is_stable_and_sensitive(tmp_path):
    store = TraceStore(str(tmp_path))
    key = store.key_for(_signature())
    assert key == store.key_for(_signature())
    assert len(key) == 64
    assert key != store.key_for(_signature(seed=4))
    assert key != store.key_for(_signature(accesses_per_core=201))
    assert key != store.key_for(_signature(workloads="olio"))
    assert key != store.key_for(_signature(smt=2))
    assert key != store.key_for(_signature(superpages=False))


def test_generator_version_bump_changes_every_key(tmp_path, monkeypatch):
    from repro.workloads import generators

    store = TraceStore(str(tmp_path))
    before = store.key_for(_signature())
    monkeypatch.setattr(generators, "GENERATOR_VERSION", 999)
    assert store.key_for(_signature()) != before


def test_ensure_builds_exactly_once(tmp_path):
    store = TraceStore(str(tmp_path))
    signature = _signature()
    path, built = store.ensure(signature)
    assert built and os.path.exists(path)
    mtime = os.path.getmtime(path)
    again, rebuilt = store.ensure(signature)
    assert again == path and not rebuilt
    assert os.path.getmtime(path) == mtime


def test_attached_workload_matches_in_process_build(tmp_path):
    store = TraceStore(str(tmp_path))
    unit = _scenario().units()[0]
    path, _ = store.ensure(unit.build_signature())
    attached = attach_workload(path)
    built = unit.build_workload()
    assert attached.traces == built.traces
    assert workload_fingerprint(attached) == workload_fingerprint(built)


def test_attach_returns_the_same_object_per_path(tmp_path):
    # Object identity is what keeps the engine's per-workload compiled
    # cache warm across a lineup's units within one worker process.
    store = TraceStore(str(tmp_path))
    path, _ = store.ensure(_signature())
    assert attach_workload(path) is attach_workload(path)


def test_missing_sidecar_reads_as_miss_and_rebuilds(tmp_path):
    store = TraceStore(str(tmp_path))
    signature = _signature()
    path, _ = store.ensure(signature)
    os.unlink(os.path.splitext(path)[0] + ".json")  # torn write
    assert store.key_for(signature) not in store
    again, rebuilt = store.ensure(signature)
    assert rebuilt and again == path
    assert attach_workload(path).traces  # readable after the rebuild


def test_stats_and_clear(tmp_path):
    store = TraceStore(str(tmp_path))
    assert store.stats() == {
        "artifacts": 0, "bytes": 0, "tmp_files": 0, "tmp_bytes": 0,
    }
    store.ensure(_signature())
    store.ensure(_signature(seed=9))
    stats = store.stats()
    assert stats["artifacts"] == len(store) == 2
    assert stats["bytes"] > 0
    assert store.clear() == 2
    assert store.stats() == {
        "artifacts": 0, "bytes": 0, "tmp_files": 0, "tmp_bytes": 0,
    }


def test_evict_drops_oldest_first(tmp_path):
    store = TraceStore(str(tmp_path))
    old_path, _ = store.ensure(_signature(seed=1))
    new_path, _ = store.ensure(_signature(seed=2))
    past = time.time() - 3600
    os.utime(old_path, (past, past))
    keep = store._entry_bytes(store.key_for(_signature(seed=2)))
    assert store.evict(max_bytes=keep) == 1
    assert not os.path.exists(old_path)
    assert os.path.exists(new_path)
    assert store.evict(max_bytes=keep) == 0  # already within budget


def test_prebuilt_artifacts_are_stored_once(tmp_path):
    from repro.workloads.generators import build_multithreaded

    store = TraceStore(str(tmp_path))
    workload = build_multithreaded(
        get_workload("gups"), 4, accesses_per_core=150, seed=7
    )
    fingerprint = workload_fingerprint(workload)
    path, built = store.ensure_prebuilt(fingerprint, workload)
    assert built
    again, rebuilt = store.ensure_prebuilt(fingerprint, workload)
    assert again == path and not rebuilt
    assert attach_workload(path).traces == workload.traces
