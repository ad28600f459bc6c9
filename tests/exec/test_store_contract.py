"""The storage contract both content-addressed stores keep.

``ResultCache`` (pickled results) and ``TraceStore`` (packed ``.npy``
artifacts with a ``.json`` sidecar) share one on-disk discipline:
``<root>/<key[:2]>/<key><suffix>`` files committed with a same-directory
``.tmp-*`` write plus ``os.replace``, the last file written being the
commit marker.  These tests pin what callers (``repro cache``,
``/v1/healthz``, the serving tier's TTL sweep) can observe of it.
"""

import hashlib
import os

import pytest

from repro.exec.cache import ResultCache
from repro.exec.trace_store import TraceStore
from repro.workloads.io import workload_from_records


def _tiny_workload(tag: str):
    pages = [hashlib.sha256(tag.encode()).digest()[i] for i in range(4)]
    return workload_from_records(
        f"w-{tag}", [[(1, 0, 4096, page) for page in pages]] * 2
    )


def _put_result(cache: ResultCache, tag: str) -> str:
    key = hashlib.sha256(tag.encode()).hexdigest()
    cache.put(key, {"tag": tag, "payload": list(range(len(tag)))})
    return key


def _put_artifact(store: TraceStore, tag: str) -> str:
    store.ensure_prebuilt(f"fp-{tag}", _tiny_workload(tag))
    return store.prebuilt_key(f"fp-{tag}")


TRACE_FILES = (".npy", ".json")

STORES = {
    "result_cache": (ResultCache, _put_result, "entries", (".pkl",)),
    "trace_store": (TraceStore, _put_artifact, "artifacts", TRACE_FILES),
}


@pytest.fixture(params=sorted(STORES))
def kind(request):
    return request.param


def _make(kind, tmp_path):
    cls, put, count_name, suffixes = STORES[kind]
    store = cls(str(tmp_path / kind))
    return store, (lambda tag: put(store, tag)), count_name, suffixes


def _committed_bytes(root: str) -> int:
    total = 0
    for dirpath, _, names in os.walk(root):
        total += sum(
            os.path.getsize(os.path.join(dirpath, name))
            for name in names
            if not name.startswith(".tmp-")
        )
    return total


def _stats(count_name, count, size, temps=0, temp_bytes=0):
    return {
        count_name: count, "bytes": size,
        "tmp_files": temps, "tmp_bytes": temp_bytes,
    }


def _files(root: str, key: str, suffixes):
    return [os.path.join(root, key[:2], key + suffix) for suffix in suffixes]


def _size(root: str, key: str, suffixes) -> int:
    return sum(os.path.getsize(path) for path in _files(root, key, suffixes))


def _gone(root: str, key: str, suffixes) -> bool:
    return not any(os.path.exists(p) for p in _files(root, key, suffixes))


def test_empty_store_reads_empty(kind, tmp_path):
    store, _, count_name, _ = _make(kind, tmp_path)
    assert list(store.keys()) == []
    assert len(store) == 0
    assert "ab" * 32 not in store
    assert store.stats() == _stats(count_name, 0, 0)
    assert store.clear() == 0


def test_keys_len_contains_and_stats(kind, tmp_path):
    store, put, count_name, suffixes = _make(kind, tmp_path)
    keys = [put(tag) for tag in ("delta", "alpha", "charlie", "bravo", "echo")]
    assert list(store.keys()) == sorted(keys)
    assert len(store) == len(keys)
    assert all(key in store for key in keys)
    assert "0" * 64 not in store
    for key in keys:
        assert all(os.path.exists(p) for p in _files(store.root, key, suffixes))
    assert store.stats() == _stats(
        count_name, len(keys), _committed_bytes(store.root)
    )


def test_clear_counts_and_removes_every_entry(kind, tmp_path):
    store, put, count_name, suffixes = _make(kind, tmp_path)
    keys = [put(tag) for tag in ("one", "two", "three")]
    assert store.clear() == 3
    assert len(store) == 0
    assert store.stats() == _stats(count_name, 0, 0)
    for key in keys:
        assert key not in store
        assert _gone(store.root, key, suffixes)
    assert store.clear() == 0


def test_leftover_tmp_files_and_strays_are_ignored(kind, tmp_path):
    store, put, count_name, suffixes = _make(kind, tmp_path)
    key = put("kept")
    bucket = os.path.join(store.root, key[:2])
    for suffix in suffixes:
        with open(os.path.join(bucket, f".tmp-abc123{suffix}"), "wb") as fh:
            fh.write(b"torn write" * 10)
    # A stray file at the root (e.g. telemetry.jsonl) is not a bucket.
    with open(os.path.join(store.root, "telemetry.jsonl"), "w") as fh:
        fh.write("{}\n")
    assert list(store.keys()) == [key]
    assert len(store) == 1
    committed = _size(store.root, key, suffixes)
    temps = (len(suffixes), 100 * len(suffixes))
    assert store.stats() == _stats(count_name, 1, committed, *temps)
    assert store.clear() == 1
    assert store.stats() == _stats(count_name, 0, 0)


def _write_temps(store, key, suffixes, mtime):
    """Leftovers of a writer killed inside the commit, dated ``mtime``."""
    bucket = os.path.join(store.root, key[:2])
    paths = []
    for suffix in suffixes:
        path = os.path.join(bucket, f".tmp-{int(mtime)}{suffix}")
        with open(path, "wb") as fh:
            fh.write(b"x" * 64)
        os.utime(path, (mtime, mtime))
        paths.append(path)
    return paths


def test_leftover_tmp_files_are_sized_and_cleared(kind, tmp_path):
    store, put, count_name, suffixes = _make(kind, tmp_path)
    key = put("kept")
    temps = _write_temps(store, key, suffixes, 1e9)
    committed = _size(store.root, key, suffixes)
    assert store.stats() == _stats(
        count_name, 1, committed, len(temps), 64 * len(temps)
    )
    assert store.clear() == 1
    assert not any(os.path.exists(path) for path in temps)
    assert store.stats() == _stats(count_name, 0, 0)
    # A store holding nothing but temps clears them too.
    temps = _write_temps(store, key, suffixes, 1e9)
    assert store.stats()["tmp_files"] == len(temps)
    assert store.clear() == 0
    assert store.stats() == _stats(count_name, 0, 0)


def test_trace_artifact_without_sidecar_reads_as_miss(tmp_path):
    store = TraceStore(str(tmp_path / "traces"))
    torn = _put_artifact(store, "torn")
    whole = _put_artifact(store, "whole")
    npy, sidecar = _files(store.root, torn, TRACE_FILES)
    os.unlink(sidecar)
    assert os.path.exists(npy)
    assert torn not in store
    assert list(store.keys()) == [whole]
    assert len(store) == 1
    assert store.stats() == _stats(
        "artifacts", 1, _size(store.root, whole, TRACE_FILES)
    )
    # Re-materialising commits the entry again.
    assert _put_artifact(store, "torn") == torn
    assert torn in store


def test_trace_evict_drops_oldest_first_counting_sidecars(tmp_path):
    store = TraceStore(str(tmp_path / "traces"))
    keys = [_put_artifact(store, tag) for tag in ("old", "mid", "new")]
    for age, key in zip((3000, 2000, 1000), keys):
        npy = _files(store.root, key, (".npy",))[0]
        os.utime(npy, (1e9 - age, 1e9 - age))
    newest_two = sum(_size(store.root, key, TRACE_FILES) for key in keys[1:])
    assert store.evict(max_bytes=newest_two) == 1
    assert set(store.keys()) == set(keys[1:])
    assert _gone(store.root, keys[0], TRACE_FILES)
    assert store.evict(max_bytes=newest_two) == 0
    assert store.evict(max_bytes=newest_two - 1) == 1
    assert list(store.keys()) == [keys[2]]
    assert store.evict(max_bytes=0) == 1
    assert store.stats() == _stats("artifacts", 0, 0)


def test_result_evict_older_than_uses_the_injected_clock(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    keys = [_put_result(cache, tag) for tag in ("old", "mid", "new")]
    for mtime, key in zip((1000.0, 2000.0, 3000.0), keys):
        os.utime(_files(cache.root, key, (".pkl",))[0], (mtime, mtime))
    assert cache.evict_older_than(5000.0, now=3100.0) == 0
    assert cache.evict_older_than(1500.0, now=3100.0) == 1
    assert sorted(cache.keys()) == sorted(keys[1:])
    assert cache.evict_older_than(0.0, now=3000.0) == 1
    assert list(cache.keys()) == [keys[2]]
    with pytest.raises(ValueError):
        cache.evict_older_than(-1.0, now=3100.0)
    assert list(cache.keys()) == [keys[2]]


def test_result_evict_older_than_reclaims_old_temps(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    key = _put_result(cache, "kept")
    os.utime(_files(cache.root, key, (".pkl",))[0], (3000.0, 3000.0))
    old = _write_temps(cache, key, (".pkl",), 1000.0)
    young = _write_temps(cache, key, (".pkl",), 2900.0)
    assert cache.evict_older_than(1500.0, now=3100.0) == 0
    assert not any(os.path.exists(path) for path in old)
    assert all(os.path.exists(path) for path in young)
    committed = _size(cache.root, key, (".pkl",))
    assert cache.stats() == _stats("entries", 1, committed, 1, 64)
