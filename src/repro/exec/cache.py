"""Content-addressed on-disk cache of simulation results.

A cache entry is keyed by the SHA-256 of the *canonicalised* run unit:
every field of the :class:`~repro.sim.scenario.RunUnit` (configuration,
workload spec, seed, storm/shootdown knobs, quantum, ...) serialised to
a stable JSON form, plus an engine-version tag that is bumped whenever
the simulator's behaviour changes.  Two runs share a key exactly when
the determinism contract guarantees they produce bit-identical
:class:`~repro.sim.results.RunResult`\\ s — so a hit can simply return
the stored value.

Prebuilt workloads (loaded traces, multiprogrammed mixes) have no spec
to canonicalise; they are fingerprinted by hashing their trace records
instead, which preserves the same property.

Values are stored with :mod:`pickle` (results are trusted local
artefacts and must round-trip exactly, intervals and all) in the one
content-addressed store both on-disk caches share
(:class:`~repro.exec.store.ContentStore`, which owns the layout, the
atomic commit and eviction walks).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
import time
from typing import Optional

import numpy as np

from repro.exec.store import ContentStore
from repro.sim.results import RunResult
from repro.workloads.trace import Workload


def canonicalize(obj):
    """Reduce a value to deterministic JSON-representable primitives.

    Dataclasses become ``{"__dataclass__": <type>, <field>: ...}`` maps
    (the type name participates in the key: two dataclasses with equal
    fields but different meanings must not collide), sequences become
    lists, dict keys are stringified and sorted by ``json.dumps``.
    Anything unhashable-by-design (functions, arrays, open files) is a
    ``TypeError`` — cache keys must never silently depend on object
    identity.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise TypeError("non-finite floats cannot be canonicalised")
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"__dataclass__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = canonicalize(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {str(key): canonicalize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(item) for item in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return canonicalize(float(obj))
    raise TypeError(f"cannot canonicalise {type(obj).__name__} for a cache key")


def canonical_json(obj) -> str:
    return json.dumps(canonicalize(obj), sort_keys=True, separators=(",", ":"))


def content_key(obj) -> str:
    """SHA-256 of ``canonical_json(obj)``: the key of every stored entry."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def unit_key(unit, engine_version: str) -> str:
    """SHA-256 content address of one run unit under one engine version."""
    return content_key({"engine": engine_version, "unit": unit})


def workload_fingerprint(workload: Workload) -> str:
    """Content hash of a prebuilt workload's traces and identity.

    Used when a run arrives with a built :class:`Workload` (a loaded
    ``.npz`` trace, a multiprogrammed mix) rather than a spec: hashing
    the records themselves keeps the key honest about what actually
    ran.
    """
    digest = hashlib.sha256()
    header = {
        "name": workload.name,
        "seed": workload.seed,
        "superpages": workload.superpages,
        "info": workload.info,
    }
    digest.update(canonical_json(header).encode("utf-8"))
    for core in workload.traces:
        for stream in core:
            arr = np.asarray(stream, dtype=np.int64).reshape(len(stream), -1)
            digest.update(str(arr.shape).encode())
            digest.update(arr.tobytes())
    return digest.hexdigest()


class ResultCache(ContentStore):
    """Content-addressed store of :class:`RunResult` values on disk.

    One ``<key>.pkl`` file per entry under the shared store layout and
    commit rule (:mod:`repro.exec.store`).  ``get`` treats any
    unreadable entry as a miss: a corrupt or truncated file must never
    poison a run.
    """

    SUFFIXES = (".pkl",)

    def get(self, key: str) -> Optional[RunResult]:
        # A damaged pickle can raise almost anything (UnicodeDecodeError,
        # ModuleNotFoundError, MemoryError, ...), so every failure is a miss.
        try:
            with open(self.path(key), "rb") as fh:
                return pickle.load(fh)
        except Exception:
            return None

    def put(self, key: str, result: RunResult) -> None:
        protocol = pickle.HIGHEST_PROTOCOL
        self._commit(key, lambda fh: pickle.dump(result, fh, protocol=protocol))

    def evict_older_than(self, max_age_s: float, now: Optional[float] = None) -> int:
        """Delete entries last written more than ``max_age_s`` ago.

        The serving tier's TTL sweep: results are content-addressed, so
        an evicted entry costs at most one re-simulation — correctness
        never depends on retention.  ``now`` is injectable for tests.
        Leftover ``.tmp-*`` files older than the same cutoff go too.
        Returns how many entries were removed; races with concurrent
        writers are benign (a vanished file is simply skipped).
        """
        if max_age_s < 0:
            raise ValueError(f"max_age_s must be >= 0 (got {max_age_s})")
        if now is None:
            now = time.time()
        self._remove_temps(cutoff=now - max_age_s)
        removed = 0
        for mtime, key in self._oldest_first():
            if now - mtime <= max_age_s:
                break
            removed += self._remove(key)
        return removed
