"""Content-addressed store of materialized trace artifacts.

The sweep data plane's first principle is *build once*: a multi-core
trace is a pure function of its build signature — workload spec, core
count, accesses per core, seed, superpage flag, SMT width — so there is
never a reason to construct it more than once per machine.  The
:class:`TraceStore` materializes each signature's trace as a packed
``.npy`` artifact plus ``.json`` sidecar (the layout of
:func:`repro.workloads.io.pack_workload`) under a SHA-256 content
address, shared across lineups, sweeps, and sessions.  It is the same
:class:`~repro.exec.store.ContentStore` the result cache uses, so the
layout, the commit rule (sidecar last, as the commit marker), listing,
sizing and removal are written once, in :mod:`repro.exec.store`.

Keying mirrors the result cache: the canonical JSON of the signature
plus two version tags — :data:`~repro.workloads.generators.GENERATOR_VERSION`
(bumped whenever trace *generation* changes) and
:data:`~repro.workloads.io.PACKED_FORMAT_VERSION` (bumped whenever the
artifact *layout* changes).  Either bump orphans every stale artifact
by construction; no manual invalidation logic exists.

Attachment is the zero-copy half: :func:`attach_workload` maps an
artifact with ``np.load(..., mmap_mode="r")``, so the bytes live once
in the page cache no matter how many pool workers attach, and converts
them to engine-native record tuples exactly once per process (a small
LRU keeps the hottest workloads resident; see DESIGN.md "Sweep data
plane" for the lifetime rules).  Attached workloads are byte-identical
to in-process builds — the differential suite proves it — which is why
the data plane can swap builds for attaches without touching
``ENGINE_VERSION`` or any result-cache key.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Dict, Tuple

from repro.exec.cache import content_key
from repro.exec.store import ContentStore
from repro.workloads.io import (
    PACKED_FORMAT_VERSION,
    load_workload_packed,
    packed_writers,
)
from repro.workloads.trace import Workload

#: Attached workloads kept resident per process.  Eviction only drops
#: the Python-side record lists (the engine's compiled-core cache
#: follows via its weakref); the on-disk artifact is untouched.
ATTACH_CACHE_CAPACITY = 4

_ATTACHED: "OrderedDict[str, Workload]" = OrderedDict()


def attach_workload(path: str, mmap: bool = True) -> Workload:
    """Attach a packed trace artifact; memoised per absolute path.

    Repeat attaches in one process return the *same* ``Workload``
    object — that identity is what lets the engine's per-object
    compiled-core cache amortise its pre-pass across every unit of a
    lineup that lands on the same worker.
    """
    key = os.path.abspath(path)
    workload = _ATTACHED.get(key)
    if workload is not None:
        _ATTACHED.move_to_end(key)
        return workload
    workload = load_workload_packed(key, mmap=mmap)
    _ATTACHED[key] = workload
    while len(_ATTACHED) > ATTACH_CACHE_CAPACITY:
        _ATTACHED.popitem(last=False)
    return workload


def _clear_attachments() -> None:
    """Drop every process-local attachment (test isolation helper)."""
    _ATTACHED.clear()


def trace_key(signature) -> str:
    """SHA-256 content address of one build signature.

    ``signature`` is any canonicalisable value (the store uses the
    mapping built by :meth:`TraceStore._payload`); generator and format
    versions must already be folded in by the caller.
    """
    return content_key(signature)


class TraceStore(ContentStore):
    """On-disk, content-addressed trace artifacts.

    Each entry is a ``<key>.npy`` packed-records file plus its
    ``<key>.json`` metadata sidecar, in that commit order.
    """

    SUFFIXES = (".npy", ".json")
    COUNT_NAME = "artifacts"

    # ------------------------------------------------------------------
    # keying

    @staticmethod
    def _payload(
        spec, num_cores: int, accesses_per_core: int, seed: int,
        superpages: bool, smt: int,
    ) -> Dict[str, object]:
        from repro.workloads.generators import GENERATOR_VERSION

        return {
            "workload": spec,
            "num_cores": num_cores,
            "accesses_per_core": accesses_per_core,
            "seed": seed,
            "superpages": superpages,
            "smt": smt,
            "generator": GENERATOR_VERSION,
            "format": PACKED_FORMAT_VERSION,
        }

    def key_for(self, signature: Tuple) -> str:
        """Content address of a ``RunUnit.build_signature()`` tuple."""
        return trace_key(self._payload(*signature))

    @staticmethod
    def prebuilt_key(fingerprint: str) -> str:
        """Content address for an already-built workload's artifact.

        Prebuilt workloads (loaded traces, multiprogrammed mixes) are
        addressed by their record fingerprint — the generator version
        is irrelevant because no generation happens — plus the packed
        format version.
        """
        return trace_key(
            {"prebuilt": fingerprint, "format": PACKED_FORMAT_VERSION}
        )

    # ------------------------------------------------------------------
    # artifact lifecycle

    def ensure(self, signature: Tuple) -> Tuple[str, bool]:
        """Materialize one signature's artifact; returns (path, built).

        Builds the trace (via the deterministic generator path the
        serial runner uses) only when the artifact is absent — the
        build-once guarantee.  Concurrent builders race harmlessly
        under the store's commit rule.
        """
        key = self.key_for(signature)
        if key in self:
            return self.path(key), False
        from repro.workloads.generators import build_multithreaded

        spec, num_cores, accesses_per_core, seed, superpages, smt = signature
        workload = build_multithreaded(
            spec,
            num_cores,
            accesses_per_core=accesses_per_core,
            seed=seed,
            superpages=superpages,
            smt=smt,
        )
        return self._commit(key, *packed_writers(workload)), True

    def ensure_prebuilt(
        self, fingerprint: str, workload: Workload
    ) -> Tuple[str, bool]:
        """Materialize an already-built workload under its fingerprint."""
        key = self.prebuilt_key(fingerprint)
        if key in self:
            return self.path(key), False
        return self._commit(key, *packed_writers(workload)), True

    # ------------------------------------------------------------------
    # eviction

    def evict(self, max_bytes: int) -> int:
        """Shrink the store to ``max_bytes``, oldest artifacts first.

        Returns how many artifacts were removed.  Sizes count the
        sidecar; recency is mtime of the ``.npy`` — attaches never
        rewrite artifacts, so this is creation-time LRU, which is the
        right policy for content-addressed entries (older generator
        output is colder output).
        """
        entries = [
            (key, self._entry_bytes(key)) for _, key in self._oldest_first()
        ]
        total = sum(size for _, size in entries)
        removed = 0
        for key, size in entries:
            if total <= max_bytes:
                break
            self._remove(key)
            total -= size
            removed += 1
        return removed
