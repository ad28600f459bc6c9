"""Workload trace persistence: bring-your-own-traces support.

A trace-driven simulator is only as useful as the traces you can feed
it.  This module round-trips :class:`~repro.workloads.trace.Workload`
objects through two on-disk layouts:

* **portable ``.npz``** (:func:`save_workload` / :func:`load_workload`)
  — one integer array per (core, stream) holding
  ``(gap, asid, page_size, page_number)`` rows plus a JSON metadata
  header, compressed; the interchange format for exporting the
  calibrated suite or importing traces captured elsewhere;
* **packed ``.npy`` + JSON sidecar** (:func:`pack_workload` /
  :func:`packed_writers` / :func:`load_workload_packed`) — every stream
  concatenated into one ``(N, 4)`` ``int64`` array, uncompressed, so
  readers can attach with ``np.load(..., mmap_mode="r")`` and share the
  bytes through the page cache instead of each materialising a private
  copy.  This is the memmap-friendly layout the sweep data plane's
  :class:`~repro.exec.trace_store.TraceStore` stores its artifacts in.
  This module only encodes and decodes it; the store commits the files.

Both layouts round-trip exactly: records come back as tuples of Python
``int`` (never ``np.int64``), byte-identical to what the generators
produced, which is what lets fan-out workers attach artifacts in place
of in-process builds without perturbing a single simulated bit.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import BinaryIO, Callable, Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.vm.address import PAGE_SIZES
from repro.workloads.trace import Record, Workload

FORMAT_VERSION = 1

#: Version of the packed (memmap-friendly) artifact layout.  Part of
#: every TraceStore key: bumping it orphans stale artifacts.
PACKED_FORMAT_VERSION = 2


def save_workload(workload: Workload, path: Union[str, Path]) -> Path:
    """Write a workload to ``path`` (.npz).  Returns the path written."""
    path = Path(path)
    arrays = {}
    shape = []
    for core, streams in enumerate(workload.traces):
        shape.append(len(streams))
        for stream_idx, stream in enumerate(streams):
            arrays[f"c{core}_s{stream_idx}"] = np.asarray(
                stream, dtype=np.int64
            ).reshape(len(stream), 4)
    meta = {
        "version": FORMAT_VERSION,
        "name": workload.name,
        "seed": workload.seed,
        "superpages": workload.superpages,
        "streams_per_core": shape,
        "info": workload.info,
    }
    arrays["meta"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    np.savez_compressed(path, **arrays)
    return path


def load_workload(path: Union[str, Path]) -> Workload:
    """Read a workload written by :func:`save_workload`."""
    with np.load(Path(path)) as archive:
        meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
        if meta.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {meta.get('version')!r}"
            )
        traces: List[List[List[Record]]] = []
        for core, num_streams in enumerate(meta["streams_per_core"]):
            streams = []
            for stream_idx in range(num_streams):
                rows = archive[f"c{core}_s{stream_idx}"]
                streams.append([tuple(int(v) for v in row) for row in rows])
            traces.append(streams)
    return Workload(
        name=meta["name"],
        traces=traces,
        seed=meta["seed"],
        superpages=meta["superpages"],
        info=meta.get("info", {}),
    )


def pack_workload(
    workload: Workload,
) -> Tuple[np.ndarray, List[int], List[int], Dict[str, object]]:
    """Flatten a workload into one ``(N, 4)`` int64 array plus layout.

    Returns ``(data, offsets, streams_per_core, meta)``: ``data`` holds
    every stream's records concatenated in (core, stream) order,
    ``offsets`` has one entry per stream boundary (``len(streams) + 1``
    entries), and ``meta`` carries the identity fields needed to
    rebuild the :class:`Workload`.
    """
    arrays: List[np.ndarray] = []
    offsets = [0]
    streams_per_core: List[int] = []
    for streams in workload.traces:
        streams_per_core.append(len(streams))
        for stream in streams:
            arrays.append(
                np.asarray(stream, dtype=np.int64).reshape(len(stream), 4)
            )
            offsets.append(offsets[-1] + len(stream))
    data = (
        np.concatenate(arrays)
        if arrays
        else np.empty((0, 4), dtype=np.int64)
    )
    meta = {
        "version": PACKED_FORMAT_VERSION,
        "name": workload.name,
        "seed": workload.seed,
        "superpages": workload.superpages,
        "streams_per_core": streams_per_core,
        "offsets": offsets,
        "info": workload.info,
    }
    return data, offsets, streams_per_core, meta


def unpack_traces(
    data: np.ndarray, offsets: Sequence[int], streams_per_core: Sequence[int]
) -> List[List[List[Record]]]:
    """Rebuild ``traces[core][stream]`` record lists from packed form.

    The column-wise ``tolist()`` conversion yields tuples of Python
    ``int`` — exactly the record type the generators emit — and is the
    only copy the attach path makes: the packed array itself can be a
    read-only memmap shared by every attached process.
    """
    if data.size:
        columns = [data[:, i].tolist() for i in range(4)]
        records = list(zip(*columns))
    else:
        records = []
    traces: List[List[List[Record]]] = []
    stream_index = 0
    for num_streams in streams_per_core:
        streams = []
        for _ in range(num_streams):
            lo, hi = offsets[stream_index], offsets[stream_index + 1]
            streams.append(records[lo:hi])
            stream_index += 1
        traces.append(streams)
    return traces


def packed_writers(
    workload: Workload,
) -> Tuple[Callable[[BinaryIO], object], Callable[[BinaryIO], object]]:
    """The packed layout's two files as writers, in commit order.

    First the ``.npy`` records (uncompressed so they can be attached
    with ``mmap_mode="r"``), then the ``.json`` metadata sidecar, which
    :class:`~repro.exec.trace_store.TraceStore` commits last, as the
    entry's commit marker.
    """
    data, _, _, meta = pack_workload(workload)
    sidecar = json.dumps(meta, sort_keys=True).encode("utf-8")
    return (lambda fh: np.save(fh, data)), (lambda fh: fh.write(sidecar))


def load_workload_packed(path: Union[str, Path], mmap: bool = True) -> Workload:
    """Read a packed workload; ``mmap=True`` attaches the records
    read-only through the page cache (zero-copy across processes) while
    ``mmap=False`` loads them into private memory."""
    path = Path(path)
    with open(path.with_suffix(".json")) as fh:
        meta = json.load(fh)
    if meta.get("version") != PACKED_FORMAT_VERSION:
        raise ValueError(
            f"unsupported packed trace version {meta.get('version')!r}"
        )
    data = np.load(path, mmap_mode="r" if mmap else None)
    if data.ndim != 2 or data.shape[1] != 4 or data.dtype != np.int64:
        raise ValueError(
            f"packed trace {path} has shape {data.shape} / {data.dtype}; "
            "expected (N, 4) int64"
        )
    traces = unpack_traces(data, meta["offsets"], meta["streams_per_core"])
    return Workload(
        name=meta["name"],
        traces=traces,
        seed=meta["seed"],
        superpages=meta["superpages"],
        info=meta.get("info", {}),
    )


def workload_from_records(
    name: str,
    per_core_records: Sequence[Sequence[Record]],
    superpages: bool = False,
    seed: int = 0,
) -> Workload:
    """Build a Workload from raw user records (one list per core).

    Each record is ``(gap, asid, page_size, page_number)``; gaps must be
    >= 1, page sizes one of 4K/2M/1G, ASIDs and page numbers
    non-negative.  Validation is strict — a malformed external trace
    should fail here, not deep inside the engine.
    """
    traces: List[List[List[Record]]] = []
    for core, records in enumerate(per_core_records):
        if not records:
            raise ValueError(f"core {core} has an empty trace")
        validated = []
        for i, record in enumerate(records):
            if len(record) != 4:
                raise ValueError(
                    f"core {core} record {i}: need (gap, asid, size, page)"
                )
            gap, asid, size, page = record
            if gap < 1:
                raise ValueError(f"core {core} record {i}: gap must be >= 1")
            if size not in PAGE_SIZES:
                raise ValueError(
                    f"core {core} record {i}: bad page size {size}"
                )
            if asid < 0 or page < 0:
                raise ValueError(
                    f"core {core} record {i}: negative asid/page"
                )
            validated.append((int(gap), int(asid), int(size), int(page)))
        traces.append([validated])
    return Workload(
        name=name, traces=traces, seed=seed, superpages=superpages
    )
