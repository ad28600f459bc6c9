"""Precomputed fault-free route tables for the TLB interconnects.

Fault-free, contention-free path properties are pure functions of
``(src, dst, topology)`` — the structure analytical NoC models exploit
(Mandal et al.'s priority-class models, and bufferless GPU-scale
simulators alike).  The discrete-event models in this package
recomputed them on every send: ``xy_path`` walks the grid per message,
``hops`` re-derives coordinates, and NOCSTAR's segment count is a
division that never changes for a pair.  A :class:`RouteCache`
precomputes all of it once per topology.

Storage is sized for mega meshes (1024 tiles = 1M pairs per table):

* ``hops_array`` — the N x N Manhattan-distance table as a compact
  ``int16`` ndarray (2 MiB at 1024 tiles, versus ~36 MiB of nested
  Python int lists), built by broadcasting, not per-pair loops;
* ``mesh_latency_array`` / ``nocstar_cycles_array`` — derived ``int32``
  tables, memoised lazily per parameterisation so forked pool workers
  only ever materialise the cycles-per-hop / HPCmax points they run;
* ``hops`` / ``mesh_latency()`` / ``nocstar_cycles()`` — row-lazy
  Python-int views over those arrays (see :class:`_LazyRows`) for the
  per-event models, which index ``table[src][dst]`` on scalar sends.
  Rows convert to plain lists on first touch, so scalar consumers keep
  C-speed list indexing and native ``int`` arithmetic (no ``np.int64``
  leaking into cycle counts) without ever paying for rows they don't
  visit;
* XY link paths, memoised per (src, dst) on first use — eager path
  tables would cost O(N^2 * diameter) tuples up front, which the large
  scalability sweeps never fully touch.

The cache holds **fault-free** routes only, and is the single source of
them: :class:`~repro.sim.system.System` always shares
:func:`shared_route_cache`, and every interconnect built without an
explicit ``routes`` argument defaults to it.  A network built with dead
links routes through its :class:`~repro.faults.routing.FaultAwareRouter`
instead, and contended sends still run the live reservation model — the
cache supplies the path and the uncontended duration, never the
arbitration outcome.  :class:`~repro.noc.topology.MeshTopology`'s
``hops``/``xy_path`` stay the independent truth the tables are tested
against.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from repro.noc.topology import Link, MeshTopology

#: Environment switch selecting the engine's record-at-a-time reference
#: drive loop (see :mod:`repro.sim.engine`); it does not affect routing.
#: Read at use time (not import time) so tests can flip it per run;
#: empty and "0" mean "off".
REFERENCE_ENV = "REPRO_REFERENCE_ENGINE"


def reference_mode() -> bool:
    """True when the reference drive loop is forced."""
    return os.environ.get(REFERENCE_ENV, "") not in ("", "0")


class _LazyRows:
    """Row-lazy ``table[src][dst]`` view over a 2-D ndarray.

    ``view[src]`` materialises (and caches) row ``src`` as a plain
    Python list of native ints, so hot per-event loops that bind a row
    once and index it per send keep exact list semantics while the
    backing store stays a compact ndarray shared by every consumer.
    """

    __slots__ = ("_array", "_rows")

    def __init__(self, array: "np.ndarray") -> None:
        self._array = array
        self._rows: Dict[int, List[int]] = {}

    def __getitem__(self, src: int) -> List[int]:
        row = self._rows.get(src)
        if row is None:
            row = self._array[src].tolist()
            self._rows[src] = row
        return row

    def __len__(self) -> int:
        return len(self._array)


class RouteCache:
    """Fault-free per-(src, dst) route/latency tables for one topology."""

    def __init__(self, topology: MeshTopology) -> None:
        self.topology = topology
        n = topology.num_tiles
        self.num_tiles = n
        cols = topology.cols
        # Manhattan distances by broadcasting tile coordinates; int16
        # bounds any mesh whose diameter fits 32767 hops (a 1024-tile
        # 32x32 mesh has diameter 62).
        tiles = np.arange(n, dtype=np.int16)
        xs = tiles % cols
        ys = tiles // cols
        #: hops_array — eager N x N Manhattan table, compact dtype.
        self.hops_array: np.ndarray = (
            np.abs(xs[:, None] - xs[None, :]) + np.abs(ys[:, None] - ys[None, :])
        ).astype(np.int16)
        #: hops[src][dst] — Python-int row view for per-event models.
        self.hops = _LazyRows(self.hops_array)
        self._paths: Dict[Tuple[int, int], Tuple[Link, ...]] = {}
        self._mesh_latency: Dict[int, _LazyRows] = {}
        self._mesh_latency_arrays: Dict[int, np.ndarray] = {}
        self._nocstar_cycles: Dict[int, _LazyRows] = {}
        self._nocstar_cycles_arrays: Dict[int, np.ndarray] = {}

    def path(self, src: int, dst: int) -> Tuple[Link, ...]:
        """The XY link path ``src -> dst`` (memoised)."""
        key = (src, dst)
        cached = self._paths.get(key)
        if cached is None:
            cached = tuple(self.topology.xy_path(src, dst))
            self._paths[key] = cached
        return cached

    def mesh_latency_array(self, cycles_per_hop: int) -> np.ndarray:
        """``hops * cycles_per_hop`` as an int32 ndarray (lazy, memoised)."""
        table = self._mesh_latency_arrays.get(cycles_per_hop)
        if table is None:
            table = self.hops_array.astype(np.int32) * cycles_per_hop
            self._mesh_latency_arrays[cycles_per_hop] = table
        return table

    def mesh_latency(self, cycles_per_hop: int) -> _LazyRows:
        """``hops * cycles_per_hop`` table (the contention-free mesh)."""
        table = self._mesh_latency.get(cycles_per_hop)
        if table is None:
            table = _LazyRows(self.mesh_latency_array(cycles_per_hop))
            self._mesh_latency[cycles_per_hop] = table
        return table

    def nocstar_cycles_array(self, hpc_max: int) -> np.ndarray:
        """``ceil(hops / HPCmax)`` as an int32 ndarray (lazy, memoised)."""
        table = self._nocstar_cycles_arrays.get(hpc_max)
        if table is None:
            table = -(-self.hops_array.astype(np.int32) // hpc_max)
            self._nocstar_cycles_arrays[hpc_max] = table
        return table

    def nocstar_cycles(self, hpc_max: int) -> _LazyRows:
        """Uncontended data-traversal cycles: ``ceil(hops / HPCmax)``."""
        table = self._nocstar_cycles.get(hpc_max)
        if table is None:
            table = _LazyRows(self.nocstar_cycles_array(hpc_max))
            self._nocstar_cycles[hpc_max] = table
        return table


@lru_cache(maxsize=16)
def shared_route_cache(num_tiles: int) -> RouteCache:
    """Process-wide :class:`RouteCache` per tile count.

    The cache is immutable-by-convention (path and row memoisation only
    ever add identical entries), so every System of the same size —
    across runs, lineups, and pool workers — shares one instance and
    one set of precomputed tables.
    """
    return RouteCache(MeshTopology(num_tiles))
