"""Bulk shootdowns and the storm event loop vs the per-key oracle.

``System.apply_shootdown`` invalidates set-grouped keys in bulk, and
storm/shootdown runs take the inlined ``_drive_events`` loop.  Both are
proven byte-identical here against the per-key shootdown oracle
(``tests/sim/_shootdown_oracle.py``) under the event loop and under
the verbatim reference loop (``REPRO_REFERENCE_ENGINE=1``).

The corpus storms invalidate a fixed promotion region (page numbers
``(seq + 1) * burst + i``) that the registry workloads, allocated from
VPN ``2**20`` up, never touch.  So the corpus alone never removes a
resident key; the hand-built workloads below place their pages inside
the burst region so that every invalidation path removes live entries.
"""

import random
from collections import Counter

import pytest

from repro.exec.cache import canonical_json
from repro.sim import configs as cfg
from repro.sim.engine import ShootdownTraffic, StormConfig, simulate
from repro.sim.engine_vec import REFERENCE_ENV
from repro.sim.system import System
from repro.tlb.set_assoc import SetAssociativeTLB
from repro.vm.address import PAGE_2M, PAGE_4K
from repro.workloads.trace import Workload

from tests._corpus import differential_corpus
from tests.sim._shootdown_oracle import per_key_apply_shootdown

STORM_CORPUS = [
    (name, scenario)
    for name, scenario in differential_corpus()
    if scenario.storm is not None or scenario.shootdown is not None
]


def _set_reference(monkeypatch, reference):
    if reference:
        monkeypatch.setenv(REFERENCE_ENV, "1")
    else:
        monkeypatch.delenv(REFERENCE_ENV, raising=False)


@pytest.mark.parametrize("reference", [False, True], ids=["events", "reference"])
@pytest.mark.parametrize(
    "name,scenario", STORM_CORPUS, ids=[name for name, _ in STORM_CORPUS]
)
def test_corpus_matches_per_key_oracle(name, scenario, reference, monkeypatch):
    _set_reference(monkeypatch, reference)
    bulk = canonical_json(scenario.units()[0].execute())
    monkeypatch.setattr(System, "apply_shootdown", per_key_apply_shootdown)
    assert canonical_json(scenario.units()[0].execute()) == bulk


def _spy_invalidations(monkeypatch):
    """Per array kind: [calls, keys removed, live sets, ghost-holding sets]."""
    seen = {}
    real = SetAssociativeTLB.invalidate_groups

    def spy(array, groups):
        kind = array.name.split("[")[0]
        entry = seen.setdefault(kind, [0, 0, 0, 0])
        entry[0] += 1
        for index in groups:
            cache_set = array._sets[index]
            if cache_set is None:
                continue
            entry[2] += len(cache_set) > 0
            entry[3] += any(
                getattr(cache_set, name, None)
                for name in ("_b1", "_b2", "_a1out")
            )
        removed = real(array, groups)
        entry[1] += removed
        return removed

    monkeypatch.setattr(SetAssociativeTLB, "invalidate_groups", spy)
    return seen


def test_new_corpus_storms_reach_private_l2s(monkeypatch):
    """The private-L2 storm entries really run the bulk private path.

    With a flush the burst finds only empty sets; without one it walks
    live L1 sets and ARC sets that hold ghost history.
    """
    by_name = dict(STORM_CORPUS)
    seen = _spy_invalidations(monkeypatch)
    by_name["private-storm"].units()[0].execute()
    assert seen["l1-4k"][0] and seen["l2-private"][0]
    seen.clear()
    by_name["private-arc-storm-noflush"].units()[0].execute()
    assert seen["l1-4k"][2] > 0  # live L1 sets
    assert seen["l2-private"][2] > 0  # live ARC sets
    assert seen["l2-private"][3] > 0  # ARC sets holding ghosts


def _burst_region_workload(num_cores, accesses, seed, smt=1):
    """Traces whose 4KB pages overlap the first storm/shootdown bursts.

    Mixed page sizes and a second ASID keep the per-size L1 arrays and
    ASID tags honest; SMT streams exercise the pre-merged stream order.
    """
    rng = random.Random(seed)
    traces = []
    for _ in range(num_cores):
        streams = []
        for _ in range(smt):
            stream = []
            for _ in range(accesses):
                if rng.random() < 0.1:
                    size, page_number = PAGE_2M, rng.randrange(4)
                else:
                    size, page_number = PAGE_4K, rng.randrange(120, 320)
                asid = 2 if rng.random() < 0.1 else 1
                stream.append((rng.randrange(6), asid, size, page_number))
            streams.append(stream)
        traces.append(streams)
    return Workload("burst-region", traces, seed=seed, superpages=True)


_TARGETED = [
    # A flush empties every TLB just before its burst, so flushing
    # storms remove resident keys only through interleaved shootdowns.
    ("private-storm-shootdown", cfg.private(4),
     dict(storm=StormConfig(period=7000, burst_entries=128),
          shootdown=ShootdownTraffic(period=3000, entries_per_event=64))),
    ("private-arc-noflush", cfg.private(4, policy="arc"),
     dict(storm=StormConfig(period=5000, burst_entries=128, flush=False))),
    ("private-twoq-shootdown", cfg.private(4, policy="twoq"),
     dict(shootdown=ShootdownTraffic(period=4000, entries_per_event=64))),
    ("nocstar-noflush", cfg.nocstar(4),
     dict(storm=StormConfig(period=4000, burst_entries=128, flush=False))),
    ("monolithic-arc-shootdown", cfg.monolithic(4, policy="arc"),
     dict(shootdown=ShootdownTraffic(
         period=3000, entries_per_event=64, initiators=2))),
    ("distributed-storm-smt", cfg.distributed(4),
     dict(storm=StormConfig(period=5000, burst_entries=128, flush=False),
          shootdown=ShootdownTraffic(period=3000, entries_per_event=32))),
]


@pytest.mark.parametrize(
    "name,config,events", _TARGETED, ids=[name for name, _, _ in _TARGETED]
)
def test_resident_invalidations_match_oracle_and_reference(
    name, config, events, monkeypatch
):
    smt = 2 if name.endswith("-smt") else 1
    workload = _burst_region_workload(4, 600, seed=len(name), smt=smt)
    seen = _spy_invalidations(monkeypatch)
    outputs = []
    for reference in (False, True):
        _set_reference(monkeypatch, reference)
        outputs.append(canonical_json(
            simulate(config, workload, metrics=True, **events)
        ))
    # Not vacuous: the bursts removed live L1 and L2 entries.
    removed = Counter({kind: entry[1] for kind, entry in seen.items()})
    assert removed["l1-4k"] > 0
    assert sum(removed.values()) > removed["l1-4k"]
    monkeypatch.setattr(System, "apply_shootdown", per_key_apply_shootdown)
    for reference in (False, True):
        _set_reference(monkeypatch, reference)
        outputs.append(canonical_json(
            simulate(config, workload, metrics=True, **events)
        ))
    assert len(set(outputs)) == 1
