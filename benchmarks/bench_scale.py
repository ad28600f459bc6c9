"""Mega-mesh scale bench: 1024-core vectorized vs 64-core batched.

Standalone script (not a pytest bench): times the canonical 64-core
batched scenario (``bench_engine.py``'s anchor: monolithic-smart,
graph500, 4000 accesses/core) against a 1024-core graph500 run under
the vectorized mega-mesh engine, prints both, and writes the
machine-readable ``BENCH_scale.json`` artefact under
``benchmarks/results/`` (override with argv[1]).

    PYTHONPATH=src python benchmarks/bench_scale.py [out.json]

The script is the ROADMAP-item-1 perf guard: the 1024-core run must
complete in no more than the time the 64-core batched run takes
(``MAX_RATIO``), best-of-``REPEATS`` with samples interleaved.  The
mega operating point is work-normalised, not access-normalised: short
per-core streams at 1024 tiles are cold-miss dominated, so 25
accesses/core already drives ~20k page walks — 2.8x the walk count of
the 64-core anchor — through every slice of the mesh.  Because speed
means nothing if the bits drift, the script also asserts the
vectorized engine reproduces the batched engine's bytes on the mega
scenario.  ``make bench-scale-smoke`` runs it as part of ``make
verify``.
"""

from __future__ import annotations

import json
import os
import sys
import time

from repro.analysis.tables import render_table
from repro.exec.cache import canonical_json
from repro.sim import configs as cfg
from repro.sim.engine_vec import REFERENCE_ENV, VECTORIZED_ENV
from repro.sim.scenario import RunUnit
from repro.workloads.registry import get_workload

WORKLOAD = "graph500"
SEED = 3
REPEATS = 3

#: The 64-core anchor — identical to bench_engine.py's batched scenario.
ANCHOR_CONFIG = "monolithic-smart"
ANCHOR_CORES = 64
ANCHOR_ACCESSES = 4_000

#: The mega-mesh operating point (see module docstring for why the
#: per-core depth is short: the point is work- not access-normalised).
MEGA_CONFIG = "distributed-1024"
MEGA_CORES = 1024
MEGA_ACCESSES = 25

#: The perf guard: mega wall-clock must not exceed anchor wall-clock
#: (measured headroom is ~1.4x).
MAX_RATIO = 1.0

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def _anchor_unit() -> RunUnit:
    return RunUnit(
        config=cfg.build_config(ANCHOR_CONFIG, ANCHOR_CORES),
        workload=get_workload(WORKLOAD),
        accesses_per_core=ANCHOR_ACCESSES,
        seed=SEED,
    )


def _mega_unit() -> RunUnit:
    return RunUnit(
        config=cfg.build_config(MEGA_CONFIG, MEGA_CORES),
        workload=get_workload(WORKLOAD),
        accesses_per_core=MEGA_ACCESSES,
        seed=SEED,
    )


def _run_once(unit: RunUnit, vectorized_env: str | None):
    """One timed execute with REPRO_VECTORIZED_ENGINE pinned."""
    if vectorized_env is None:
        os.environ.pop(VECTORIZED_ENV, None)
    else:
        os.environ[VECTORIZED_ENV] = vectorized_env
    try:
        start = time.perf_counter()
        result = unit.execute()
        return time.perf_counter() - start, result
    finally:
        os.environ.pop(VECTORIZED_ENV, None)


def main(argv) -> int:
    os.environ.pop(REFERENCE_ENV, None)
    anchor = _anchor_unit()
    mega = _mega_unit()
    anchor.build_workload()  # lru-cached: exclude builds from timing
    mega.build_workload()

    # Identity first: the mega scenario's bytes must not depend on
    # which engine produced them.
    _, mega_batched = _run_once(mega, vectorized_env="0")
    _, mega_vectorized = _run_once(mega, vectorized_env="1")
    assert canonical_json(mega_batched) == canonical_json(mega_vectorized), (
        "vectorized and batched engines disagree on the mega scenario"
    )

    _run_once(anchor, vectorized_env=None)  # warm compile/route caches
    # Interleave the samples so CPU frequency drift hits both scenarios
    # alike; compare best against best.
    anchor_samples = []
    mega_samples = []
    for _ in range(REPEATS):
        seconds, anchor_result = _run_once(anchor, vectorized_env=None)
        anchor_samples.append(seconds)
        seconds, mega_result = _run_once(mega, vectorized_env="1")
        mega_samples.append(seconds)
    anchor_best = min(anchor_samples)
    mega_best = min(mega_samples)
    ratio = mega_best / anchor_best

    anchor_events = (
        anchor_result.stats.l2_hits
        + anchor_result.stats.l2_misses
        + anchor_result.stats.walks
    )
    mega_events = (
        mega_result.stats.l2_hits
        + mega_result.stats.l2_misses
        + mega_result.stats.walks
    )

    print(
        render_table(
            ["scenario", "best (s)", "events", "samples (s)"],
            [
                [f"{ANCHOR_CONFIG} x{ANCHOR_ACCESSES} (batched)",
                 anchor_best, anchor_events,
                 " ".join(f"{s:.3f}" for s in anchor_samples)],
                [f"{MEGA_CONFIG} x{MEGA_ACCESSES} (vectorized)",
                 mega_best, mega_events,
                 " ".join(f"{s:.3f}" for s in mega_samples)],
                ["ratio (mega/anchor)", ratio, "", ""],
            ],
            precision=3,
        )
    )

    assert ratio <= MAX_RATIO, (
        f"1024-core vectorized run took {ratio:.2f}x the 64-core batched "
        f"anchor (perf guard requires <= {MAX_RATIO}x)"
    )

    out = argv[1] if len(argv) > 1 else os.path.join(
        RESULTS_DIR, "BENCH_scale.json"
    )
    payload = {
        "workload": WORKLOAD,
        "seed": SEED,
        "anchor_config": ANCHOR_CONFIG,
        "anchor_cores": ANCHOR_CORES,
        "anchor_accesses_per_core": ANCHOR_ACCESSES,
        "anchor_seconds": anchor_best,
        "anchor_samples": anchor_samples,
        "anchor_events": anchor_events,
        "anchor_cycles": anchor_result.cycles,
        "mega_config": MEGA_CONFIG,
        "mega_cores": MEGA_CORES,
        "mega_accesses_per_core": MEGA_ACCESSES,
        "mega_seconds": mega_best,
        "mega_samples": mega_samples,
        "mega_events": mega_events,
        "mega_cycles": mega_result.cycles,
        "scale_ratio": ratio,
        "max_ratio": MAX_RATIO,
    }
    directory = os.path.dirname(out)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
