"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench

The output check must never pass silently: a wrong or missing pin, a
raising unit or a replay that differs from its cold run each count as a
failed unit.  The tracing wrappers must see every call into the layers
they time, which the simulated counters of the same run confirm
independently.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import suite  # noqa: E402


def _report(units=("a", "b")) -> dict:
    return {
        "engine_version": "1",
        "unit_order": list(units),
        "digests": {u: f"sha-{u}" for u in units},
        "errors": {},
        "replay_ok": {u: True for u in units},
    }


def _pins(report, workload="paper64", seed=3) -> dict:
    return {report["engine_version"]: {workload: {str(seed): dict(report["digests"])}}}


def test_matching_pins_pass():
    report = _report()
    assert run.pin_failures(report, _pins(report), "paper64", 3) == {}


@pytest.mark.parametrize("spoil", ["digest", "missing", "engine", "seed",
                                   "raised", "replay"])
def test_every_kind_of_mismatch_fails_the_unit(spoil):
    report = _report()
    pins = _pins(report)
    seed = 3
    if spoil == "digest":
        pins["1"]["paper64"]["3"]["a"] = "sha-wrong"
    elif spoil == "missing":
        del pins["1"]["paper64"]["3"]["a"]
    elif spoil == "engine":
        report["engine_version"] = "2"
    elif spoil == "seed":
        seed = 4
    elif spoil == "raised":
        report["errors"]["a"] = "ValueError: boom"
        del report["digests"]["a"]
    else:
        report["replay_ok"]["a"] = False
    failures = run.pin_failures(report, pins, "paper64", seed)
    assert "a" in failures
    if spoil in ("digest", "missing", "raised", "replay"):
        assert set(failures) == {"a"}


def test_seed_mapping_and_held_back_seed():
    assert [suite.input_seed(s) for s in suite.SEEDS] == list(suite.SEEDS)
    assert suite.input_seed(0) == suite.SEEDS[-1]
    assert suite.input_seed(len(suite.SEEDS) + 1) == suite.SEEDS[0]
    assert suite.HELD_BACK_SEED not in suite.SEEDS
    assert suite.input_seed(suite.DEFAULT_SEED) == suite.DEFAULT_SEED


def test_shipped_pins_cover_every_seed_and_unit():
    pins = run.load_pins()
    from repro.sim.engine import ENGINE_VERSION

    for name, workload in suite.WORKLOADS.items():
        per_seed = pins[ENGINE_VERSION][name]
        for seed in suite.SEEDS + (suite.HELD_BACK_SEED,):
            assert set(per_seed[str(seed)]) == set(workload.unit_names)


def test_sweep_speedup_is_a_geometric_mean():
    cycles = {f"{w}/{c}": 100 for w in ("graph500", "canneal", "gups")
              for c in ("private", "nocstar")}
    cycles["graph500/nocstar"] = 50
    cycles["canneal/nocstar"] = 200
    assert run.sim_speedup("sweep", cycles) == pytest.approx(1.0)
    assert run.sim_speedup("paper64", {"private": 90, "nocstar": 60}) == 1.5
    assert run.sim_speedup("paper64", {"private": 90}) == 0.0


def test_wrong_pin_makes_a_real_run_fail(tmp_path, monkeypatch, capsys):
    """End to end: a corrupted pin file turns a clean run into failures."""
    pins = run.load_pins()
    from repro.sim.engine import ENGINE_VERSION

    bad = copy.deepcopy(pins)
    seed_pins = bad[ENGINE_VERSION]["sweep"][str(suite.DEFAULT_SEED)]
    seed_pins["gups/nocstar"] = "0" * 64
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(bad))
    monkeypatch.setattr(run, "PINS", str(path))
    monkeypatch.setattr(run, "MIN_PASSES", {0: 1, 1: 2})

    assert run.main(["--workload", "sweep", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] == len(suite.WORKLOADS["sweep"].unit_names)
    assert result["failed"] == 1
    assert set(result["metrics"]) == set(suite.END_TO_END)


_TRACED_PROBE = r"""
import json, os, sys
sys.path.insert(0, sys.argv[1])
from tracing import LayerTracer
import one_pass
tracer = LayerTracer(0)
tracer.install(engine=True)
from repro.sim import configs as cfg
from repro.sim.scenario import RunUnit
from repro.workloads.registry import get_workload
out = {}
for name in ("nocstar", "distributed", "monolithic-smart", "private"):
    tracer.unit = name
    unit = RunUnit(cfg.build_config(name, 16), get_workload("graph500"), 600, 2)
    result = unit.execute()
    sim = one_pass.simulated_counters([result])
    out[name] = {
        "labels": tracer.labels[name],
        "l2_txn": tracer.total_calls("system.l2_txn", name),
        "send": tracer.total_calls("noc.send", name),
        "walk": tracer.total_calls("walker.walk", name),
        "access": tracer.total_calls("cache.access", name),
        "sim": sim,
    }
print(json.dumps(out))
"""


@pytest.mark.parametrize("vectorized", ["0", "1"])
def test_wrappers_see_every_layer_call(vectorized):
    """Call counts from the wrappers equal the simulated counters.

    With the vectorized loop forced on, ``distributed`` takes the lean
    inlined transaction, whose closure and captured ``walk_cycles``
    must be wrapped too.
    """
    env = dict(os.environ, REPRO_VECTORIZED_ENGINE=vectorized)
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_PROBE, HERE],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    loop = "vectorized" if vectorized == "1" else "batched"
    for name, row in out.items():
        sim = row["sim"]
        lean = row["labels"].get("lean", False)
        assert row["labels"]["loop"] == loop
        assert row["l2_txn"] == sim["tlb.l2_accesses"]
        assert row["walk"] == sim["walker.walks"]
        assert row["access"] == sim["cache.l1_accesses"]
        # The lean transaction reads the NoC from a table, never send().
        assert row["send"] == (0 if lean else sim["noc.messages"])
    assert out["distributed"]["labels"].get("lean", False) is (vectorized == "1")
    assert not out["nocstar"]["labels"].get("lean", False)
