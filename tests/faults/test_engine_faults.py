"""End-to-end fault injection through the engine.

The ISSUE's acceptance criteria live here: ``faults=None`` (and an
empty plan) follow the exact seed code path bit-for-bit, degradation is
monotone in the fault rate with the rate-0 point identical to the
fault-free run, and a partitioned slice degrades to page walks instead
of hanging (pinned with the watchdog).
"""

import pytest

from repro.faults.models import (
    ArbiterDrop,
    FaultPlan,
    FaultSpec,
    LinkFailure,
    SliceFailure,
    WalkerSlowdown,
)
from repro.sim import configs as cfg
from repro.sim.engine import WatchdogExpired, simulate
from repro.sim.scenario import Scenario
from repro.workloads.generators import build_multithreaded
from repro.workloads.registry import get_workload

WATCHDOG = 50_000_000  # generous liveness backstop, never a timing bound


def _workload(cores=8, accesses=600, seed=9, name="gups"):
    return build_multithreaded(
        get_workload(name), cores, accesses_per_core=accesses, seed=seed
    )


def test_empty_faults_are_bit_identical_to_the_seed_path():
    config = cfg.nocstar(8)
    workload = _workload()
    plain = simulate(config, workload)
    empty_spec = simulate(config, workload, faults=FaultSpec())
    empty_plan = simulate(config, workload, faults=FaultPlan(num_tiles=8))
    assert plain.faults is None
    assert empty_spec.as_dict() == plain.as_dict()
    assert empty_plan.as_dict() == plain.as_dict()


def test_degradation_is_monotone_and_anchored_at_the_fault_free_run():
    config = cfg.nocstar(8)
    workload = _workload(accesses=800)
    cycles = []
    for rate in (0.0, 0.05, 0.15):
        spec = FaultSpec(
            links=LinkFailure(rate=rate),
            arbiter=ArbiterDrop(probability=rate * 0.5),
        )
        result = simulate(
            config, workload, faults=spec, watchdog_cycles=WATCHDOG
        )
        cycles.append(result.cycles)
        if rate == 0.0:
            assert result.as_dict() == simulate(config, workload).as_dict()
        else:
            assert result.faults is not None
    assert cycles == sorted(cycles), f"not monotone: {cycles}"
    assert cycles[-1] > cycles[0]  # faults actually hurt


def test_partitioned_tile_degrades_to_walks_instead_of_hanging():
    # In the 8-core (2x4) mesh, (4,0) and (4,5) are tile 4's only
    # out-links: killing both partitions every pair (4, *).  Lookups
    # homed remotely from core 4 must degrade to local page walks and
    # the run must still terminate (the watchdog pins liveness).
    config = cfg.nocstar(8)
    plan = FaultPlan(num_tiles=8, failed_links=((4, 0), (4, 5)))
    result = simulate(
        config, _workload(), faults=plan, watchdog_cycles=WATCHDOG
    )
    assert result.faults["degraded_walks"] > 0
    assert result.cycles > 0
    assert result.faults["failed_links"] == 2


def test_dead_slice_degrades_to_walks_on_the_distributed_config():
    config = cfg.distributed(8)
    plan = FaultPlan(num_tiles=8, failed_slices=(2,))
    plain = simulate(config, _workload())
    result = simulate(
        config, _workload(), faults=plan, watchdog_cycles=WATCHDOG
    )
    assert result.faults["degraded_walks"] > 0
    assert result.faults["failed_slices"] == 1
    assert result.cycles >= plain.cycles  # walks are never faster


def test_walker_slowdown_stretches_walks():
    config = cfg.nocstar(8)
    plain = simulate(config, _workload())
    slow = simulate(
        config,
        _workload(),
        faults=FaultSpec(walker=WalkerSlowdown(factor=3.0)),
        watchdog_cycles=WATCHDOG,
    )
    assert slow.faults["walk_slowdown_cycles"] > 0
    assert slow.cycles > plain.cycles


def test_watchdog_trips_on_long_runs():
    config = cfg.nocstar(8)
    workload = _workload(accesses=2000)
    with pytest.raises(WatchdogExpired):
        simulate(config, workload, watchdog_cycles=10)


def test_scenario_faults_flow_through_the_watchdog_dispatch():
    spec = FaultSpec(links=LinkFailure(rate=0.1))
    scenario = Scenario(
        configurations=cfg.nocstar(8),
        workloads="gups",
        accesses_per_core=400,
        seed=9,
        baseline_name="nocstar",
        faults=spec,
    )
    (unit,) = scenario.units()
    via_watchdog = simulate(
        unit.config,
        unit.build_workload(),
        quantum=unit.quantum,
        faults=unit.fault_plan(),
        watchdog_cycles=WATCHDOG,
    )
    via_unit = unit.execute()
    assert via_watchdog.as_dict() == via_unit.as_dict()
    assert via_watchdog.faults is not None
