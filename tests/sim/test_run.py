"""Run harness: comparisons, suites, summaries."""

import pytest

from repro.exec.runner import Runner
from repro.sim import configs as cfg
from repro.sim.run import run_suite, summarize_speedups
from repro.sim.scenario import Scenario
from repro.workloads.generators import build_multithreaded
from repro.workloads.registry import get_workload


@pytest.fixture(scope="module")
def comparison():
    wl = build_multithreaded(
        get_workload("olio"), 4, accesses_per_core=2000, seed=3
    )
    return Runner().run_prebuilt(
        wl, [cfg.private(4), cfg.nocstar(4), cfg.ideal(4)]
    )


def test_speedups_exclude_baseline(comparison):
    speedups = comparison.speedups()
    assert set(speedups) == {"nocstar", "ideal"}


def test_baseline_required():
    wl = build_multithreaded(
        get_workload("olio"), 4, accesses_per_core=200, seed=3
    )
    with pytest.raises(ValueError):
        Runner().run_prebuilt(wl, [cfg.nocstar(4)])


def test_misses_eliminated_positive(comparison):
    assert comparison.misses_eliminated_pct("nocstar") > 0


def test_run_suite_subset():
    comparisons = run_suite(
        Scenario(
            configurations=[cfg.private(4), cfg.nocstar(4)],
            workloads=["olio", "gups"],
            accesses_per_core=1000,
        )
    )
    assert set(comparisons) == {"olio", "gups"}
    for c in comparisons.values():
        assert c.speedup("nocstar") > 0


def test_summarize_speedups():
    comparisons = run_suite(
        Scenario(
            configurations=[cfg.private(4), cfg.nocstar(4)],
            workloads=["olio", "gups", "nutch"],
            accesses_per_core=1000,
        )
    )
    summary = summarize_speedups(comparisons, "nocstar")
    assert summary.minimum <= summary.average <= summary.maximum
