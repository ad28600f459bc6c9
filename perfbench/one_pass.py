"""One timed pass of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per pass, so every pass is cold the
way a ``repro run`` invocation is: no compile caches, RouteCache memos
or workload builds carry over from an earlier pass.

    PYTHONPATH=src python3 perfbench/one_pass.py --workload paper64 \\
        --seed 3 --trace 0 --tmp .perfbench/tmp/x

The last line of standard output is one JSON object: the pass's
timings, peak RSS, the SHA-256 of every unit's canonical RunResult and,
with ``--trace 1``, the per-layer split.  A unit that raises is
reported with its error and the pass carries on; only a failure to run
at all (for example, no ``src/repro`` to import) exits non-zero.
"""

import time

_T0 = time.perf_counter()  # setup_s counts every import below

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import suite  # noqa: E402
from speed import SpeedSampler, normalised  # noqa: E402


def _digest(result) -> str:
    from repro.exec.cache import canonical_json

    return hashlib.sha256(canonical_json(result).encode("utf-8")).hexdigest()


def _peak_rss_mb() -> float:
    """Peak RSS of this process and of every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def simulated_counters(results) -> dict:
    """Simulated per-layer counters summed over a pass's RunResults.

    Every ratio travels with its base count.  Walk latency is rebuilt
    from the level histogram: each walk reference costs 1 cycle at the
    PWC or the cache hierarchy's fixed latency at the level that served
    it, and each walk makes exactly one leaf reference, which never
    probes the PWC.
    """
    from repro.mem.cache import CacheLatencies
    from repro.vm.walker import PageTableWalker

    lat = CacheLatencies()
    messages = nocstar_messages = 0
    retries = uncontended = 0.0
    walks = pwc = l1 = l2 = llc = dram = 0
    l2_hits = l2_misses = flushes = 0
    for result in results:
        network = result.network
        messages += network.get("messages", 0)
        if "mean_setup_retries" in network:
            sent = network["messages"]
            nocstar_messages += sent
            retries += network["mean_setup_retries"] * sent
            uncontended += network["no_contention_fraction"] * sent
        levels = result.walk_levels
        walks += result.stats.walks + result.stats.prefetches
        pwc += levels.get("pwc", 0)
        l1 += levels.get("l1", 0)
        l2 += levels.get("l2", 0)
        llc += levels.get("llc", 0)
        dram += levels.get("dram", 0)
        l2_hits += result.stats.l2_hits
        l2_misses += result.stats.l2_misses
        flushes += result.stats.flushes
    walk_cycles = (
        pwc * PageTableWalker.PWC_HIT_CYCLES + l1 * lat.l1 + l2 * lat.l2
        + llc * lat.llc + dram * lat.dram
    )
    references = pwc + l1 + l2 + llc + dram
    pwc_lookups = references - walks if references else 0
    cache_l1 = l1 + l2 + llc + dram
    cache_l2 = l2 + llc + dram
    cache_llc = llc + dram
    return {
        "noc.messages": messages,
        "noc.nocstar_messages": nocstar_messages,
        "noc.setup_retries_per_msg": _ratio(retries, nocstar_messages),
        "noc.no_contention_fraction": _ratio(uncontended, nocstar_messages),
        "walker.walks": walks,
        "walker.mean_walk_cycles": _ratio(walk_cycles, walks),
        "walker.pwc_lookups": pwc_lookups,
        "walker.pwc_hit_ratio": _ratio(pwc, pwc_lookups),
        "cache.l1_accesses": cache_l1,
        "cache.l1_hit_ratio": _ratio(l1, cache_l1),
        "cache.l2_accesses": cache_l2,
        "cache.l2_hit_ratio": _ratio(l2, cache_l2),
        "cache.llc_accesses": cache_llc,
        "cache.llc_hit_ratio": _ratio(llc, cache_llc),
        "tlb.l2_accesses": l2_hits + l2_misses,
        "tlb.l2_hit_ratio": _ratio(l2_hits, l2_hits + l2_misses),
        "tlb.flushes": flushes,
    }


def _host_layers(tracer) -> dict:
    hits = tracer.total_count("result_cache.hits")
    gets = tracer.total_calls("result_cache.get")
    loops = [labels.get("loop") for labels in tracer.labels.values()]
    return {
        "workloads.build_s": tracer.total_self_s("workloads.build"),
        "workloads.records": tracer.total_count("workloads.records"),
        "system.build_s": tracer.total_self_s("system.build"),
        "engine.compile_s": tracer.total_self_s("engine.compile"),
        "engine.compile_cores": tracer.total_count("engine.compile_cores"),
        "engine.drive_self_s": tracer.total_self_s("engine.drive"),
        "engine.units_reference": loops.count("reference"),
        "engine.units_batched": loops.count("batched"),
        "engine.units_vectorized": loops.count("vectorized"),
        "engine.units_lean": sum(
            1 for labels in tracer.labels.values() if labels.get("lean")
        ),
        "system.l2_txn_calls": tracer.total_calls("system.l2_txn"),
        "system.l2_txn_self_s": tracer.total_self_s("system.l2_txn"),
        "noc.send_calls": tracer.total_calls("noc.send"),
        "noc.send_self_s": tracer.total_self_s("noc.send"),
        "walker.walk_calls": tracer.total_calls("walker.walk"),
        "walker.walk_self_s": tracer.total_self_s("walker.walk"),
        "cache.access_calls": tracer.total_calls("cache.access"),
        "cache.access_self_s": tracer.total_self_s("cache.access"),
        "system.finalize_s": tracer.total_self_s("system.finalize"),
        "tlb.invalidations": tracer.total_count("tlb.invalidations"),
        "trace_store.ensure_s": tracer.total_self_s("trace_store.ensure"),
        "trace_store.builds": tracer.total_count("trace_store.builds"),
        "runner.dispatch_s": tracer.total_self_s("runner.dispatch"),
        "result_cache.put_s": tracer.total_self_s("result_cache.put"),
        "result_cache.get_s": tracer.total_self_s("result_cache.get"),
        "result_cache.gets": gets,
        "result_cache.hit_ratio": _ratio(hits, gets),
    }


def _unit_rows(tracer, names) -> list:
    """Per-unit loop label and layer self times (the human table)."""
    rows = []
    for name in names:
        labels = tracer.labels.get(name, {})
        row = {
            "unit": name,
            "loop": labels.get("loop", "-"),
            "lean": bool(labels.get("lean", False)),
        }
        for layer in ("engine.drive", "engine.compile", "system.l2_txn",
                      "noc.send", "walker.walk", "cache.access",
                      "system.finalize"):
            row[layer] = tracer.total_self_s(layer, unit=name)
        rows.append(row)
    return rows


def _port_conflict_cycles(systems) -> int:
    total = 0
    for system in systems:
        shared = system.shared_l2
        if shared is not None:
            total += sum(
                ports.conflict_cycles
                for ports in shared.read_ports + shared.write_ports
            )
    return total


class Interval:
    """Raw wall seconds of one timed interval, and the sampler's share."""

    def __init__(self, sampler: SpeedSampler, phase: str) -> None:
        self.sampler = sampler
        self.phase = phase

    def __enter__(self) -> "Interval":
        self._outer = self.sampler.phase
        self.sampler.phase = self.phase
        self._handler = self.sampler.handler_s
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.raw_s = time.perf_counter() - self._start
        self.sampler_s = self.sampler.handler_s - self._handler
        self.sampler.phase = self._outer
        return False


def _measure(sampler, setup, cold, replay, unit_order) -> dict:
    """Time one pass: ``setup()``, one ``cold()`` run, then replays.

    ``cold()`` returns ``(results, errors)`` keyed by unit name;
    ``replay()`` returns ``(misses, results)``.  Every replay must hit
    the cache for every unit and reproduce the cold run's bytes.
    """
    setup()
    setup_raw = time.perf_counter() - _T0
    setup_s = normalised(setup_raw, sampler.handler_s, sampler.factor("setup"))

    with Interval(sampler, "wall") as wall:
        results, errors = cold()
    peak_rss_mb = _peak_rss_mb()
    wall_factor = sampler.factor("wall")

    digests = {n: _digest(r) for n, r in results.items()}
    replay_ok = {n: True for n in results}
    intervals = []
    outputs = []
    sampler.phase = "replay"
    sampler.calibrate()
    for _ in range(suite.REPLAYS if results else 0):
        with Interval(sampler, "replay") as interval:
            outputs.append(replay())
        intervals.append(interval)
    sampler.calibrate()
    # Checked after the loop so the replays run back to back.
    for misses, replayed in outputs:
        for name, result in replayed.items():
            if misses or _digest(result) != digests[name]:
                replay_ok[name] = False
    sampler.phase = "other"
    replay_factor = sampler.factor("replay")
    replays = [normalised(i.raw_s, i.sampler_s, replay_factor) for i in intervals]
    return {
        "unit_order": list(unit_order),
        "digests": digests,
        "cycles": {n: r.cycles for n, r in results.items()},
        "errors": errors,
        "replay_ok": replay_ok,
        "records": sum(r.stats.l1_accesses for r in results.values()),
        "setup_s": setup_s,
        "wall_s": normalised(wall.raw_s, wall.sampler_s, wall_factor),
        "replay_s": statistics.median(replays) if replays else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "raw": {
            "setup_s": setup_raw,
            "wall_s": wall.raw_s,
            "replay_s": statistics.median(i.raw_s for i in intervals)
            if intervals else 0.0,
        },
        "speed_factor": {
            "setup": sampler.factor("setup"),
            "wall": wall_factor,
            "replay": replay_factor,
        },
        "_results": results,
    }


def _traced_layers(tracer, report: dict, extra: dict) -> dict:
    """A traced pass's per-layer metrics; host seconds normalised.

    Host seconds use the pass's wall-phase speed factor: nearly all
    layer time falls inside the timed simulation.
    """
    layers = _host_layers(tracer)
    layers.update(simulated_counters(report["_results"].values()))
    layers.update(extra)
    factor = report["speed_factor"]["wall"]
    return {
        name: value / factor if suite.PER_LAYER[name] == "s" else value
        for name, value in layers.items()
    }


def sim_pass(name: str, seed: int, tracer, tmp: str, sampler) -> dict:
    """Serial pass over a simulation workload's units."""
    from repro.exec import Runner
    from repro.exec.cache import ResultCache, unit_key
    from repro.sim.engine import ENGINE_VERSION

    if tracer is not None:
        tracer.install(engine=True)
    units = suite.build_units(name, seed)
    cache_dir = os.path.join(tmp, "results")
    cache = ResultCache(cache_dir)

    def setup():
        for unit in units:
            unit.run_unit.build_workload()  # memoised: shared by the lineup

    results = {}
    errors = {}

    def cold():
        for unit in units:
            execute = unit.run_unit.execute
            if tracer is not None:
                tracer.unit = unit.name
                execute = tracer.wrap("unit", execute)
            try:
                results[unit.name] = execute()
            except Exception as exc:  # a raising unit is a counted failure
                errors[unit.name] = f"{type(exc).__name__}: {exc}"
            if tracer is not None:
                # Read the live System now rather than keep it (and its
                # link-occupancy sets) alive to the end of the pass.
                tracer.count(
                    "tlb.port_conflict_cycles",
                    _port_conflict_cycles(tracer.systems.pop(unit.name, [])),
                )
                tracer.unit = None
        for unit in units:
            if unit.name in results:
                cache.put(
                    unit_key(unit.run_unit, ENGINE_VERSION), results[unit.name]
                )
        return results, errors

    def replay():
        done = [unit for unit in units if unit.name in results]
        runner = Runner(jobs=1, cache_dir=cache_dir)
        out = runner.execute_units([unit.run_unit for unit in done])
        return runner.stats["misses"], {
            unit.name: result for unit, result in zip(done, out)
        }

    report = _measure(
        sampler, setup, cold, replay, [unit.name for unit in units]
    )
    report["engine_version"] = ENGINE_VERSION
    if tracer is not None:
        report["layers"] = _traced_layers(tracer, report, {
            "tlb.port_conflict_cycles":
                tracer.total_count("tlb.port_conflict_cycles"),
            "result_cache.bytes": cache.stats()["bytes"],
            "runner.unit_build_s": 0.0,
            "runner.unit_sim_s": 0.0,
        })
        report["unit_rows"] = _unit_rows(tracer, report["unit_order"])
    return report


def sweep_pass(seed: int, tracer, tmp: str, sampler) -> dict:
    """One cold ``Runner(jobs=2)`` sweep against empty stores, then replays."""
    from repro.exec import Runner, TraceStore
    from repro.exec.cache import ResultCache
    from repro.obs.spans import Tracer
    from repro.sim.engine import ENGINE_VERSION

    if tracer is not None:
        tracer.install(engine=False)
    names = suite.WORKLOADS["sweep"].unit_names
    cache_dir = os.path.join(tmp, "results")
    store_dir = os.path.join(tmp, "traces")
    spans = Tracer() if tracer is not None else None
    scenario = None

    def setup():
        nonlocal scenario
        scenario = suite.build_sweep(seed)

    def sweep(runner_spans=None):
        runner = Runner(
            jobs=suite.SWEEP_JOBS, cache_dir=cache_dir,
            trace_store=TraceStore(store_dir), tracer=runner_spans,
        )
        comparisons = runner.run(scenario)
        # Scenario.units() order: workload-major, lineup order within.
        flat = [
            comparisons[spec.name].results[config.name]
            for spec in scenario.workloads
            for config in scenario.configurations
        ]
        return runner.stats["misses"], dict(zip(names, flat))

    def cold():
        try:
            return sweep(spans)[1], {}
        except Exception as exc:  # the whole pool pass failed
            return {}, {n: f"{type(exc).__name__}: {exc}" for n in names}

    report = _measure(sampler, setup, cold, sweep, names)
    report["engine_version"] = ENGINE_VERSION
    if tracer is not None:

        def span_total(name):
            return sum(rec["end_s"] - rec["start_s"]
                       for rec in spans.records if rec["name"] == name)

        # Simulation ran in forked workers: live System state is not
        # visible here, and the Runner's own spans split each unit.
        report["layers"] = _traced_layers(tracer, report, {
            "tlb.port_conflict_cycles": 0,
            "result_cache.bytes": ResultCache(cache_dir).stats()["bytes"],
            "runner.unit_build_s": span_total("unit.build"),
            "runner.unit_sim_s": span_total("unit.sim"),
        })
        report["unit_rows"] = []
        report["runner_spans"] = spans.records
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="generator seed of the workload's inputs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("--tmp", required=True,
                        help="empty scratch directory for the pass's stores")
    parser.add_argument("--spans-out", default=None,
                        help="with --trace 1, write the pass's spans here")
    args = parser.parse_args(argv)

    sampler = SpeedSampler()
    sampler.start()
    try:
        tracer = None
        if args.trace:
            from tracing import LayerTracer

            tracer = LayerTracer(args.pass_id)
        if args.workload == "sweep":
            report = sweep_pass(args.seed, tracer, args.tmp, sampler)
        else:
            report = sim_pass(
                args.workload, args.seed, tracer, args.tmp, sampler
            )
    finally:
        sampler.stop()
    if tracer is not None and args.spans_out:
        tracer.write(args.spans_out)
        with open(args.spans_out, "a") as fh:
            for record in report.get("runner_spans", ()):
                fh.write(json.dumps(record) + "\n")
    report.pop("runner_spans", None)
    report.pop("_results")
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
