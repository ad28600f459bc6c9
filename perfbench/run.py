"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload paper64 [--seed 3] [--seconds 25]
                             [--trace 0|1] [--input-seed N] [--pin]

Runs timed passes of one workload, each in a fresh interpreter
(``one_pass.py``), until ``--seconds`` have been spent (at least
``MIN_PASSES``), then prints a table and, as the last line of standard
output, one JSON object::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (medians over passes);
``--trace 1`` alternates untraced and traced passes and reports the
per-layer split from the traced ones, plus the tracing overhead.  Every
unit's RunResult digest is checked against ``pins.json`` for the
current ``ENGINE_VERSION``; a mismatch, a missing pin, a unit that
raises or a replay that differs from its cold run counts as failed.
``--pin`` instead runs one pass per pinned seed and rewrites the pins.

Exits non-zero, printing no result, when the program cannot be run at
all (no ``src/repro`` beside this directory, or a pass crashes).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import suite

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINS = os.path.join(HERE, "pins.json")
#: Scratch space inside the checkout (passes write nothing elsewhere).
WORK = os.path.join(ROOT, ".perfbench")

#: Fewest passes a run reports a median over, whatever ``--seconds``.
MIN_PASSES = {0: 3, 1: 2}
#: No pass starts once the run would then exceed this many seconds.
HARD_LIMIT_S = 140.0


class PassCrashed(RuntimeError):
    """A pass process failed as a whole (not one unit in it)."""


def run_pass(workload: str, seed: int, traced: bool, pass_id: int,
             timeout: float) -> dict:
    """One pass in a fresh interpreter; returns its JSON report."""
    tmp = os.path.join(WORK, "tmp", f"{os.getpid()}-{pass_id}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [
        sys.executable, os.path.join(HERE, "one_pass.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", "1" if traced else "0", "--pass-id", str(pass_id),
        "--tmp", tmp,
    ]
    if traced:
        spans = os.path.join(WORK, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans, f"{workload}-seed{seed}-pass{pass_id}.jsonl"
        )]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["TMPDIR"] = tmp
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise PassCrashed(f"pass {pass_id} exceeded {timeout:.0f}s") from exc
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        raise PassCrashed(
            f"pass {pass_id} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise PassCrashed(f"pass {pass_id} printed no report") from exc


def load_pins() -> dict:
    try:
        with open(PINS) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def pin_failures(report: dict, pins: dict, workload: str, seed: int) -> dict:
    """unit -> why it failed, for each failed unit of one pass."""
    pinned = (
        pins.get(report["engine_version"], {})
        .get(workload, {})
        .get(str(seed), {})
    )
    failures = {}
    for unit in report["unit_order"]:
        if unit in report["errors"]:
            failures[unit] = f"raised {report['errors'][unit]}"
        elif unit not in pinned:
            failures[unit] = (
                f"no pin for engine {report['engine_version']} seed {seed}"
            )
        elif report["digests"].get(unit) != pinned[unit]:
            failures[unit] = "RunResult digest differs from its pin"
        elif not report["replay_ok"].get(unit, False):
            failures[unit] = "cache replay differs from the cold run"
    return failures


def sim_speedup(workload: str, cycles: dict) -> float:
    """Simulated baseline cycles over target cycles (0.0 if missing)."""
    spec = suite.WORKLOADS[workload]
    if workload == "sweep":
        # Geometric mean over the sweep's three footprints.
        groups = sorted({name.split("/")[0] for name in spec.unit_names})
        keys = [(f"{g}/{spec.baseline}", f"{g}/{spec.target}") for g in groups]
    else:
        keys = [(spec.baseline, spec.target)]
    ratios = []
    for base, target in keys:
        if not cycles.get(base) or not cycles.get(target):
            return 0.0
        ratios.append(cycles[base] / cycles[target])
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def end_to_end(workload: str, passes: list) -> dict:
    """Medians over passes of the end-to-end metrics."""
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "accesses_per_s": statistics.median(
            p["records"] / p["wall_s"] for p in passes
        ),
        "replay_s": statistics.median(p["replay_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        # Passes whose digests all match their pins agree on cycles.
        "sim_speedup": sim_speedup(workload, passes[0]["cycles"]),
    }


def per_layer(traced: list, untraced: list) -> tuple:
    """Medians of the traced passes' layers, plus inconsistencies."""
    problems = []
    metrics = {}
    for name, unit in suite.PER_LAYER.items():
        if name in ("trace.overhead", "host.speed_factor"):
            continue
        values = [p["layers"][name] for p in traced]
        # Only host times may differ; counts and ratios must repeat.
        if unit != "s" and len(set(values)) > 1:
            problems.append(f"{name} differs between traced passes: {values}")
        metrics[name] = statistics.median(values)
    metrics["host.speed_factor"] = statistics.median(
        p["speed_factor"]["wall"] for p in traced
    )
    metrics["trace.overhead"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced)
    )
    return metrics, problems


def measure(workload: str, seed: int, seconds: float, trace: int,
            log=print) -> list:
    """Run passes until the time budget is spent; returns reports."""
    start = time.perf_counter()
    passes = []
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES[trace] and elapsed + longest > seconds:
            break
        if passes and elapsed + longest > HARD_LIMIT_S:
            break
        traced = bool(trace) and len(passes) % 2 == 1
        began = time.perf_counter()
        report = run_pass(workload, seed, traced, len(passes),
                          timeout=max(10.0, 175.0 - elapsed))
        longest = max(longest, time.perf_counter() - began)
        report["traced"] = traced
        passes.append(report)
        raw = report["raw"]
        log(f"pass {len(passes) - 1:2d} {'traced' if traced else 'timed ':6s}"
            f"  setup {report['setup_s']:6.3f} s  wall {report['wall_s']:7.3f} s"
            f"  replay {report['replay_s'] * 1e3:6.3f} ms"
            f"  rss {report['peak_rss_mb']:6.1f} MB"
            f"  | raw wall {raw['wall_s']:7.3f} s"
            f"  speed factor {report['speed_factor']['wall']:.3f}")
    return passes


def write_pins(workload: str, log=print) -> int:
    """Pin every seed's RunResult digests for the current engine."""
    pins = load_pins()
    for seed in suite.SEEDS + (suite.HELD_BACK_SEED,):
        report = run_pass(workload, seed, False, 0, timeout=175.0)
        bad = [u for u in report["unit_order"]
               if u in report["errors"] or not report["replay_ok"].get(u)]
        if bad:
            log(f"seed {seed}: units {bad} failed; not pinned")
            return 1
        pins.setdefault(report["engine_version"], {}).setdefault(
            workload, {}
        )[str(seed)] = report["digests"]
        log(f"pinned {workload} seed {seed}")
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload; last stdout line is JSON."
    )
    parser.add_argument("--workload", required=True,
                        choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, default=suite.DEFAULT_SEED,
                        help="benchmark seed; selects a pinned input seed "
                             f"(default {suite.DEFAULT_SEED})")
    parser.add_argument("--input-seed", type=int, default=None,
                        help="generator seed to use as is, e.g. the "
                             f"held-back {suite.HELD_BACK_SEED}")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite pins.json for this workload")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no simulator sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.pin:
            return write_pins(args.workload)
        seed = (args.input_seed if args.input_seed is not None
                else suite.input_seed(args.seed))
        print(f"{args.workload}: input seed {seed}, trace {args.trace}")
        passes = measure(args.workload, seed, args.seconds, args.trace)
    except PassCrashed as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1

    pins = load_pins()
    failures = []
    attempted = failed = 0
    for index, report in enumerate(passes):
        bad = pin_failures(report, pins, args.workload, seed)
        attempted += len(report["unit_order"])
        failed += len(bad)
        failures += [f"pass {index}: {unit}: {why}" for unit, why in bad.items()]

    problems = []
    untraced = [p for p in passes if not p["traced"]]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        metrics, problems = per_layer(traced, untraced)
        for row in traced[-1]["unit_rows"]:
            print(
                f"unit {row['unit']:20s} loop={row['loop']:10s} "
                f"lean={'on' if row['lean'] else 'off':3s} "
                + " ".join(
                    f"{k.split('.')[-1]}={v:.3f}"
                    for k, v in row.items()
                    if k not in ("unit", "loop", "lean")
                )
            )
        units = suite.PER_LAYER
    else:
        metrics = end_to_end(args.workload, untraced)
        units = suite.END_TO_END
    for line in failures + problems:
        print(f"FAIL {line}")
    print(f"fail_frac {failed}/{attempted} = {failed / attempted:.4f}")
    for name in units:
        print(f"{name:30s} {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
