"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload datapath-bfp --seed 4 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output carries every
end-to-end metric; with ``--trace 1`` it carries every per-layer metric,
from traced rounds alternated with untraced ones.
The line before it carries the host facts, sample counts and digests.
The exit code is 0 only when every correctness check passed.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

Metrics = Dict[str, Tuple[float, str]]


def _percentile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(outcome, raw: bool = False) -> Metrics:
    """The end-to-end metrics, in reference-host time unless ``raw``."""
    from workloads import FAILED_FRAME_FIELDS, FRAME_FIELDS

    def times(name):
        return getattr(outcome, name) if raw else outcome.normalised(name)

    records = outcome.records
    slot_ms, step_ms, apply_ms = times("slot_ms"), times("step_ms"), times("apply_ms")
    wall = outcome.wall_s if raw else outcome.ref_wall_s
    counts = records["counts"]
    offered = sum(counts.get(name, 0) for name in FRAME_FIELDS)
    failed = sum(counts.get(name, 0) for name in FAILED_FRAME_FIELDS)
    return {
        "cell_slots_per_s": (_ratio(outcome.cell_slots, wall), "1/s"),
        "slot_ms_p50": (_percentile(slot_ms, 50), "ms"),
        "slot_ms_p99": (_percentile(slot_ms, 99), "ms"),
        "step_ms_p50": (_percentile(step_ms, 50), "ms"),
        "step_ms_p95": (_percentile(step_ms, 95), "ms"),
        "apply_ms_p50": (_percentile(apply_ms, 50), "ms"),
        "apply_ms_p95": (_percentile(apply_ms, 95), "ms"),
        "setup_s": (statistics.median(times("setup_s")), "s"),
        "peak_rss_mb": (
            (records["maxrss_kb"] + outcome.worker_rss_kb) / 1024.0,
            "MB",
        ),
        "ops_failed_frac": (_ratio(failed, offered), "ratio"),
    }


def per_layer(traced, untraced, served: bool) -> Metrics:
    from workloads import FRAME_FIELDS

    records = traced.records
    spans = records["spans"]
    counts = records["counts"]
    total_self = sum(record[2] for record in spans.values())
    metrics: Metrics = {}
    # Every wrapped name is present, called or not: the traced pass
    # installs all of them.
    for name, (calls, _total, self_ns, _errors) in spans.items():
        metrics[f"{name}.calls"] = (calls / traced.rounds, "1/round")
        metrics[f"{name}.self_us_per_call"] = (_ratio(self_ns, calls) / 1e3, "us")
        metrics[f"{name}.self_share"] = (_ratio(self_ns, total_self), "ratio")
    for kind in ("compress", "parse"):
        hits = counts.get(f"memo.{kind}_hits", 0)
        misses = counts.get(f"memo.{kind}_misses", 0)
        metrics[f"fronthaul.codec_memo.{kind}_hit_ratio"] = (
            _ratio(hits, hits + misses),
            "ratio",
        )
    offered = sum(counts.get(name, 0) for name in FRAME_FIELDS)
    metrics["sim.frames_per_cell_slot"] = (
        _ratio(offered, traced.cell_slots),
        "count",
    )
    metrics["sim.undeliverable_per_cell_slot"] = (
        _ratio(counts.get("undeliverable", 0), traced.cell_slots),
        "count",
    )
    metrics["core.chain.stage_faults"] = (stage_faults_per_round(traced), "1/round")
    metrics["scale.pool.arena_bytes"] = (
        counts.get("pool.arena_bytes", 0) / traced.rounds,
        "B/round",
    )
    metrics["scale.pool.pipe_fallback_payloads"] = (
        counts.get("pool.pipe_fallback_payloads", 0) / traced.rounds,
        "1/round",
    )
    metrics["scale.pool.rebuilt_groups_per_apply"] = (
        _ratio(sum(traced.rebuilt), len(traced.rebuilt)),
        "count",
    )
    overhead_ms = 0.0
    if served:
        advance_ms = spans["scale.pool.advance_epoch"][1] / 1e6
        overhead_ms = (sum(traced.step_ms) - advance_ms) / len(traced.step_ms)
    metrics["serve.overhead_ms_per_step"] = (overhead_ms, "ms")
    metrics["trace.coverage"] = (
        _ratio(records["top_ns"] / 1e9, traced.round_s),
        "ratio",
    )
    metrics["trace.overhead_ratio"] = (
        statistics.median(
            t / u for t, u in zip(traced.round_walls, untraced.round_walls)
        ),
        "ratio",
    )
    return metrics


def check(outcome, workload: str, seed: int, reference: str, faults: float) -> List[str]:
    """Every reason the pass is not correct (empty when it is).

    ``reference`` is the digest every round must reach; ``faults`` the
    middlebox stage faults every round must count.  At the default seed
    both must also equal the values pinned in golden.json.
    """
    from workloads import DEFAULT_SEED

    problems = list(outcome.errors)
    if outcome.failed:
        problems.append(f"{outcome.failed} requests failed")
    if len(set(outcome.digests)) != 1:
        problems.append(f"rounds disagree: {sorted(set(outcome.digests))}")
    elif outcome.digests[0] != reference:
        problems.append(f"digest {outcome.digests[0]} != reference {reference}")
    if seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as handle:
            pinned = json.load(handle)[workload]
        if reference != pinned["digest"]:
            problems.append(f"digest {reference} != pinned {pinned['digest']}")
        if faults != pinned["stage_faults_per_round"]:
            problems.append(
                f"{faults} stage faults per round != pinned "
                f"{pinned['stage_faults_per_round']}"
            )
    counted = stage_faults_per_round(outcome)
    if counted != faults:
        problems.append(f"{counted} stage faults per round != {faults}")
    return problems


def stage_faults_per_round(outcome) -> float:
    return outcome.records["counts"].get("stage_faults", 0) / outcome.rounds


def run(workload: str, seed: int, seconds: float, trace: bool, worker_dir: str):
    """Measure one workload; returns (result line, details line)."""
    import numpy as np
    from repro.scale import run_scenario
    from spans import Tracer
    import workloads

    spec = workloads.make_spec(workload, seed)
    served = workload == "served-modcomp-churn"
    workers = min(2, os.cpu_count() or 1)
    tracer = Tracer(worker_dir)
    reference = None
    if served:
        # The batch run of the same spec: a round ends on remove_cell, so
        # its collected digest must equal this one.
        reference = run_scenario(spec, workers=1).digest
    workloads.install_probes(tracer)
    try:
        if served:
            untraced, traced = workloads.run_served(
                spec, tracer, workers, seconds=seconds,
                setup_reps=workloads.SERVED_SETUP_REPS, paired=trace,
            )
        else:
            untraced, traced = workloads.run_inline(
                spec, tracer, seconds=seconds,
                setup_reps=workloads.SETUP_REPS, paired=trace,
            )
        if reference is None:
            reference = untraced.digests[0]
        faults = stage_faults_per_round(untraced)
        problems = check(untraced, workload, seed, reference, faults)
        passes = {"untraced": untraced}
        raw_metrics = {}
        if trace:
            problems += [
                f"traced: {p}"
                for p in check(traced, workload, seed, reference, faults)
            ]
            passes["traced"] = traced
            metrics = per_layer(traced, untraced, served)
        else:
            metrics = end_to_end(untraced)
            raw_metrics = {
                name: value
                for name, (value, _unit) in end_to_end(untraced, raw=True).items()
            }
    finally:
        tracer.close()
    attempted = sum(p.attempted for p in passes.values())
    failed = sum(p.failed for p in passes.values())
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "workers": workers if served else 1,
        "digest": reference,
        "stage_faults_per_round": faults,
        "problems": problems,
        "raw_metrics": raw_metrics,
        "passes": {
            name: {
                "rounds": p.rounds,
                "wall_s": p.wall_s,
                "slot_samples": len(p.slot_ms),
                "step_samples": len(p.step_ms),
                "apply_samples": len(p.apply_ms),
                "setup_samples": len(p.setup_s),
                "host_scale_median": statistics.median(
                    scale for _start, _end, scale in p.blocks["slot_ms"]
                ),
            }
            for name, p in passes.items()
        },
    }
    return result, details


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Run every workload in a fresh process; print its metrics as a table."""
    import subprocess

    from workloads import WORKLOADS

    status = 0
    for workload in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True,
            text=True,
            check=False,
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode or not lines:
            status = 1
        if not lines:
            print(f"{workload}: no result (exit {completed.returncode})")
            print(completed.stderr, file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:48s} {metric['value']:>16.6g} {metric['unit']}")
        if not result["correct"]:
            print(f"  problems: {json.loads(lines[-2])['problems']}")
    return status


def stop_helpers() -> None:
    """Stop every process the run started and wait for each to end.

    Pool workers are joined when their pool closes; this also ends any
    an error path left behind.  The pool's shared-memory arena starts
    multiprocessing's resource tracker, a process that would otherwise
    outlive this one for a moment; closing its pipe stops it, and
    ``_stop`` waits for it.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as worker_dir:
            result, details = run(
                args.workload, args.seed, args.seconds, bool(args.trace), worker_dir
            )
    finally:
        stop_helpers()
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
