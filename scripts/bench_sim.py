#!/usr/bin/env python
"""Benchmark the replay core: reference engine vs the optimized engine.

Replays the pinned benchmark workload (wisc-prof at scale 0.15,
``quantum_rows=2`` — the same cells as Figure 4) through both engines
and reports per-cell wall time and events/second, plus the per-phase
cost breakdown (artifact build, trace compilation, simulation) and a
sharded-replay measurement (``repro.uarch.shard``).  The result is
written to ``BENCH_sim.json`` and a one-line history record is appended
to ``BENCH_sim_trend.jsonl`` so the speedup's trajectory ships with
every PR that changes the engine, not just its latest point::

    PYTHONPATH=src python scripts/bench_sim.py --out BENCH_sim.json

CI perf smoke: ``--check BENCH_sim.json`` re-measures and fails (exit
1) if the fast engine's *relative* throughput (fast / reference, both
measured in the same process, so machine speed cancels out) regressed
by more than ``--tolerance`` (default 25%) against the committed
baseline — or, when the trend file has history, against the **best
ratio ever recorded**, whichever is higher.

``--profile DIR`` additionally captures one cProfile of the fast engine
per grid cell (binary ``.pstats`` plus a text cumulative-time summary)
so hot-path work starts from data; CI uploads the directory as a
perf-smoke artifact.

Timing protocol: engines are timed in isolated cache regimes.  For each
cell the compile caches are cleared and the reference engine runs
``--repeats`` times cold-cache (it never reads the compile cache, so
this proves rather than assumes isolation); then the fast engine's
compile is re-warmed (cost reported in ``phases``, not in cell times)
and the fast engine runs ``--repeats`` times steady-state.  Best run
wins in both regimes.  The sharded path is timed end-to-end —
boundaries, record pass, shard replay, seam checks — because the record
pass is part of its real cost.
"""

from __future__ import annotations

import argparse
import cProfile
import datetime
import json
import os
import pstats
import subprocess
import sys
import time

from repro.harness import ExperimentRunner, PipelineConfig
from repro.harness.experiments import FIG4_CONFIGS
from repro.harness.parallel import ParallelRunner
from repro.harness.runner import _make_prefetcher
from repro.harness.telemetry import RunJournal
from repro.uarch import replay_sharded, simulate
from repro.uarch.fast_engine import clear_compile_cache, compile_trace

BENCH_SUITE = "wisc-prof"
BENCH_SCALE = 0.15
BENCH_CGHC = "CGHC-2K+32K"
TREND_DEFAULT = "BENCH_sim_trend.jsonl"


def best_of(n, fn):
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure(repeats, shards=0, profile_dir=None):
    phases = {}
    if profile_dir:
        os.makedirs(profile_dir, exist_ok=True)
    t0 = time.perf_counter()
    runner = ExperimentRunner(
        pipeline=PipelineConfig(quantum_rows=2),
        scales={BENCH_SUITE: BENCH_SCALE},
    )
    art = runner.artifacts(BENCH_SUITE)
    trace = art.trace
    phases["artifact_build_s"] = round(time.perf_counter() - t0, 4)

    t0 = time.perf_counter()
    for layout_name in ("O5", "OM"):
        compile_trace(trace, art.layout(layout_name))
    phases["trace_compile_s"] = round(time.perf_counter() - t0, 4)

    if shards <= 0:
        shards = max(2, os.cpu_count() or 1)
    workers = min(shards, os.cpu_count() or 1)
    # worker processes only help past one core; below that the
    # in-process path measures the sharding machinery's real overhead
    shard_runner = ParallelRunner(max_workers=workers) if workers > 1 else None

    n_events = len(trace)
    cells = []
    ref_total = fast_total = shard_total = rewarm_total = 0.0
    for name, layout_name, pspec in FIG4_CONFIGS:
        layout = art.layout(layout_name)

        def run(engine):
            simulate(
                trace, layout, runner.sim_config,
                prefetcher=_make_prefetcher(pspec, layout, BENCH_CGHC),
                engine=engine,
            )

        def run_sharded():
            replay_sharded(
                trace, layout, runner.sim_config,
                prefetcher=_make_prefetcher(pspec, layout, BENCH_CGHC),
                n_shards=shards, runner=shard_runner,
            )

        # regime 1: reference, compile caches empty (proven isolation)
        clear_compile_cache()
        ref_s = best_of(repeats, lambda: run("reference"))
        # regime 2: fast, steady state; the re-warm cost is a phase
        t0 = time.perf_counter()
        run("fast")
        rewarm_total += time.perf_counter() - t0
        fast_s = best_of(repeats, lambda: run("fast"))
        # regime 3: sharded end-to-end (record + replay + seam checks)
        shard_s = best_of(max(1, repeats - 1), run_sharded)
        if profile_dir:
            # one profiled steady-state fast run per cell, outside the
            # timing loops (instrumentation skews wall time); the
            # binary pstats dump feeds snakeviz/pstats offline, the
            # text twin is greppable straight from the CI artifact
            prof = cProfile.Profile()
            prof.runcall(run, "fast")
            stem = os.path.join(profile_dir, name.replace("+", "_"))
            prof.dump_stats(stem + ".pstats")
            with open(stem + ".txt", "w", encoding="utf-8") as fh:
                pstats.Stats(prof, stream=fh).sort_stats(
                    "cumulative").print_stats(40)
        ref_total += ref_s
        fast_total += fast_s
        shard_total += shard_s
        cells.append({
            "cell": name,
            "reference_s": round(ref_s, 4),
            "fast_s": round(fast_s, 4),
            "sharded_s": round(shard_s, 4),
            "reference_events_per_s": round(n_events / ref_s),
            "fast_events_per_s": round(n_events / fast_s),
            "speedup": round(ref_s / fast_s, 3),
            "sharded_speedup": round(ref_s / shard_s, 3),
        })
        print(f"{name:14s} ref={ref_s:6.3f}s fast={fast_s:6.3f}s "
              f"shard={shard_s:6.3f}s speedup={ref_s / fast_s:5.2f}x",
              file=sys.stderr)

    phases["simulate_reference_s"] = round(ref_total, 4)
    phases["simulate_fast_s"] = round(fast_total, 4)
    phases["simulate_sharded_s"] = round(shard_total, 4)
    phases["compile_rewarm_s"] = round(rewarm_total, 4)
    grid_events = n_events * len(FIG4_CONFIGS)
    return {
        "benchmark": "fig4 grid replay throughput",
        "workload": {
            "suite": BENCH_SUITE,
            "scale": BENCH_SCALE,
            "quantum_rows": 2,
            "cghc": BENCH_CGHC,
            "events_per_cell": n_events,
            "cells": len(FIG4_CONFIGS),
        },
        "protocol": {
            "repeats": repeats,
            "timing": "best-of-N per cell, per-engine isolated cache "
                      "regimes (reference cold, fast steady-state, "
                      "sharded end-to-end)",
            "shards": shards,
            "shard_workers": workers,
        },
        "phases": phases,
        "cells": cells,
        "totals": {
            "reference_s": round(ref_total, 4),
            "fast_s": round(fast_total, 4),
            "sharded_s": round(shard_total, 4),
            "reference_events_per_s": round(grid_events / ref_total),
            "fast_events_per_s": round(grid_events / fast_total),
            "sharded_events_per_s": round(grid_events / shard_total),
            "speedup_vs_reference": round(ref_total / fast_total, 3),
            "sharded_speedup_vs_reference": round(ref_total / shard_total, 3),
        },
    }


def _git_rev():
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip() or None
    except Exception:
        return None


def trend_record(result):
    """One JSONL history line: enough to gate on and to plot."""
    return {
        "ts": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "rev": _git_rev(),
        "speedup": result["totals"]["speedup_vs_reference"],
        "sharded_speedup":
            result["totals"]["sharded_speedup_vs_reference"],
        "fast_events_per_s": result["totals"]["fast_events_per_s"],
        "reference_s": result["totals"]["reference_s"],
        "fast_s": result["totals"]["fast_s"],
        "repeats": result["protocol"]["repeats"],
        "shard_workers": result["protocol"]["shard_workers"],
        "cells": {c["cell"]: c["speedup"] for c in result["cells"]},
    }


def read_trend(path):
    """Parse the trend history, skipping malformed lines (a crashed
    append must not brick the perf gate)."""
    entries = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entries.append(json.loads(line))
                except ValueError:
                    continue
    except OSError:
        return []
    return entries


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None,
                        help="write the measurement to this JSON file")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="compare against a committed BENCH_sim.json "
                             "(and the trend history's best ratio); exit 1 "
                             "on a relative-throughput regression")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional speedup regression for "
                             "--check (default 0.25)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per cell per engine")
    parser.add_argument("--shards", type=int, default=0,
                        help="shard count for the sharded measurement "
                             "(default: max(2, cpu count))")
    parser.add_argument("--trend", default=TREND_DEFAULT,
                        help="append a history record to this JSONL file "
                             "and gate --check against its best ratio "
                             "(empty string disables; default "
                             f"{TREND_DEFAULT})")
    parser.add_argument("--journal", default=None,
                        help="append the measurement to this run journal "
                             "(JSONL) as bench events, one per cell plus "
                             "a totals record")
    parser.add_argument("--profile", default=None, metavar="DIR",
                        help="write a per-cell cProfile of the fast "
                             "engine (binary .pstats + text summary) "
                             "into DIR; profiled runs are separate from "
                             "the timed ones")
    args = parser.parse_args(argv)

    result = measure(args.repeats, shards=args.shards,
                     profile_dir=args.profile)
    if args.profile:
        print(f"profiles written to {args.profile}/", file=sys.stderr)
    print(json.dumps(result["totals"], indent=2))

    if args.journal:
        with RunJournal(args.journal) as journal:
            for cell in result["cells"]:
                journal.write("bench", benchmark=result["benchmark"],
                              **cell)
            journal.write("bench", benchmark=result["benchmark"],
                          workload=result["workload"],
                          phases=result["phases"],
                          totals=result["totals"])
        print(f"journaled to {args.journal}", file=sys.stderr)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=False)
            fh.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)

    history = read_trend(args.trend) if args.trend else []
    if args.trend:
        with open(args.trend, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(trend_record(result)) + "\n")
        print(f"appended trend record to {args.trend} "
              f"({len(history) + 1} total)", file=sys.stderr)

    if args.check:
        with open(args.check, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        base_speedup = baseline["totals"]["speedup_vs_reference"]
        recorded = [e["speedup"] for e in history
                    if isinstance(e.get("speedup"), (int, float))]
        best = max([base_speedup] + recorded)
        measured = result["totals"]["speedup_vs_reference"]
        floor = best * (1.0 - args.tolerance)
        source = "trend best" if best > base_speedup else "committed"
        print(
            f"perf check: measured {measured:.2f}x vs {source} "
            f"{best:.2f}x (floor {floor:.2f}x)",
            file=sys.stderr,
        )
        if measured < floor:
            print(
                "PERF REGRESSION: the optimized engine's speedup over "
                "the reference engine fell below the recorded floor",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
