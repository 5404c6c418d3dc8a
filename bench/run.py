#!/usr/bin/env python3
"""The repository's benchmark: figure regeneration and SQL serving.

Four workloads (see ``BENCHMARK.json`` and ``bench/README.md``):
``cgp-wisc``, ``nl-large`` and ``attrib-wisc`` regenerate figure grids
from scratch; ``serve-oltp`` drives the SQL server closed loop.  Each
workload runs one warm-up round, then timed rounds until ``--seconds``
have passed (at least three), all single-threaded.  With ``--trace`` a
traced round follows, with spans recorded around every call into a
layer.  Every output is then checked (see ``oracle()`` in
``bench/workloads.py``).

All four workloads, one subprocess each, with a metric table::

    python3 bench/run.py --seed 1234 [--trace] [--out FILE]

One workload in this process; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics, or per-layer ones with ``--trace 1``)::

    python3 bench/run.py --workload cgp-wisc --seed 1 --seconds 12 --trace 0

Compare two result files, metric by metric, against the bounds in
``BENCHMARK.json`` (exit 1 on a regression)::

    python3 bench/run.py --compare BASE.json HEAD.json

Result files (default ``bench/results/latest*.json``) keep every
round's samples, the spans, and the run's provenance.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")

#: Timed rounds per run, at least, however short ``--seconds`` is.
MIN_ROUNDS = 3

#: Wall-clock ceiling for one workload subprocess.
CHILD_TIMEOUT_S = 900

#: Stages reported as their share of the traced round.  A workload
#: without the stage reports 0; ``uarch.replay`` sums every cell kind.
SHARE_STAGES = (
    "instrument.trace", "instrument.expand", "layout.profile",
    "layout.layout", "uarch.compile", "uarch.replay", "obsv.replay",
    "obsv.payload", "db.server.submit", "db.server.step",
)

#: Per-layer counters of layers that only some workloads run; the
#: others report 0 (nl-large has no CGHC, the replays have no server).
LAYER_ONLY = (
    "instrument.raw_events", "instrument.events", "uarch.demand_misses",
    "uarch.stall_frac", "uarch.prefetch_issued",
    "uarch.prefetch_useful_frac", "core.cghc_probes",
    "core.cghc_l1_hit_frac", "core.cgp_cghc_useful_frac",
    "obsv.overhead_x", "uarch.shard2_speedup", "harness.parallel2_speedup",
    "db.server.quanta", "db.server.retries", "db.server.shed",
    "db.server.stmt_cache_hit_frac", "db.server.overhead_frac",
)

ROUND_METRICS = ("regen_s", "setup_s", "throughput_per_s",
                 "latency_p50_ms", "latency_p99_ms")


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def units(spec, group):
    return {m["name"]: m["unit"] for m in spec[group]}


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------


def summary(samples, unit):
    """Median, quartiles and sample count of one metric."""
    value = statistics.median(samples)
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = value
    return {"value": value, "unit": unit, "n": len(samples),
            "q1": q1, "q3": q3, "samples": samples}


def request_medians(rounds):
    """Each request's latency (seconds), median over the rounds; every
    round serves the same requests in the same order."""
    return [statistics.median(x) for x in zip(*(r["latencies"]
                                                for r in rounds))]


def end_to_end(rounds, peak_rss_mb, spec):
    """Medians over rounds; the samples are kept for comparisons.  A
    latency percentile is taken over per-request medians, so one slow
    round moves it no more than it moves any other median."""
    from workloads import percentile

    unit = units(spec, "end_to_end")
    out = {key: summary([r[key] for r in rounds], unit[key])
           for key in ROUND_METRICS}
    out["peak_rss_mb"] = summary([peak_rss_mb], unit["peak_rss_mb"])
    medians = request_medians(rounds)
    for key, q in (("latency_p50_ms", 50), ("latency_p99_ms", 99)):
        out[key]["value"] = 1e3 * percentile(medians, q)
        out[key]["requests_per_round"] = len(medians)
    return out


def per_layer(spans, counters, regen_s, spec):
    """The BENCHMARK.json per-layer metrics from one traced pass."""
    round_ = spans.find("harness.round")
    wall = round_["busy"]
    inside = spans.subtree(round_["id"])

    def share(stage):
        return sum(r["busy"] for r in inside
                   if r["name"] == stage
                   or r["name"].startswith(stage + "_")) / wall

    stages = [r for parent in ("harness.setup", "harness.work")
              for r in spans.children(spans.find(parent)["id"])]
    values = {
        "harness.round_s": wall,
        "workloads.build_s": spans.busy("workloads.build",
                                        within=round_["id"]),
        "db.parser.parse_s": spans.busy("db.parser.parse"),
        "db.optimizer.plan_s": spans.busy("db.optimizer.plan"),
        "db.exec.execute_s": (spans.busy("db.exec.rows")
                              + spans.busy("db.exec.dml")),
        "db.storage.commit_s": spans.busy("db.storage.commit"),
        "harness.gap_frac":
            (regen_s - sum(r["busy"] for r in stages)) / regen_s,
    }
    values.update({stage + "_frac": share(stage) for stage in SHARE_STAGES})
    values.update(dict.fromkeys(LAYER_ONLY, 0))
    values.update(counters)
    unit = units(spec, "per_layer")
    return {name: {"value": values[name], "unit": unit[name]}
            for name in unit}


def detail(spans, rounds, load):
    """Workload-specific numbers kept in the result file: every span
    name's summed busy seconds, replay cost per event, and the median
    latency of each statement kind."""
    out = {}
    for record in spans.records:
        key = record["name"] + "_s"
        out[key] = out.get(key, 0.0) + record["busy"]
    replays = [r for r in spans.subtree(spans.find("harness.round")["id"])
               if r["name"].startswith("uarch.replay_")]
    if replays:
        out["uarch.replay_s"] = sum(r["busy"] for r in replays)
        out["uarch.ns_per_event"] = (1e9 * out["uarch.replay_s"]
                                     / (load.events * len(replays)))
    if load.request_kinds:
        by_kind = {}
        for kind, value in zip(load.request_kinds, request_medians(rounds)):
            by_kind.setdefault(kind, []).append(value)
        for kind, values in sorted(by_kind.items()):
            out[f"db.{kind}_p50_ms"] = 1e3 * statistics.median(values)
    return out


def run_workload(name, seed, seconds, trace, quick, spec):
    """Rounds, optional traced pass and oracle of one workload."""
    import workloads
    from spans import Spans

    load = workloads.make(name, seed, quick)
    if not quick:
        gc.collect()
        log(f"{name}: warm-up round")
        load.round()
    rounds = []
    min_rounds, seconds = (1, 0) if quick else (MIN_ROUNDS, seconds)
    started = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - started < seconds:
        gc.collect()
        rounds.append(load.round())
        log(f"{name}: round {len(rounds)} regen "
            f"{rounds[-1]['regen_s']:.3f}s")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "end_to_end": end_to_end(rounds, peak_rss_mb, spec),
        "digests": sorted({r["digest"] for r in rounds}),
    }
    if trace:
        spans = Spans(name)
        gc.collect()
        log(f"{name}: traced round")
        counters = load.traced(spans)
        result["per_layer"] = per_layer(
            spans, counters, result["end_to_end"]["regen_s"]["value"], spec)
        result["detail"] = detail(spans, rounds, load)
        result["spans"] = spans.to_json()
    log(f"{name}: oracle")
    check = load.oracle()
    result.update(
        workload=load.describe(),
        correct=check["failed"] == 0,
        attempted=check["attempted"],
        failed=check["failed"],
        fail_frac=check["failed"] / check["attempted"],
        errors=check["errors"][:50],
    )
    return result


# ----------------------------------------------------------------------
# provenance and result files
# ----------------------------------------------------------------------


def git_rev():
    """The checkout's commit, or None outside a git work tree (the
    benchmark never looks above its own checkout)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def provenance(args, seconds):
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev(),
        "seed": args.seed,
        "seconds": seconds,
        "trace": bool(args.trace),
        "quick": args.quick,
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
    }


def write_json(path, payload):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def contract_line(result, trace, spec):
    group = "per_layer" if trace else "end_to_end"
    metrics = {
        m["name"]: {"value": result[group][m["name"]]["value"],
                    "unit": m["unit"]}
        for m in spec[group]
    }
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def report(merged, spec):
    """Every metric by name, with its unit, per workload."""
    for name, result in merged["workloads"].items():
        print(f"\n== {name}: {result['failed']}/{result['attempted']} "
              f"failed (fail_frac {result['fail_frac']:g})")
        for m in spec["end_to_end"]:
            s = result["end_to_end"][m["name"]]
            print(f"  {m['name']:32s} {s['value']:14.6g} {m['unit']:6s} "
                  f"n={s['n']} q1={s['q1']:.6g} q3={s['q3']:.6g}")
        if "per_layer" in result:
            for m in spec["per_layer"]:
                s = result["per_layer"][m["name"]]
                print(f"  {m['name']:32s} {s['value']:14.6g} {m['unit']}")
        for error in result["errors"][:5]:
            print(f"  ! {error}")


def run_all(args, spec, seconds):
    """Each workload in its own subprocess, merged into one file."""
    import workloads

    merged = {"provenance": provenance(args, seconds), "workloads": {}}
    out = args.out or os.path.join(RESULTS_DIR, "latest.json")
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    ok = True
    for name in workloads.NAMES:
        part = os.path.join(workloads.WORK_DIR, f"{name}-{os.getpid()}.json")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--trace", str(int(args.trace)), "--out", part]
        if args.quick:
            cmd.append("--quick")
        log(f"== {name}")
        try:
            done = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                                  timeout=CHILD_TIMEOUT_S)
            code = done.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
        if code != 0 or not os.path.exists(part):
            log(f"{name}: workload process failed ({code})")
            ok = False
            continue
        with open(part, encoding="utf-8") as fh:
            merged["workloads"][name] = json.load(fh)["workloads"][name]
        os.remove(part)
        ok = ok and merged["workloads"][name]["correct"]
    try:
        os.rmdir(workloads.WORK_DIR)
    except OSError:
        pass
    write_json(out, merged)
    report(merged, spec)
    print(f"\nwrote {out}")
    return 0 if ok else 1


# ----------------------------------------------------------------------
# comparing two result files
# ----------------------------------------------------------------------


def spread(samples):
    """Distance between the quartiles, as a share of the median."""
    s = summary(samples, None)
    return (s["q3"] - s["q1"]) / abs(s["value"]) if s["value"] else 0.0


def judge(base, head, better, bound):
    """``better``/``worse``/``same``/``unresolved`` for one metric.

    ``base`` and ``head`` are result-file metric entries.  ``change`` is
    the head value's move against the base value, signed so that
    positive is worse.  Where either side's spread across its samples
    exceeds the bound the verdict is unresolved, unless every head
    sample beats every base sample."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (head["value"] - base["value"]) / abs(base["value"])
    if max(spread(base["samples"]), spread(head["samples"])) > bound:
        if all(sign * x < sign * y
               for x in head["samples"] for y in base["samples"]):
            return "better", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def compare(base_path, head_path, spec):
    with open(base_path, encoding="utf-8") as fh:
        base = json.load(fh)["workloads"]
    with open(head_path, encoding="utf-8") as fh:
        head = json.load(fh)["workloads"]
    regressed = False
    print(f"{'workload':12s} {'metric':18s} {'base median [q1, q3]':>34s} "
          f"{'head median [q1, q3]':>34s} {'change':>8s}  verdict")
    for name in [n for n in base if n in head]:
        for m in spec["end_to_end"]:
            b = base[name]["end_to_end"][m["name"]]
            h = head[name]["end_to_end"][m["name"]]
            verdict, change = judge(b, h, m["better"], m["bound"])
            regressed |= verdict == "worse"
            print(f"{name:12s} {m['name']:18s} "
                  f"{b['value']:12.6g} [{b['q1']:.6g}, {b['q3']:.6g}] "
                  f"{h['value']:12.6g} [{h['q1']:.6g}, {h['q3']:.6g}] "
                  f"{100 * change:+7.2f}%  {verdict} "
                  f"(bound {100 * m['bound']:g}%)")
        b_fail, h_fail = base[name]["fail_frac"], head[name]["fail_frac"]
        if h_fail > b_fail:
            regressed = True
        print(f"{name:12s} {'fail_frac':18s} {b_fail:12.6g} "
              f"{h_fail:35.6g}  {'worse' if h_fail > b_fail else 'same'}")
    print("regression" if regressed else "no regression")
    return 1 if regressed else 0


# ----------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=1234,
                        help="input seed (default 1234; 4321 is held out)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="add the traced pass")
    parser.add_argument("--out", default=None, help="result file")
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes, one round, no warm-up")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"),
                        help="compare two result files")
    args = parser.parse_args(argv)

    if not os.path.isfile(SPEC_PATH):
        log(f"missing {SPEC_PATH}")
        return 2
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        log(f"no source tree at {SRC}: run from a full checkout")
        return 2
    sys.path.insert(0, SRC)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload is None:
        return run_all(args, spec, seconds)

    started = provenance(args, seconds)
    result = run_workload(args.workload, args.seed, seconds, args.trace,
                          args.quick, spec)
    out = args.out or os.path.join(RESULTS_DIR,
                                   f"latest-{args.workload}.json")
    write_json(out, {"provenance": started,
                     "workloads": {args.workload: result}})
    print(contract_line(result, args.trace, spec), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
