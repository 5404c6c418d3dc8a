#!/usr/bin/env python
"""Sweep the crash harnesses over every crash schedule.

One scenario = one ``(seed, schedule)`` pair, run through three harness
runs: the torture harness (``repro.db.storage.torture``) with a B+-tree
index, the torture harness with a hash index, and the chaos-under-load
harness (``repro.db.chaos``).  Each scenario drives its workload into a
planned fault, recovers, and checks the shared invariant suite
(``torture.check_recovery``)::

    PYTHONPATH=src python scripts/torture.py --seeds 20

A JSONL journal (one line per harness run and scenario: harness, index
kind, plan, what fired, the report, volume fingerprint) is written to
``--journal``.  The first invariant violation also writes its harness,
index kind and plan to ``--failing-plan``, so that scenario reruns
exactly::

    PYTHONPATH=src python scripts/torture.py --replay failing_plan.json

Exit status: 0 if every scenario passed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial

from repro.db.chaos import INTENSITY, run_chaos
from repro.db.storage.faults import SCHEDULES, FaultPlan, derive_plan
from repro.db.storage.torture import InvariantViolation, run_torture
from repro.errors import StorageError

#: (harness, index kind) -> one scenario of that harness run
RUNS = {
    ("torture", "btree"): run_torture,
    ("torture", "hash"): partial(run_torture, index_kind="hash"),
    ("chaos", "btree"): run_chaos,
}

#: the plan intensity each harness derives its fault plans with
INTENSITIES = {"torture": 1.0, "chaos": INTENSITY}


def run_batch(seeds, journal_path, failing_plan_path):
    """Run every harness run over every schedule and seed; returns the
    number of failed scenarios."""
    if os.path.exists(failing_plan_path):
        os.remove(failing_plan_path)  # it names this sweep's failure only
    failures = 0
    with open(journal_path, "w") as journal:
        for (harness, index_kind), run in RUNS.items():
            tags = {"harness": harness, "index_kind": index_kind}
            started = time.perf_counter()
            passed = failed = crashed = resurrected = 0
            for schedule in SCHEDULES:
                for seed in seeds:
                    try:
                        report = run(seed, schedule)
                    except InvariantViolation as violation:
                        failed += 1
                        journal.write(json.dumps({
                            "seed": seed, "schedule": schedule, **tags,
                            "status": "FAIL", "error": str(violation),
                        }) + "\n")
                        print(f"FAIL {harness}/{index_kind} {schedule} "
                              f"seed={seed}: {violation}")
                        if not os.path.exists(failing_plan_path):
                            _write_plan(failing_plan_path, harness,
                                        index_kind, seed, schedule)
                            print(f"  failing plan written to "
                                  f"{failing_plan_path}")
                        continue
                    passed += 1
                    crashed += report.crashed
                    resurrected += report.resurrected
                    journal.write(json.dumps(
                        {"status": "PASS", **tags, **report.to_dict()}) + "\n")
            failures += failed
            print(f"{harness}/{index_kind}: {passed + failed} scenarios in "
                  f"{time.perf_counter() - started:.1f}s, {passed} passed, "
                  f"{failed} failed; crashed={crashed}, "
                  f"resurrected={resurrected}")
    return failures


def _write_plan(path, harness, index_kind, seed, schedule):
    plan = derive_plan(seed, schedule, intensity=INTENSITIES[harness])
    with open(path, "w") as fh:
        json.dump({"harness": harness, "index_kind": index_kind,
                   "plan": plan.to_dict()}, fh, sort_keys=True)
        fh.write("\n")


def replay(plan_path):
    """Rerun the scenario a failing-plan file names, on its harness and
    index kind; raises ``StorageError`` if that harness no longer
    derives the file's plan from its seed and schedule."""
    with open(plan_path) as fh:
        data = json.load(fh)
    harness, index_kind = data["harness"], data["index_kind"]
    if (harness, index_kind) not in RUNS:
        raise StorageError(f"{plan_path} names no harness run of the "
                           f"sweep: {harness}/{index_kind}")
    plan = FaultPlan.from_dict(data["plan"])
    derived = derive_plan(plan.seed, plan.schedule,
                          intensity=INTENSITIES[harness])
    if derived != plan:
        raise StorageError(
            f"{plan_path} holds {plan.to_json()}, but {harness} derives "
            f"{derived.to_json()} for seed {plan.seed!r} and schedule "
            f"{plan.schedule!r}: the run would not replay the file's plan"
        )
    return RUNS[harness, index_kind](plan.seed, plan.schedule)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="crash-consistency sweep: torture (B+-tree and hash "
                    "index) and chaos over every crash schedule")
    parser.add_argument("--seeds", type=int, default=20,
                        help="seeds 0..N-1 per schedule (default 20)")
    parser.add_argument("--journal", default="torture_journal.jsonl",
                        help="JSONL journal path")
    parser.add_argument("--failing-plan", default="failing_plan.json",
                        help="where to write the first failing plan")
    parser.add_argument("--replay", metavar="PLAN_JSON",
                        help="rerun the scenario a failing-plan file names")
    args = parser.parse_args(argv)

    if args.replay:
        report = replay(args.replay)
        print(json.dumps(report.to_dict(), indent=2))
        return 0
    failed = run_batch(range(args.seeds), args.journal, args.failing_plan)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
