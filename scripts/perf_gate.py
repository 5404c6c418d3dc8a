#!/usr/bin/env python
"""Perf gate: two speed ratios, each against a fixed floor.

Takes no options; prints both ratios with the seconds behind them and
exits 1 when either falls below its floor::

    PYTHONPATH=src python scripts/perf_gate.py

* **storage** — seconds to build the Wisconsin ``tenk1`` relation with
  its three indexes (clustered B+-tree on unique2, B+-tree on unique1,
  hash on unique3) at 20,000 tuples by one autocommit SQL ``INSERT``
  per row, over seconds to build it through the bulk loader
  (``Database.load_rows``); each best-of-2 on a fresh database.
* **replay** — reference-engine seconds over fast-engine seconds,
  summed over the six Figure 4 cells (``FIG4_CONFIGS``) of wisc-prof at
  scale 0.15 (``quantum_rows=2``, CGHC-2K+32K).  Each engine is timed
  best-of-2 per cell, the fast engine after one untimed run, which
  compiles the trace for the cell's layout unless an earlier cell did.

Both sides of a ratio run in one process on one machine, so machine
speed cancels out of it.
"""

from __future__ import annotations

import sys
import time

from repro.db import Database
from repro.harness import ExperimentRunner, PipelineConfig
from repro.harness.experiments import FIG4_CONFIGS
from repro.harness.runner import _make_prefetcher
from repro.uarch import simulate
from repro.workloads import wisconsin

#: 0.75 x 2.439, the replay ratio measured at commit 9631087 on these
#: six cells (best-of-3 per cell, one CPU).
REPLAY_FLOOR = 1.83
#: 0.75 x 16.17, the storage ratio measured at commit 44d9b9e on the
#: same build at 100,000 tuples (best-of-2).
STORAGE_FLOOR = 12.13

STORAGE_TUPLES = 20_000


def best_of_2(fn, *args):
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def replay_seconds():
    """(reference, fast) seconds, summed over the Figure 4 cells."""
    runner = ExperimentRunner(pipeline=PipelineConfig(quantum_rows=2),
                              scales={"wisc-prof": 0.15})
    art = runner.artifacts("wisc-prof")
    reference = fast = 0.0
    for _name, layout_name, pspec in FIG4_CONFIGS:
        layout = art.layout(layout_name)

        def run(engine):
            simulate(art.trace, layout, runner.sim_config,
                     prefetcher=_make_prefetcher(pspec, layout, "CGHC-2K+32K"),
                     engine=engine)

        reference += best_of_2(run, "reference")
        run("fast")
        fast += best_of_2(run, "fast")
    return reference, fast


def tenk1(n):
    db = Database(pool_pages=4096, hash_buckets=max(16, n // 128))
    db.create_table("tenk1", wisconsin.WISCONSIN_COLUMNS)
    db.create_index("tenk1", "unique2", clustered=True)
    db.create_index("tenk1", "unique1", clustered=False)
    db.create_index("tenk1", "unique3", kind="hash")
    return db


def build_row_sql(rows):
    db = tenk1(len(rows))
    for row in rows:
        values = ", ".join(
            repr(v) if isinstance(v, str) else str(v) for v in row)
        db.execute(f"INSERT INTO tenk1 VALUES ({values})")


def build_bulk(rows):
    tenk1(len(rows)).load_rows("tenk1", rows)


def storage_seconds():
    """(per-row SQL, bulk) seconds to build ``tenk1``."""
    rows = list(wisconsin.generate_rows(STORAGE_TUPLES, 1))
    bulk = best_of_2(build_bulk, rows)
    return best_of_2(build_row_sql, rows), bulk


def check(name, floor, slow, fast, slow_side, fast_side):
    """Print one ratio; whether it holds its floor."""
    ratio = slow / fast
    ok = ratio >= floor
    print(f"{name:8s}{ratio:6.2f}x  floor {floor:5.2f}x  "
          f"{'ok' if ok else 'FAIL':4s}  "
          f"{slow_side} {slow:.3f} s / {fast_side} {fast:.3f} s", flush=True)
    return ok


def main():
    # storage first: its floor was measured in a fresh process
    held = [
        check("storage", STORAGE_FLOOR, *storage_seconds(), "row-sql", "bulk"),
        check("replay", REPLAY_FLOOR, *replay_seconds(), "reference", "fast"),
    ]
    return 0 if all(held) else 1


if __name__ == "__main__":
    sys.exit(main())
