"""Parallel experiment engine: process fan-out over simulation grids.

The grid engine — ``run_grid``/``run_tasks`` and their one submission
loop — is :class:`~repro.harness.runner.ExperimentRunner`'s; this
module holds its process pool.  A runner whose ``max_workers`` exceeds
one (by default, the CPUs this process may run on) computes a grid's
remaining items with :func:`run_pooled`, on worker processes **forked**
from the coordinator.  By then the coordinator has built every pending
cell's artifacts and compiled its image, and the workers inherit both,
with the grid's job list, through the fork: a worker runs a job by its
index, on the coordinator's own runner, so nothing is rebuilt, reloaded,
recompiled or pickled on the way in.  Only the outcomes travel back,
pickled.  Where the platform has no ``fork`` start method, grids
compute in-process.  A fork copies only the calling thread, so a job
must not need a lock that another thread of the coordinator may hold
(the simulation jobs take none).

Robustness:

* **per-run timeout** — enforced around each item with ``SIGALRM``
  (``setitimer``), so a runaway simulation yields a reported
  ``timeout`` cell, never a hung grid;
* **worker crash** — a cell whose worker process dies (pool breakage)
  is retried once in a fresh pool, then reported as ``worker-crash``;
* **partial grids** — every failure mode ends up as a
  :class:`~repro.harness.grid.CellFailure` on the returned
  :class:`~repro.harness.grid.GridResult`; the surviving cells are
  always usable.

:class:`ParallelRunner` is another name for
:class:`~repro.harness.runner.ExperimentRunner`.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro.harness.runner import ExperimentRunner, _execute

#: Another name for the one runner class, whose grids fan out by default.
ParallelRunner = ExperimentRunner

#: attempts per cell = 1 + _CRASH_RETRIES (crashes only; plain errors
#: and timeouts are deterministic and not retried).
_CRASH_RETRIES = 1

#: The pooled grid that is running, as ``(jobs, timeout, fault_hook)``.
#: Its workers fork while it is set, so they inherit it.
_GRID = None


def _run_inherited(index):
    """A worker's task: the inherited grid's job ``index``."""
    jobs, timeout, fault_hook = _GRID
    name, job = jobs[index]
    return _execute(name, job, timeout, fault_hook)


def run_pooled(jobs, max_workers, timeout, fault_hook, on_done):
    """Run ``(name, job)`` pairs through :func:`~repro.harness.runner.
    _execute` on forked worker processes, calling ``on_done(name,
    outcome, attempt)`` exactly once per pair.  Jobs whose worker died
    are retried, each in a single-worker pool of its own."""
    global _GRID
    # a job may run a pooled grid of its own in its worker, which must
    # leave the worker's inherited grid in place for its next job
    outer, _GRID = _GRID, (jobs, timeout, fault_hook)
    try:
        attempts = [0] * len(jobs)
        queue = list(range(len(jobs)))
        isolate = False  # after any crash, quarantine cells one per pool
        while queue:
            for i in queue:
                attempts[i] += 1
            # one single-worker pool per suspect cell: a poisoned cell
            # that kills its process cannot take innocent cells (or the
            # whole grid) down with it.
            batches = [[i] for i in queue] if isolate else [queue]
            crashed = []
            for batch in batches:
                crashed.extend(_run_batch(batch, jobs, max_workers,
                                          on_done, attempts))
            queue = []
            for i in crashed:
                if attempts[i] > _CRASH_RETRIES:
                    on_done(jobs[i][0],
                            {"status": "crash",
                             "error": f"worker process died ({attempts[i]} "
                                      "attempts)",
                             "wall_s": 0.0},
                            attempts[i])
                else:
                    queue.append(i)
            isolate = True
    finally:
        # the job list holds the grid's runner, and through it the
        # runner's artifacts: release them with the grid
        _GRID = outer


def _run_batch(batch, jobs, max_workers, on_done, attempts):
    """Run one batch in one pool; returns the jobs that crashed (pool
    breakage makes every unfinished future suspect)."""
    executor = ProcessPoolExecutor(
        max_workers=min(max_workers, len(batch)),
        mp_context=multiprocessing.get_context("fork"))
    futures = {}
    crashed = []
    try:
        for i in batch:
            futures[executor.submit(_run_inherited, i)] = i
        not_done = set(futures)
        while not_done:
            finished, not_done = wait(not_done, return_when=FIRST_COMPLETED)
            for future in finished:
                i = futures[future]
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    crashed.append(i)
                else:
                    on_done(jobs[i][0], outcome, attempts[i])
    finally:
        executor.shutdown(wait=True, cancel_futures=True)
    return crashed
