"""Parallel experiment engine: process fan-out over simulation grids.

:class:`ParallelRunner` is an :class:`ExperimentRunner` whose
``max_workers``, ``timeout`` and ``fault_hook`` come from its
constructor.  The grid engine itself — ``run_grid``/``run_tasks`` and
their one submission loop — is :class:`ExperimentRunner`'s: a figure's
grid of :class:`~repro.harness.grid.RunSpec` cells is deduplicated and
resolved against the result caches in the coordinating process, and the
remaining cells are computed on the runner itself (``max_workers=1``)
or fanned out by :func:`run_pooled` over worker processes.  Each worker
keeps a per-process :class:`ExperimentRunner` so workload artifacts are
built (or loaded from the shared artifact cache) once per process, not
once per cell.

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
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro.harness.runner import ExperimentRunner, _execute

#: attempts per cell = 1 + _CRASH_RETRIES (crashes only; plain errors
#: and timeouts are deterministic and not retried).
_CRASH_RETRIES = 1


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

#: Per-worker-process runner cache: artifacts survive across cells.
_WORKER_RUNNERS = {}


def compute_in_worker(runner_args, spec):
    """A pooled cell's job: compute ``spec`` on this worker process's
    runner for ``runner_args`` = (pipeline, sim_config, scales,
    cache_dir)."""
    pipeline, sim_config, scales, cache_dir = runner_args
    key = (pipeline, sim_config, tuple(sorted(scales.items())), cache_dir)
    runner = _WORKER_RUNNERS.get(key)
    if runner is None:
        runner = _WORKER_RUNNERS[key] = ExperimentRunner(
            pipeline=pipeline, sim_config=sim_config, scales=scales,
            cache_dir=cache_dir,
            # workers return stats to the coordinator, which owns the
            # durable cache writes — keep a single writer.
            results_dir=None,
        )
    return runner.compute_spec(spec)


# ----------------------------------------------------------------------
# coordinator side
# ----------------------------------------------------------------------


def run_pooled(jobs, max_workers, timeout, fault_hook, on_done):
    """Run ``(name, job)`` pairs through :func:`~repro.harness.runner.
    _execute` on a process pool, calling ``on_done(name, outcome,
    attempt)`` exactly once per pair.  Jobs whose worker died are
    retried, each in a single-worker pool of its own."""
    attempts = [0] * len(jobs)
    queue = list(range(len(jobs)))
    isolate = False  # after any crash, quarantine cells one per pool
    while queue:
        for i in queue:
            attempts[i] += 1
        # one single-worker pool per suspect cell: a poisoned cell that
        # kills its process cannot take innocent cells (or the whole
        # grid) down with it.
        batches = [[i] for i in queue] if isolate else [queue]
        crashed = []
        for batch in batches:
            crashed.extend(_run_batch(batch, jobs, max_workers, timeout,
                                      fault_hook, on_done, attempts))
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


def _run_batch(batch, jobs, max_workers, timeout, fault_hook, on_done,
               attempts):
    """Run one batch in one pool; returns the jobs that crashed (pool
    breakage makes every unfinished future suspect)."""
    executor = ProcessPoolExecutor(max_workers=min(max_workers, len(batch)))
    futures = {}
    crashed = []
    try:
        for i in batch:
            name, job = jobs[i]
            future = executor.submit(_execute, name, job, timeout, fault_hook)
            futures[future] = i
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


class ParallelRunner(ExperimentRunner):
    """ExperimentRunner whose grids fan out over a process pool.

    Parameters beyond :class:`ExperimentRunner`'s:

    ``max_workers``
        Process fan-out (default: the CPU count).  ``1`` computes every
        cell in-process, on this runner.
    ``timeout``
        Per-run wall-clock budget in seconds (None = unlimited),
        enforced around each cell or task.  An item computed in-process
        off the main thread has no deadline: only the main thread can
        arm ``SIGALRM``.
    ``fault_hook``
        Picklable callable invoked with each spec (or task label) before
        it runs, where it runs.  Exists for fault-injection tests and
        chaos drills.
    """

    def __init__(self, *args, max_workers=None, timeout=None,
                 fault_hook=None, **kwargs):
        super().__init__(*args, **kwargs)
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self.timeout = timeout
        self.fault_hook = fault_hook
