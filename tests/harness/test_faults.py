"""Fault injection for the parallel engine.

Every failure mode — a worker that raises, a worker that exceeds the
per-run timeout, a worker whose process dies, a corrupted durable cache
entry — must produce a *partial* GridResult naming the failing cell.
Never a hang, never a silently wrong answer.

The injected hooks are module-level functions so they pickle into
worker processes.
"""

import functools
import os
import threading
import time

from repro.harness import ParallelRunner, PipelineConfig, RunSpec
from repro.harness.grid import (
    FAIL_CACHE,
    FAIL_CRASH,
    FAIL_ERROR,
    FAIL_TIMEOUT,
)

SCALES = {"wisc-prof": 0.06}

GOOD = RunSpec("wisc-prof", "OM", None)
BAD = RunSpec("wisc-prof", "OM", ("nl", 2))


def make_engine(tmp_path, **kwargs):
    kwargs.setdefault("pipeline", PipelineConfig(quantum_rows=2))
    kwargs.setdefault("scales", SCALES)
    kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
    return ParallelRunner(**kwargs)


# ---- picklable fault hooks -------------------------------------------


def raise_on_bad(spec):
    if spec == BAD:
        raise RuntimeError("injected failure")


def sleep_on_bad(spec):
    if spec == BAD:
        time.sleep(30.0)


def crash_on_bad(spec):
    if spec == BAD:
        os._exit(17)


def crash_once(flag_path, spec):
    if not os.path.exists(flag_path):
        with open(flag_path, "w") as fh:
            fh.write("crashed")
        os._exit(17)


# ---- the tests -------------------------------------------------------


def test_raising_worker_yields_partial_grid(tmp_path):
    engine = make_engine(tmp_path, max_workers=2, fault_hook=raise_on_bad)
    grid = engine.run_grid([GOOD, BAD], grid="raise")
    assert grid.get(GOOD) is not None
    assert grid.get(BAD) is None
    (failure,) = grid.failures
    assert failure.key == BAD
    assert failure.kind == FAIL_ERROR
    assert "injected failure" in failure.error


def test_raising_worker_in_serial_degenerate_case(tmp_path):
    engine = make_engine(tmp_path, max_workers=1, fault_hook=raise_on_bad)
    grid = engine.run_grid([GOOD, BAD], grid="raise-serial")
    assert grid.get(GOOD) is not None
    (failure,) = grid.failures
    assert failure.kind == FAIL_ERROR


def test_unbuildable_suite_fails_its_cells_not_the_grid(tmp_path):
    unknown = RunSpec("tpc-c", "OM", None)
    engine = make_engine(tmp_path, max_workers=2)
    grid = engine.run_grid([unknown], grid="unbuildable")
    (failure,) = grid.failures
    assert failure.key == unknown
    assert failure.kind == FAIL_ERROR
    assert "unknown workload" in failure.error


def test_timeout_yields_partial_grid_not_a_hang(tmp_path):
    engine = make_engine(tmp_path, max_workers=2, timeout=1.5,
                         fault_hook=sleep_on_bad)
    started = time.perf_counter()
    grid = engine.run_grid([GOOD, BAD], grid="timeout")
    elapsed = time.perf_counter() - started
    assert elapsed < 25.0, "timeout did not interrupt the sleeping worker"
    assert grid.get(GOOD) is not None
    (failure,) = grid.failures
    assert failure.key == BAD
    assert failure.kind == FAIL_TIMEOUT


def test_in_process_items_off_the_main_thread_run_without_deadline(
        tmp_path):
    """Only the main thread can arm ``SIGALRM``: an in-process task run
    from another thread gets no deadline instead of failing."""
    engine = make_engine(tmp_path, max_workers=1, timeout=5)
    results = []
    thread = threading.Thread(
        target=lambda: results.append(engine.run_tasks([("t", int)])))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    (grid,) = results
    assert grid.cells == {"t": 0}
    assert not grid.failures


def test_crashing_worker_is_retried_then_reported(tmp_path):
    engine = make_engine(tmp_path, max_workers=2, fault_hook=crash_on_bad)
    grid = engine.run_grid([GOOD, BAD], grid="crash")
    assert grid.get(GOOD) is not None, "innocent cell lost to the crash"
    (failure,) = grid.failures
    assert failure.key == BAD
    assert failure.kind == FAIL_CRASH
    assert failure.attempts == 2  # one retry happened


def test_single_crash_recovers_via_retry(tmp_path):
    hook = functools.partial(crash_once, str(tmp_path / "crash.flag"))
    engine = make_engine(tmp_path, max_workers=2, fault_hook=hook)
    grid = engine.run_grid([GOOD], grid="crash-once")
    assert grid.ok
    assert grid[GOOD].cycles > 0


def test_corrupted_cache_entry_is_reported_not_trusted(tmp_path):
    engine = make_engine(tmp_path, max_workers=2,
                         results_dir=str(tmp_path / "results"))
    grid = engine.run_grid([GOOD, BAD], grid="seed")
    assert grid.ok
    # corrupt BAD's durable entry, then re-run with a fresh engine
    key = engine.fingerprint(BAD)
    with open(engine.result_cache.path(key), "w") as fh:
        fh.write("not json at all")
    fresh = make_engine(tmp_path, max_workers=2,
                        results_dir=str(tmp_path / "results"))
    grid2 = fresh.run_grid([GOOD, BAD], grid="corrupt")
    assert grid2.get(GOOD) is not None  # clean entry still served
    assert grid2.get(BAD) is None
    (failure,) = grid2.failures
    assert failure.key == BAD
    assert failure.kind == FAIL_CACHE
    assert "cache" in failure.error


def test_failed_task_lane_reports_label(tmp_path):
    engine = make_engine(tmp_path, max_workers=2)
    grid = engine.run_tasks(
        [("ok", functools.partial(int, "7")),
         ("boom", functools.partial(int, "not-a-number"))],
        grid="tasks",
    )
    assert grid.get("ok") == 7
    (failure,) = grid.failures
    assert failure.key == "boom"
    assert failure.kind == FAIL_ERROR
    assert "ValueError" in failure.error
