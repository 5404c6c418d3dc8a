"""The parallel experiment engine: fan-out, caching, telemetry.

Fault injection (crash / timeout / corruption) lives in
``test_faults.py``; serial/parallel result equivalence in
``test_equivalence.py``.
"""

import gc
import json
import os
import weakref

import pytest

from repro.harness import (
    ExperimentRunner,
    ParallelRunner,
    PipelineConfig,
    RunJournal,
    RunSpec,
    progress_printer,
)
from repro.harness import runner as runner_module
from repro.instrument.trace import Trace
from repro.uarch import fast_engine

SCALES = {"wisc-prof": 0.06}


@pytest.fixture(scope="module")
def art_dir(tmp_path_factory):
    """Artifact cache shared by every engine in this module."""
    return str(tmp_path_factory.mktemp("artifacts"))


def make_engine(tmp_path, art_dir, **kwargs):
    kwargs.setdefault("pipeline", PipelineConfig(quantum_rows=2))
    kwargs.setdefault("scales", SCALES)
    kwargs.setdefault("cache_dir", art_dir)
    kwargs.setdefault("results_dir", str(tmp_path / "results"))
    return ParallelRunner(**kwargs)


GRID = [
    RunSpec("wisc-prof", "O5", None),
    RunSpec("wisc-prof", "OM", None),
    RunSpec("wisc-prof", "OM", ("nl", 2)),
    RunSpec("wisc-prof", "OM", ("cgp", 2)),
]


def test_parallel_grid_completes_all_cells(tmp_path, art_dir):
    engine = make_engine(tmp_path, art_dir, max_workers=3)
    grid = engine.run_grid(GRID, grid="basic")
    assert grid.ok
    assert len(grid) == len(GRID)
    for spec in GRID:
        assert grid[spec].cycles > 0


def test_max_workers_one_is_serial_degenerate_case(tmp_path, art_dir):
    serial = make_engine(tmp_path, art_dir, max_workers=1)
    grid = serial.run_grid(GRID, grid="serial")
    assert grid.ok and len(grid) == len(GRID)


def record_builds(monkeypatch):
    """Weak references to every trace built from scratch from now on."""
    built = []
    build = runner_module._build_trace

    def recording(suite_name, pipeline):
        image, trace, query_rows, pool_stats = build(suite_name, pipeline)
        built.append(weakref.ref(trace))
        return image, trace, query_rows, pool_stats

    monkeypatch.setattr(runner_module, "_build_trace", recording)
    return built


def serial_engine():
    """A one-worker engine with no artifact cache, at a scale of its own."""
    return ParallelRunner(pipeline=PipelineConfig(quantum_rows=2),
                          scales={"wisc-prof": 0.04}, max_workers=1)


def test_serial_grid_and_artifacts_share_one_build(monkeypatch):
    built = record_builds(monkeypatch)
    engine = serial_engine()
    assert engine.run_grid(GRID[:2], grid="one-build").ok
    assert engine.artifacts("wisc-prof").trace is built[0]()
    assert len(built) == 1


def test_deleting_a_serial_runner_frees_its_trace(monkeypatch):
    built = record_builds(monkeypatch)
    engine = serial_engine()
    assert engine.run_grid(GRID[:2], grid="freed").ok
    del engine
    gc.collect()
    assert len(built) == 1 and built[0]() is None


def test_a_pooled_grid_releases_its_runner(monkeypatch):
    """The job list that pool workers inherit holds the runner; the
    grid lets it go when it ends, so the runner's trace dies with it."""
    built = record_builds(monkeypatch)
    engine = ParallelRunner(pipeline=PipelineConfig(quantum_rows=2),
                            scales={"wisc-prof": 0.04}, max_workers=2)
    assert engine.run_grid(GRID[:2], grid="released").ok
    del engine
    gc.collect()
    assert len(built) == 1 and built[0]() is None


def test_pooled_grid_stores_run_spec_config_echo(tmp_path, art_dir):
    spec = GRID[2]
    pooled = make_engine(tmp_path, art_dir, max_workers=2)
    assert pooled.run_grid([spec], grid="echo").ok
    serial = make_engine(tmp_path, art_dir, max_workers=1,
                         results_dir=str(tmp_path / "serial"))
    serial.run_spec(spec)

    def echo(engine):
        with open(engine.result_cache.path(engine.fingerprint(spec))) as fh:
            return json.load(fh)["config"]

    assert echo(pooled) == echo(serial)
    assert echo(pooled)["prefetcher"] == ["nl", 2]


def test_duplicate_specs_deduplicated(tmp_path, art_dir):
    engine = make_engine(tmp_path, art_dir, max_workers=2)
    journal_path = str(tmp_path / "dedupe.jsonl")
    engine.journal = RunJournal(journal_path)
    grid = engine.run_grid([GRID[0], GRID[0], GRID[0]], grid="dup")
    assert len(grid) == 1
    runs = [r for r in RunJournal.read(journal_path) if r["event"] == "run"]
    assert len(runs) == 1


def test_durable_cache_hits_skip_recomputation(tmp_path, art_dir):
    engine = make_engine(tmp_path, art_dir, max_workers=2,
                         journal=str(tmp_path / "j1.jsonl"))
    engine.run_grid(GRID, grid="cold")
    # fresh engine, same results_dir: every cell must be a cache hit
    warm = make_engine(tmp_path, art_dir, max_workers=2,
                       journal=str(tmp_path / "j2.jsonl"))
    grid = warm.run_grid(GRID, grid="warm")
    assert grid.ok
    runs = [r for r in RunJournal.read(str(tmp_path / "j2.jsonl"))
            if r["event"] == "run"]
    assert len(runs) == len(GRID)
    assert all(r["cache"] == "hit" for r in runs)
    assert not warm._artifacts  # cache hits never build artifacts


def test_journal_records_required_fields(tmp_path, art_dir):
    path = str(tmp_path / "journal.jsonl")
    engine = make_engine(tmp_path, art_dir, max_workers=2, journal=path)
    engine.run_grid(GRID[:2], grid="fields")
    records = RunJournal.read(path)
    kinds = [r["event"] for r in records]
    assert kinds[0] == "grid-start" and kinds[-1] == "grid-end"
    runs = [r for r in records if r["event"] == "run"]
    assert len(runs) == 2
    for record in runs:
        assert record["status"] == "ok"
        assert record["cache"] in ("hit", "miss")
        assert record["wall_s"] >= 0
        assert isinstance(record["worker"], int)
        assert record["summary"]["cycles"] > 0
        assert record["suite"] == "wisc-prof"
    end = records[-1]
    assert end["ok"] == 2 and end["failed"] == 0


def test_progress_callback_sees_every_cell(tmp_path, art_dir):
    events = []
    engine = make_engine(tmp_path, art_dir, max_workers=2,
                         progress=events.append)
    engine.run_grid(GRID[:3], grid="progress")
    kinds = [e["event"] for e in events]
    assert kinds.count("run") == 3
    assert kinds[0] == "grid-start" and kinds[-1] == "grid-end"
    done = sorted(e["done"] for e in events if e["event"] == "run")
    assert done == [1, 2, 3]


def test_progress_printer_renders(tmp_path, art_dir):
    import io

    out = io.StringIO()
    engine = make_engine(tmp_path, art_dir, max_workers=1,
                         progress=progress_printer(out))
    engine.run_grid(GRID[:1], grid="printer")
    text = out.getvalue()
    assert "[grid printer] 1 cells" in text
    assert "ok" in text and "done:" in text


def test_run_method_still_works_and_caches(tmp_path, art_dir):
    engine = make_engine(tmp_path, art_dir, max_workers=2)
    a = engine.run("wisc-prof", "OM", ("nl", 2))
    b = engine.run("wisc-prof", "OM", ("nl", 2))
    assert a is b


def test_engine_rejects_bad_worker_count(tmp_path, art_dir):
    with pytest.raises(ValueError):
        make_engine(tmp_path, art_dir, max_workers=0)


def log_calls(monkeypatch, log_path):
    """Wrap the stage-1 and compile entry points so each call appends
    its name and pid to ``log_path``; forked workers inherit the
    wrappers."""

    def logged(name, fn):
        def wrapper(*args, **kwargs):
            with open(log_path, "a") as fh:
                fh.write(f"{name} {os.getpid()}\n")
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(runner_module, "_build_trace",
                        logged("build", runner_module._build_trace))
    monkeypatch.setattr(Trace, "load", staticmethod(logged("load",
                                                           Trace.load)))
    monkeypatch.setattr(fast_engine, "_symbolize",
                        logged("symbolize", fast_engine._symbolize))


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
def test_pooled_workers_build_load_and_compile_nothing(tmp_path, monkeypatch,
                                                       cached):
    """Workers compute on the coordinator's artifacts and compiled
    images, inherited through the fork: every build, load and
    symbolization happens in the coordinator, once per trace."""
    log = tmp_path / "calls.log"
    log_calls(monkeypatch, log)
    scales = {"wisc-prof": 0.04, "wisc-large-2": 0.004}
    grid = [RunSpec(suite, layout, pf)
            for suite in scales
            for layout, pf in (("O5", None), ("OM", ("nl", 2)),
                               ("OM", ("cgp", 2)))]
    journal = str(tmp_path / "journal.jsonl")
    engine = ExperimentRunner(
        pipeline=PipelineConfig(quantum_rows=2), scales=scales,
        cache_dir=str(tmp_path / "cache") if cached else None,
        journal=journal, max_workers=2)
    result = engine.run_grid(grid, grid="inherited")
    assert result.ok and len(result) == len(grid)

    calls = [line.split() for line in log.read_text().splitlines()]
    coordinator = str(os.getpid())
    assert {pid for _name, pid in calls} == {coordinator}
    assert sorted(name for name, _pid in calls) == (
        ["build"] * 2 + ["symbolize"] * 2)
    records = RunJournal.read(journal)
    builds = [r for r in records if r["event"] == "workload-build"]
    assert sorted(r["suite"] for r in builds) == sorted(scales)
    assert all(r["pid"] == os.getpid() for r in builds)
    workers = {r["worker"] for r in records if r["event"] == "run"}
    assert os.getpid() not in workers

    # a second pooled runner on the same cache loads each trace here
    if cached:
        log.write_text("")
        again = ExperimentRunner(
            pipeline=PipelineConfig(quantum_rows=2), scales=scales,
            cache_dir=str(tmp_path / "cache"), max_workers=2,
            results_dir=str(tmp_path / "fresh-results"))
        assert again.run_grid(grid, grid="loaded").ok
        calls = [line.split() for line in log.read_text().splitlines()]
        assert sorted(calls) == sorted(
            [["load", coordinator]] * 2 + [["symbolize", coordinator]] * 2)


def test_pooled_tasks_and_hooks_need_not_pickle(tmp_path):
    """Workers run the coordinator's own jobs and hook, inherited
    through the fork, so a local closure runs under a lambda hook."""
    offset = 40
    hooked = tmp_path / "hooked"

    def task():
        return offset + 2

    def record(label):
        with open(hooked, "a") as fh:
            fh.write(f"{label} {os.getpid()}\n")

    engine = ExperimentRunner(max_workers=2,
                              fault_hook=lambda label: record(label))
    grid = engine.run_tasks([("a", task), ("b", lambda: task() + 1)],
                            grid="closures")
    assert grid.ok and grid.cells == {"a": 42, "b": 43}
    seen = [line.split() for line in hooked.read_text().splitlines()]
    assert sorted(label for label, _pid in seen) == ["a", "b"]
    assert str(os.getpid()) not in {pid for _label, pid in seen}


def test_a_pooled_task_may_run_a_pooled_grid():
    """A worker keeps its inherited grid while one of its jobs runs a
    pooled grid of its own, so the worker's next job still runs."""

    def inner(k):
        return ExperimentRunner(max_workers=2).run_tasks(
            [("x", lambda: k), ("y", lambda: k + 1)]).cells

    # three jobs on two workers: one worker runs two of them
    grid = ExperimentRunner(max_workers=2).run_tasks(
        [(str(k), lambda k=k: inner(k)) for k in range(3)])
    assert grid.ok
    assert grid.cells == {str(k): {"x": k, "y": k + 1} for k in range(3)}


def test_default_worker_count_follows_the_affinity_mask(monkeypatch,
                                                        tmp_path):
    """The default fan-out counts the CPUs this process may run on, not
    every CPU: one usable CPU computes in-process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    journal = str(tmp_path / "journal.jsonl")
    engine = ExperimentRunner(pipeline=PipelineConfig(quantum_rows=2),
                              scales={"wisc-prof": 0.04}, journal=journal)
    assert engine.max_workers == 1
    assert engine.run_grid(GRID[:2], grid="one-cpu").ok
    runs = [r for r in RunJournal.read(journal) if r["event"] == "run"]
    assert [r["worker"] for r in runs] == [os.getpid()] * 2
