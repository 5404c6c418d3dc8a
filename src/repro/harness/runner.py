"""Experiment pipeline: workload -> trace -> layouts -> simulations.

The pipeline is two-stage and cached at both stages:

1. **Artifacts** (per workload): build the database, run the queries
   under the tracer, apply the runtime-library expansion, compute the
   call-graph profile and both address layouts.  Keyed by the workload
   parameters; optionally persisted to disk.
2. **Simulations** (per configuration): replay the cached trace through
   the fetch engine for one (layout, prefetcher, config) combination.
   Keyed by the configuration name so different figures reuse runs.

The OM profile is built the way the paper built it (§5.1): from the
wisc-prof and wisc+tpch profile runs, merged — not from the workload
being measured (except that wisc-prof and wisc+tpch are themselves in
the profile set, as in the paper).

Figure grids run through one engine, :meth:`ExperimentRunner.run_grid`
(and :meth:`~ExperimentRunner.run_tasks` for opaque tasks): each item
is computed on the runner itself, in this process, or — on a
:class:`~repro.harness.parallel.ParallelRunner` with more than one
worker — over a process pool.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from functools import partial

from repro.core import CgpPrefetcher
from repro.errors import CacheCorruptionError, ConfigError, RunTimeoutError
from repro.harness.cache import ResultCache, config_fingerprint
from repro.harness.grid import (
    FAIL_CACHE,
    FAIL_CRASH,
    FAIL_ERROR,
    FAIL_TIMEOUT,
    CellFailure,
    GridResult,
    RunSpec,
)
from repro.harness.telemetry import RunJournal
from repro.instrument import Tracer, build_db_image
from repro.instrument.codeimage import freeze_image
from repro.instrument.expand import ExpansionConfig, expand_trace
from repro.instrument.trace import TRACE_FORMAT_VERSION, Trace
from repro.layout import o5_layout, om_layout, profile_of
from repro.uarch import TABLE_1, simulate
from repro.uarch.config import cghc_variant
from repro.uarch.prefetch import (
    NextNLinePrefetcher,
    RunAheadNLPrefetcher,
    TaggedNLPrefetcher,
)
from repro.workloads.suites import ALL_SUITE_NAMES, build_suite

#: Default workload scales for experiments: chosen so a full figure
#: regenerates in minutes of pure-Python simulation (see DESIGN.md §7).
DEFAULT_SCALES = {
    "wisc-prof": 0.50,
    "wisc-large-1": 0.05,
    "wisc-large-2": 0.05,
    "wisc+tpch": 0.025,
    "recovery": 1.0,
    # scale 1.0 here = 100,000-tuple relations (10x wisc-large's full
    # size): the bulk loader makes the build cheap, and the traced
    # queries are selective probes, so the default stays minutes-scale
    "wisc-scale": 1.0,
    "serving": 1.0,
}


@dataclass(frozen=True)
class PipelineConfig:
    """Everything that determines a workload trace."""

    scale: float = 1.0
    quantum_rows: int = 2
    instrs_per_pyop: int = 3
    expansion: ExpansionConfig = field(default_factory=ExpansionConfig)
    seed: int = 1234

    def key(self, suite_name):
        e = self.expansion
        return (
            f"{suite_name}-s{self.scale}-q{self.quantum_rows}"
            f"-i{self.instrs_per_pyop}-e{e.call_every_instrs}.{e.pool_size}"
            f".{e.helpers_per_function}-r{self.seed}"
        )


class WorkloadArtifacts:
    """Frozen image + expanded trace + profile + O5/OM layouts."""

    def __init__(self, name, image, trace, profile, layouts, query_rows):
        self.name = name
        self.image = image
        self.trace = trace
        self.profile = profile
        self.layouts = layouts  # {"O5": AddressMap, "OM": AddressMap}
        self.query_rows = query_rows  # query name -> row count

    def layout(self, name):
        try:
            return self.layouts[name]
        except KeyError:
            raise ConfigError(f"unknown layout {name!r}") from None


class ExperimentRunner:
    """Builds and caches artifacts and simulation results, and runs
    grids of simulations (:meth:`run_grid`, :meth:`run_tasks`).

    Results are cached at two levels: an in-memory dict for this
    process, and (when ``cache_dir`` or ``results_dir`` is given) a
    durable on-disk :class:`~repro.harness.cache.ResultCache` shared
    across processes and invocations.  Both are keyed by a content hash
    of the *full* configuration (workload, effective pipeline, layout,
    prefetcher spec, perfect flag, CGHC variant, SimConfig) — never by
    object identity.
    """

    def __init__(self, pipeline=PipelineConfig(), sim_config=TABLE_1,
                 cache_dir=None, scales=None, results_dir=None,
                 journal=None, progress=None):
        self.pipeline = pipeline
        self.sim_config = sim_config
        self.scales = dict(DEFAULT_SCALES)
        if scales:
            self.scales.update(scales)
        self._artifacts = {}
        self._results = {}
        self._cache_dir = cache_dir
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)
        if results_dir is None and cache_dir is not None:
            results_dir = os.path.join(cache_dir, "results")
        self.result_cache = ResultCache(results_dir) if results_dir else None
        if isinstance(journal, str):
            journal = RunJournal(journal)
        self.journal = journal
        self.progress = progress

    # ------------------------------------------------------------------
    # stage 1: artifacts
    # ------------------------------------------------------------------
    def artifacts(self, suite_name):
        """Artifacts for one of the paper's workloads (cached)."""
        if suite_name not in ALL_SUITE_NAMES:
            raise ConfigError(f"unknown workload {suite_name!r}")
        cached = self._artifacts.get(suite_name)
        if cached is not None:
            return cached
        pipeline = replace(
            self.pipeline, scale=self.scales.get(suite_name, self.pipeline.scale)
        )
        built = self._load_or_build(suite_name, pipeline)
        self._artifacts[suite_name] = built
        return built

    def _load_or_build(self, suite_name, pipeline):
        # the trace rides in its own versioned binary file (integrity
        # checked on load; see Trace.save) next to a small pickle for
        # the image and rows; the format version is part of the key so
        # a format bump can never misread an old artifact
        key = f"{pipeline.key(suite_name)}-tf{TRACE_FORMAT_VERSION}"
        meta_path = trace_path = None
        if self._cache_dir:
            meta_path = os.path.join(self._cache_dir, f"{key}.meta.pickle")
            trace_path = os.path.join(self._cache_dir, f"{key}.trace")
        if (
            meta_path
            and os.path.exists(meta_path)
            and os.path.exists(trace_path)
        ):
            with open(meta_path, "rb") as fh:
                image, query_rows = pickle.load(fh)
            trace = Trace.load(trace_path)
        else:
            image, trace, query_rows, pool_stats = _build_trace(
                suite_name, pipeline
            )
            self._emit("workload-build", suite=suite_name,
                       scale=pipeline.scale, query_rows=query_rows,
                       buffer_pool=pool_stats)
            if meta_path:
                trace.save(trace_path)
                with open(meta_path, "wb") as fh:
                    pickle.dump((image, query_rows), fh,
                                protocol=pickle.HIGHEST_PROTOCOL)
        profile = profile_of(trace)
        layouts = {
            "O5": o5_layout(image),
            "OM": om_layout(image, profile),
        }
        return WorkloadArtifacts(
            suite_name, image, trace, profile, layouts, query_rows
        )

    # ------------------------------------------------------------------
    # stage 2: simulation
    # ------------------------------------------------------------------
    def run(self, suite_name, layout_name, prefetcher_spec=None,
            perfect=False, cghc="CGHC-2K+32K", sim_config=None):
        """Simulate one configuration (cached); returns SimStats.

        ``prefetcher_spec``: None, ("nl", N), ("t-nl", N),
        ("ra-nl", N, M), or ("cgp", N).
        """
        return self.run_spec(
            RunSpec(suite_name, layout_name, prefetcher_spec, perfect,
                    cghc, sim_config)
        )

    def effective_pipeline(self, suite_name):
        """The pipeline actually used for one suite (per-suite scale)."""
        return replace(
            self.pipeline,
            scale=self.scales.get(suite_name, self.pipeline.scale),
        )

    def fingerprint(self, spec):
        """Stable content hash of everything that determines one result."""
        config = spec.sim_config if spec.sim_config is not None else self.sim_config
        return config_fingerprint(
            suite=spec.suite,
            pipeline=self.effective_pipeline(spec.suite),
            layout=spec.layout,
            prefetcher=spec.prefetcher,
            perfect=spec.perfect,
            cghc=spec.cghc,
            sim_config=config,
        )

    def lookup_cached(self, spec, fingerprint=None):
        """Cached stats for a spec, or None.  May raise
        CacheCorruptionError if the durable entry is unreadable."""
        key = fingerprint or self.fingerprint(spec)
        cached = self._results.get(key)
        if cached is not None:
            return cached
        if self.result_cache is not None:
            stats = self.result_cache.get(key)
            if stats is not None:
                self._results[key] = stats
                return stats
        return None

    def run_spec(self, spec):
        """Simulate one RunSpec (memory + durable cache); returns SimStats."""
        key = self.fingerprint(spec)
        cached = self.lookup_cached(spec, fingerprint=key)
        if cached is not None:
            return cached
        stats = self.compute_spec(spec)
        self._store(spec, key, stats)
        return stats

    def _store(self, spec, key, stats):
        """Keep one computed result in memory and in the durable cache,
        with a human-readable echo of its configuration."""
        self._results[key] = stats
        if self.result_cache is not None:
            self.result_cache.put(key, stats, config_echo={
                "suite": spec.suite, "layout": spec.layout,
                "prefetcher": spec.prefetcher, "perfect": spec.perfect,
                "cghc": spec.cghc,
                "pipeline": self.effective_pipeline(spec.suite),
            })

    def compute_spec(self, spec):
        """Uncached simulation of one RunSpec."""
        config = spec.sim_config if spec.sim_config is not None else self.sim_config
        artifacts = self.artifacts(spec.suite)
        layout = artifacts.layout(spec.layout)
        if spec.perfect:
            config = replace(config, perfect_icache=True)
        prefetcher = _make_prefetcher(spec.prefetcher, layout, spec.cghc)
        return simulate(artifacts.trace, layout, config, prefetcher=prefetcher)

    def clear_results(self):
        self._results.clear()

    # ------------------------------------------------------------------
    # grid engine
    # ------------------------------------------------------------------
    #: Process fan-out, per-item timeout in seconds (None = unlimited)
    #: and fault-injection hook; :class:`~repro.harness.parallel.
    #: ParallelRunner` sets all three from its constructor.  With one
    #: worker every item runs here, on this runner.
    max_workers = 1
    timeout = None
    fault_hook = None

    def _emit(self, event, **fields):
        record = {"event": event, **fields}
        if self.journal is not None:
            record = self.journal.write(event, **fields)
        if self.progress is not None:
            self.progress(record)

    def run_grid(self, specs, grid="grid"):
        """Run every distinct RunSpec in ``specs``; never aborts the
        grid — failing cells are reported in ``GridResult.failures``.

        Cells held by the result caches are served from them; the rest
        are computed and stored the way :meth:`run_spec` stores them."""
        specs = list(dict.fromkeys(specs))
        run = _GridRun(self, grid, len(specs))
        keys = {spec: self.fingerprint(spec) for spec in specs}

        def finish(spec, outcome, attempt=1, cache="miss"):
            stats = outcome.get("value")
            if stats is not None and cache == "miss":
                self._store(spec, keys[spec], stats)
            run.finish(spec, outcome, attempt, cache,
                       key=keys[spec], label=spec.label(),
                       suite=spec.suite, layout=spec.layout,
                       prefetcher=list(spec.prefetcher or ()) or None,
                       perfect=spec.perfect, cghc=spec.cghc,
                       summary=stats.summary() if stats is not None else None)

        pending = []
        here = {"worker": os.getpid(), "wall_s": 0.0}
        for spec in specs:
            try:
                stats = self.lookup_cached(spec, fingerprint=keys[spec])
            except CacheCorruptionError as exc:
                finish(spec, dict(here, status="error", error=str(exc)),
                       cache="corrupt")
                continue
            if stats is None:
                pending.append(spec)
            else:
                finish(spec, dict(here, status="ok", value=stats),
                       cache="hit")

        compute = self.compute_spec
        if pending and self.max_workers > 1:
            from repro.harness.parallel import compute_in_worker

            # a pool worker computes on a runner of its own, built once
            # per process (see compute_in_worker)
            compute = partial(compute_in_worker, (
                self.pipeline, self.sim_config, self.scales, self._cache_dir))
            if self._cache_dir:
                # stage-1 artifacts are built once here (and persisted)
                # so workers only pay a load, not a full trace rebuild.
                # A suite that cannot be built fails its cells in the
                # workers, as it would in-process, not the whole grid.
                for suite in dict.fromkeys(spec.suite for spec in pending):
                    try:
                        self.artifacts(suite)
                    except Exception:
                        pass
        self._submit([(spec, partial(compute, spec)) for spec in pending],
                     finish)
        return run.end()

    def run_tasks(self, tasks, grid="tasks"):
        """Run ``(label, callable)`` pairs through the same engine as
        :meth:`run_grid` cells: per-task error capture, timeout and
        fault hook, no result caching.  A pooled task's callable must
        pickle."""
        run = _GridRun(self, grid, len(tasks))

        def finish(label, outcome, attempt):
            run.finish(label, outcome, attempt, "miss", label=label)

        self._submit(list(tasks), finish)
        return run.end()

    def _submit(self, jobs, on_done):
        """The one submission loop: run each ``(name, job)`` pair through
        :func:`_execute` and call ``on_done(name, outcome, attempt)``
        once per pair — in order, in this process, with one worker;
        over a process pool otherwise."""
        if self.max_workers == 1:
            for name, job in jobs:
                on_done(name, _execute(name, job, self.timeout,
                                       self.fault_hook), 1)
        else:
            from repro.harness.parallel import run_pooled

            run_pooled(jobs, self.max_workers, self.timeout,
                       self.fault_hook, on_done)


class _GridRun:
    """One submission's :class:`GridResult` and journal framing:
    ``grid-start`` when created, one ``run`` record per finished item,
    ``grid-end`` from :meth:`end`."""

    def __init__(self, runner, grid, total):
        self.emit = runner._emit
        self.grid = grid
        self.total = total
        self.done = 0
        self.cached = 0
        self.result = GridResult()
        self.started = time.perf_counter()
        self.emit("grid-start", grid=grid, cells=total,
                  max_workers=runner.max_workers)

    def finish(self, name, outcome, attempt, cache, **fields):
        """Record one item's :func:`_execute` outcome; ``fields`` name
        the item in its ``run`` record."""
        status = outcome["status"]
        if status == "ok":
            self.result.set(name, outcome["value"])
            self.cached += cache == "hit"
        else:
            kind = FAIL_CACHE if cache == "corrupt" else _FAIL_KINDS.get(
                status, FAIL_ERROR)
            self.result.failures.append(
                CellFailure(name, kind, outcome["error"], attempt))
        self.done += 1
        self.emit("run", grid=self.grid, **fields, status=status,
                  cache=cache, wall_s=outcome["wall_s"],
                  worker=outcome.get("worker"), attempt=attempt,
                  error=outcome.get("error"),
                  traceback=outcome.get("traceback"),
                  done=self.done, cells=self.total)

    def end(self):
        result = self.result
        self.emit("grid-end", grid=self.grid, ok=len(result.cells),
                  failed=len(result.failures), cached=self.cached,
                  wall_s=round(time.perf_counter() - self.started, 4))
        return result


#: CellFailure kind per failed outcome status (cache corruption aside).
_FAIL_KINDS = {"timeout": FAIL_TIMEOUT, "crash": FAIL_CRASH}


def _raise_timeout(signum, frame):
    raise RunTimeoutError("per-run timeout expired")


class _deadline:
    """SIGALRM-based timeout; a no-op when disabled, where ``SIGALRM``
    does not exist, or off the main thread (which alone may set signal
    handlers)."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.armed = False

    def __enter__(self):
        if (self.seconds and hasattr(signal, "SIGALRM")
                and threading.current_thread() is threading.main_thread()):
            self._previous = signal.signal(signal.SIGALRM, _raise_timeout)
            signal.setitimer(signal.ITIMER_REAL, self.seconds)
            self.armed = True
        return self

    def __exit__(self, *exc_info):
        if self.armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        return False


def _execute(name, job, timeout, fault_hook):
    """Run one grid item — a cell's computation or a task — in this
    process: ``fault_hook(name)``, then ``job()``, under the per-item
    deadline.  Pool workers run it too.

    Always returns an outcome dict: failures travel as data, not as
    exceptions, so neither a grid nor a worker pool breaks on a mere
    simulation error.
    """
    started = time.perf_counter()
    outcome = {"worker": os.getpid()}
    try:
        with _deadline(timeout):
            if fault_hook is not None:
                fault_hook(name)
            outcome.update(status="ok", value=job())
    except RunTimeoutError as exc:
        outcome.update(status="timeout", error=str(exc))
    except Exception as exc:  # items run arbitrary code: report, go on
        outcome.update(status="error", error=f"{type(exc).__name__}: {exc}",
                       traceback=traceback.format_exc(limit=8))
    outcome["wall_s"] = round(time.perf_counter() - started, 4)
    return outcome


def _build_trace(suite_name, pipeline):
    image = build_db_image(instrs_per_pyop=pipeline.instrs_per_pyop)
    suite = build_suite(
        suite_name,
        scale=pipeline.scale,
        quantum_rows=pipeline.quantum_rows,
        seed=pipeline.seed,
    )
    tracer = Tracer(image)
    results = tracer.run(suite.run)
    trace = expand_trace(tracer.trace, image, pipeline.expansion)
    query_rows = {name: len(rows) for name, rows in results.items()}
    pool_stats = suite.database.storage.pool.stats()
    return freeze_image(image), trace, query_rows, pool_stats


def _make_prefetcher(spec, layout, cghc_name):
    if spec is None:
        return None
    kind = spec[0]
    if kind == "nl":
        return NextNLinePrefetcher(spec[1])
    if kind == "t-nl":
        return TaggedNLPrefetcher(spec[1])
    if kind == "ra-nl":
        return RunAheadNLPrefetcher(spec[1], spec[2])
    if kind == "cgp":
        return CgpPrefetcher(spec[1], cghc_variant(cghc_name), layout)
    raise ConfigError(f"unknown prefetcher spec {spec!r}")
