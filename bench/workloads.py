"""The benchmark's four workloads.

Three *replay* workloads regenerate a figure grid the way a user does:
a fresh :class:`ExperimentRunner`, ``artifacts()`` (build the database,
run the queries under the tracer, expand, profile, lay out), one compile
per layout, then ``run_grid`` -- or, for the attribution workload,
``simulate(collector=...)`` per cell.  One *serving* workload drives the
SQL server closed loop with two connections.

Every workload offers the same four calls:

* ``round()`` -- one cold, untraced round; returns its timings;
* ``traced(spans)`` -- the same round with a span around each call into
  a layer, plus the layer measurements that need extra work (direct
  database path, sharded and parallel replay, collector overhead);
  returns the layer counters;
* ``oracle()`` -- checks every output the rounds produced; returns
  ``attempted``/``failed``/``errors``;
* ``describe()`` -- sizes, cells and event counts for the result file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import replace

from repro.db import Database
from repro.db.parser import ast_nodes as ast
from repro.db.parser.parser import parse
from repro.db.server import ServerConfig, SqlServer
from repro.errors import ConnectionLost, ServerBusy, TransientError
from repro.harness import (
    ExperimentRunner,
    ParallelRunner,
    PipelineConfig,
    RunSpec,
    WorkloadArtifacts,
)
from repro.harness.runner import _make_prefetcher
from repro.instrument import Tracer, build_db_image
from repro.instrument.codeimage import freeze_image
from repro.instrument.expand import expand_trace
from repro.layout import o5_layout, om_layout, profile_of
from repro.obsv import AttributionCollector, validate_payload
from repro.uarch import TABLE_1, replay_sharded, simulate
from repro.uarch.fast_engine import FastFetchEngine, clear_compile_cache
from repro.workloads import wisconsin
from repro.workloads.suites import build_suite

NAMES = ("cgp-wisc", "nl-large", "attrib-wisc", "serve-oltp")

#: Scratch space inside the benchmark's own directory (the benchmark
#: reads and writes nothing outside its checkout).
WORK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")

CGHC = "CGHC-2K+32K"

#: (layout, prefetcher spec, perfect I-cache, CGHC variant) per cell.
CGP_CELLS = [
    ("O5", ("cgp", 4), False, CGHC),
    ("OM", ("cgp", 2), False, CGHC),
] + [
    ("OM", ("cgp", 4), False, cghc)
    for cghc in ("CGHC-1K", "CGHC-32K", "CGHC-1K+16K", "CGHC-2K+32K",
                 "CGHC-Inf")
]
NL_CELLS = [
    ("O5", None, False, CGHC),
    ("OM", None, False, CGHC),
    ("OM", ("nl", 2), False, CGHC),
    ("OM", ("nl", 4), False, CGHC),
    ("OM", None, True, CGHC),
]
ATTRIB_CELLS = [
    ("OM", ("nl", 4), False, CGHC),
    ("OM", ("cgp", 4), False, CGHC),
]

#: Collector settings of the attribution workload: the interval sampler
#: at 50k instructions and scripts/report_attrib.py's lifecycle ring.
ATTRIB_INTERVAL = 50_000
ATTRIB_LIFECYCLE = 4096

#: Client-side retries of one statement after retryable server errors
#: (the server itself retries lock conflicts first).
CLIENT_RETRIES = 20


def make(name, seed, quick=False):
    """The workload ``name`` at benchmark size, or at smoke size."""
    if name == "cgp-wisc":
        return ReplayWorkload(name, "wisc-prof", 0.05 if quick else 0.5,
                              CGP_CELLS, seed, scale_out=True)
    if name == "nl-large":
        return ReplayWorkload(name, "wisc-large-2", 0.01 if quick else 0.05,
                              NL_CELLS, seed)
    if name == "attrib-wisc":
        return ReplayWorkload(name, "wisc-prof", 0.05 if quick else 0.5,
                              ATTRIB_CELLS, seed, observed=True)
    if name == "serve-oltp":
        if quick:
            return ServeWorkload(name, seed, tuples=2000, onek=200, oltp=400)
        return ServeWorkload(name, seed, tuples=20000, onek=2000, oltp=5000)
    raise ValueError(f"unknown workload {name!r}; pick from {NAMES}")


def percentile(values, q):
    """Nearest-rank ``q``-th percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def digest(value):
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


def _tallied(spans, name, fn):
    def call(*args, **kwargs):
        with spans.tally(name):
            return fn(*args, **kwargs)
    return call


def _timings(start, setup_end, end, work, latencies):
    """The round's end-to-end numbers: ``work`` per host second of the
    work phase, and each request's latency in seconds, in the same
    request order every round."""
    return {
        "setup_s": setup_end - start,
        "regen_s": end - start,
        "throughput_per_s": work / (end - setup_end),
        "latency_p50_ms": 1e3 * percentile(latencies, 50),
        "latency_p99_ms": 1e3 * percentile(latencies, 99),
        "latencies": latencies,
    }


# ----------------------------------------------------------------------
# replay workloads
# ----------------------------------------------------------------------


def cell_label(spec):
    label = spec.label()
    if spec.prefetcher and spec.prefetcher[0] == "cgp":
        label += "/" + spec.cghc
    return label


def cell_kind(spec):
    if spec.perfect:
        return "perfect"
    if spec.prefetcher is None:
        return "nopf"
    return spec.prefetcher[0]


def compile_layout(trace, layout, config):
    """Compile ``trace`` for ``layout`` into the engine's compile cache.

    A zero-event replay compiles and caches the trace without replaying
    anything, so the grid's cells start from the compiled image."""
    FastFetchEngine(config, layout).run_range(trace, 0, 0)


def replay(config, art, spec, engine=None, collector=None):
    """One cell, as ``ExperimentRunner.compute_spec`` runs it."""
    layout = art.layout(spec.layout)
    if spec.perfect:
        config = replace(config, perfect_icache=True)
    return simulate(
        art.trace, layout, config,
        prefetcher=_make_prefetcher(spec.prefetcher, layout, spec.cghc),
        engine=engine, collector=collector,
    )


def new_collector(art, spec):
    return AttributionCollector(
        art.layout(spec.layout), image=art.image,
        interval=ATTRIB_INTERVAL, lifecycle=ATTRIB_LIFECYCLE,
    )


def sim_counters(cells):
    """Exact simulated counts summed over a grid's cells."""
    stats = [cell["stats"] for cell in cells.values()]

    def total(key):
        return sum(s[key] for s in stats)

    def prefetch(origin=None):
        issued = useful = 0
        for s in stats:
            for name, p in s["prefetch"].items():
                if origin in (None, name):
                    issued += p["issued"]
                    useful += p["pref_hits"] + p["delayed_hits"]
        return issued, useful

    issued, useful = prefetch()
    cghc_issued, cghc_useful = prefetch("cghc")
    probes = (total("cghc_l1_hits") + total("cghc_l2_hits")
              + total("cghc_misses"))
    return {
        "uarch.demand_misses": total("demand_misses"),
        "uarch.stall_frac": total("stall_cycles") / total("cycles"),
        "uarch.prefetch_issued": issued,
        "uarch.prefetch_useful_frac": useful / issued if issued else 0.0,
        "core.cghc_probes": probes,
        "core.cghc_l1_hit_frac":
            total("cghc_l1_hits") / probes if probes else 0.0,
        "core.cgp_cghc_useful_frac":
            cghc_useful / cghc_issued if cghc_issued else 0.0,
    }


class ReplayWorkload:
    """Regenerate one figure grid from scratch, through the user path."""

    kind = "replay"

    def __init__(self, name, suite, scale, cells, seed, observed=False,
                 scale_out=False):
        self.name = name
        self.suite = suite
        self.scale = scale
        self.seed = seed
        self.specs = [RunSpec(suite, layout, pf, perfect, cghc)
                      for layout, pf, perfect, cghc in cells]
        self.pipeline = PipelineConfig(seed=seed)
        self.observed = observed
        self.scale_out = scale_out
        self.layouts = list(dict.fromkeys(s.layout for s in self.specs))
        self.outputs = []  # per round: cell label -> stats (+ payload)
        self.checks = []  # (what, ok) from the traced pass
        self.errors = []  # cells that raised instead of returning stats
        self.events = None
        self.request_kinds = None  # requests are cells, in self.specs order
        self._last = None  # (runner, artifacts) of the latest round

    def describe(self):
        return {
            "kind": self.kind, "suite": self.suite, "scale": self.scale,
            "seed": self.seed, "events": self.events,
            "cells": [cell_label(s) for s in self.specs],
            "collector": ({"interval": ATTRIB_INTERVAL,
                           "lifecycle": ATTRIB_LIFECYCLE}
                          if self.observed else None),
        }

    def _runner(self, **kwargs):
        return ExperimentRunner(pipeline=self.pipeline,
                                scales={self.suite: self.scale}, **kwargs)

    def round(self):
        self._last = None  # let the previous round's artifacts go first
        clear_compile_cache()
        marks = []

        def progress(record):
            if record["event"] in ("grid-start", "run"):
                marks.append(time.perf_counter())

        start = time.perf_counter()
        runner = self._runner(progress=progress)
        art = runner.artifacts(self.suite)
        for name in self.layouts:
            compile_layout(art.trace, art.layout(name), runner.sim_config)
        setup_end = time.perf_counter()
        cells = {}
        if self.observed:
            latencies = []
            for spec in self.specs:
                began = time.perf_counter()
                try:
                    collector = new_collector(art, spec)
                    stats = replay(runner.sim_config, art, spec,
                                   collector=collector)
                    payload = validate_payload(collector.to_dict())
                except Exception as exc:  # like run_grid: keep going
                    self.errors.append(f"{cell_label(spec)}: "
                                       f"{type(exc).__name__}: {exc}")
                else:
                    cells[cell_label(spec)] = {"stats": stats,
                                               "payload": payload}
                latencies.append(time.perf_counter() - began)
        else:
            grid = runner.run_grid(self.specs, grid=self.name)
            cells = {cell_label(s): {"stats": grid[s]}
                     for s in self.specs if s in grid}
            latencies = [b - a for a, b in zip(marks, marks[1:])]
            self.errors.extend(grid.failure_report())
        end = time.perf_counter()
        for cell in cells.values():
            cell["stats"] = cell["stats"].to_dict()
        self._last = (runner, art)
        self.events = len(art.trace)
        self.outputs.append(cells)
        instructions = sum(c["stats"]["instructions"] for c in cells.values())
        return dict(_timings(start, setup_end, end, instructions, latencies),
                    digest=digest(cells))

    # ------------------------------------------------------------------
    def traced(self, spans):
        """The round again, stage by stage, as ``_build_trace`` and
        ``_load_or_build`` in :mod:`repro.harness.runner` run it."""
        p = replace(self.pipeline, scale=self.scale)
        config = TABLE_1
        clear_compile_cache()
        cells = {}
        with spans.span("harness.round"):
            with spans.span("harness.setup"):
                with spans.span("instrument.image"):
                    image = build_db_image(instrs_per_pyop=p.instrs_per_pyop)
                with spans.span("workloads.build"):
                    suite = build_suite(self.suite, scale=p.scale,
                                        quantum_rows=p.quantum_rows,
                                        seed=p.seed)
                tracer = Tracer(image)
                with spans.span("instrument.trace"):
                    results = tracer.run(suite.run)
                with spans.span("instrument.expand"):
                    trace = expand_trace(tracer.trace, image, p.expansion)
                    frozen = freeze_image(image)
                with spans.span("layout.profile"):
                    profile = profile_of(trace)
                with spans.span("layout.layout"):
                    layouts = {"O5": o5_layout(frozen),
                               "OM": om_layout(frozen, profile)}
                art = WorkloadArtifacts(
                    self.suite, frozen, trace, profile, layouts,
                    {name: len(rows) for name, rows in results.items()})
                for name in self.layouts:
                    with spans.span("uarch.compile", layout=name):
                        compile_layout(trace, layouts[name], config)
            with spans.span("harness.work"):
                for spec in self.specs:
                    label = cell_label(spec)
                    if self.observed:
                        collector = new_collector(art, spec)
                        with spans.span("obsv.replay", cell=label):
                            stats = replay(config, art, spec,
                                           collector=collector)
                        with spans.span("obsv.payload", cell=label):
                            payload = validate_payload(collector.to_dict())
                        cells[label] = {"stats": stats.to_dict(),
                                        "payload": payload}
                    else:
                        with spans.span("uarch.replay_" + cell_kind(spec),
                                        cell=label):
                            stats = replay(config, art, spec)
                        cells[label] = {"stats": stats.to_dict()}
        self.outputs.append(cells)

        storage = suite.database.storage
        counters = sim_counters(cells)
        counters.update({
            "instrument.raw_events": len(tracer.trace),
            "instrument.events": len(trace),
            "db.storage.pool_hit_frac": storage.pool.stats()["hit_rate"],
            "db.storage.log_forces": storage.log.forces,
        })
        self._direct(spans, suite, results)
        if self.observed:
            replayed = spans.busy("obsv.replay")
            with spans.span("obsv.baseline"):
                for spec in self.specs:
                    with spans.span("obsv.baseline_replay",
                                    cell=cell_label(spec)):
                        replay(config, art, spec)
            counters["obsv.overhead_x"] = (
                replayed / spans.busy("obsv.baseline_replay"))
        if self.scale_out:
            counters["uarch.shard2_speedup"] = self._shard2(spans, art,
                                                            config)
            counters["harness.parallel2_speedup"] = self._parallel2(spans)
        return counters

    def _direct(self, spans, suite, results):
        """The suite's queries once more on the same (read-only, so
        unchanged) database, untraced: parse, plan, drain, commit."""
        db = suite.database
        with spans.span("db.direct"):
            for name, sql, hints in suite.queries:
                with spans.tally("db.parser.parse"):
                    stmt = parse(sql)
                txn = db.storage.begin()
                with spans.tally("db.optimizer.plan"):
                    plan = db.plan_statement(stmt, txn, hints=hints)
                with spans.tally("db.exec.rows"):
                    rows = list(plan.rows())
                with spans.tally("db.storage.commit"):
                    txn.commit()
                self.checks.append((
                    f"direct-path rows of {name}",
                    sorted(rows) == sorted(results[name])))

    def _shard2(self, spans, art, config):
        """Sharded replay of the heaviest cell on two worker processes
        against a plain single-process replay of it."""
        cells = [r for r in spans.records
                 if r["name"].startswith("uarch.replay_")]
        label = max(cells, key=lambda r: r["busy"])["attrs"]["cell"]
        spec = next(s for s in self.specs if cell_label(s) == label)
        layout = art.layout(spec.layout)
        with spans.span("uarch.shard2", cell=label):
            with spans.span("uarch.shard2_single"):
                single = replay(config, art, spec)
            with spans.span("uarch.shard2_sharded"):
                merged = replay_sharded(
                    art.trace, layout, config,
                    prefetcher=_make_prefetcher(spec.prefetcher, layout,
                                                spec.cghc),
                    n_shards=2, runner=ParallelRunner(max_workers=2),
                )
        self.checks.append((f"sharded stats of {label}",
                            merged.to_dict() == single.to_dict()))
        return (spans.busy("uarch.shard2_single")
                / spans.busy("uarch.shard2_sharded"))

    def _parallel2(self, spans):
        """The grid through ParallelRunner(max_workers=2) against serial
        run_grid; both start with built artifacts and a cold compile
        cache (the parallel runner's workers load theirs from disk)."""
        os.makedirs(WORK_DIR, exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="parallel2-", dir=WORK_DIR)
        try:
            serial = self._runner()
            serial.artifacts(self.suite)
            parallel = ParallelRunner(
                pipeline=self.pipeline, scales={self.suite: self.scale},
                cache_dir=cache_dir, max_workers=2)
            parallel.artifacts(self.suite)
            with spans.span("harness.parallel2"):
                clear_compile_cache()
                with spans.span("harness.parallel2_serial"):
                    one = serial.run_grid(self.specs)
                clear_compile_cache()
                with spans.span("harness.parallel2_parallel"):
                    two = parallel.run_grid(self.specs)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
            try:
                os.rmdir(WORK_DIR)
            except OSError:
                pass  # other scratch files are still in use
        same = one.ok and two.ok and all(
            one[s].to_dict() == two[s].to_dict() for s in self.specs)
        self.checks.append(("parallel grid stats", same))
        return (spans.busy("harness.parallel2_serial")
                / spans.busy("harness.parallel2_parallel"))

    # ------------------------------------------------------------------
    def oracle(self):
        """Every cell of every round against one replay through the
        reference engine (attribution payloads too), plus the traced
        pass's own checks."""
        runner, art = self._last
        config = runner.sim_config
        attempted = failed = 0
        errors = list(self.errors)
        for spec in self.specs:
            label = cell_label(spec)
            if self.observed:
                collector = new_collector(art, spec)
                stats = replay(config, art, spec, engine="reference",
                               collector=collector)
                want = {"stats": stats.to_dict(),
                        "payload": validate_payload(collector.to_dict())}
            else:
                want = {"stats": replay(config, art, spec,
                                        engine="reference").to_dict()}
            for number, cells in enumerate(self.outputs):
                attempted += 1
                if cells.get(label) != want:
                    failed += 1
                    errors.append(f"round {number}: {label} differs from "
                                  "the reference engine")
        for what, ok in self.checks:
            attempted += 1
            if not ok:
                failed += 1
                errors.append(f"{what} differ")
        return {"attempted": attempted, "failed": failed, "errors": errors}


# ----------------------------------------------------------------------
# serving workload
# ----------------------------------------------------------------------


class Stmt:
    """One client statement and what acknowledging it must show."""

    __slots__ = ("kind", "sql", "expect", "key", "value")

    def __init__(self, kind, sql, expect=None, key=None, value=None):
        self.kind = kind  # point | update | insert | scan
        self.sql = sql
        self.expect = expect  # rows returned (SELECT) or affected (DML)
        self.key = key  # onek unique2 written by an UPDATE/INSERT
        self.value = value  # the onek.twenty value that write leaves


def _size(stmt, result):
    if stmt.kind in ("update", "insert"):
        return result.rows[0][0]
    return len(result.rows)


def _onek_row(key):
    """A Wisconsin row for a fresh key, derived as generate_rows does."""
    ints = (key, key, key % 2, key % 4, key % 10, key % 20, key % 100,
            key % 10, key % 5, key % 2, key, (key % 100) * 2,
            (key % 100) * 2 + 1)
    text = f"K{key:07d}"
    return ", ".join([str(v) for v in ints]
                     + [f"'{text}'", f"'{text}'", "'AAAA'"])


class ServeWorkload:
    """Closed-loop SQL serving over Wisconsin tables, two connections.

    The ``oltp`` connection sends point reads on tenk1/tenk2 through
    both B-trees and the hash index (85%), single-row UPDATEs on onek
    (5%) and INSERTs into onek (10%).  The ``analytics`` connection
    sends one statement per 50 of those: alternately a 1% index range on
    tenk1 and a 10% selection on onek, so writes sit beside reads on the
    same table and no-wait 2PL conflicts are retried.
    """

    kind = "serve"

    def __init__(self, name, seed, tuples, onek, oltp):
        self.name = name
        self.seed = seed
        self.tuples = tuples
        self.onek = onek
        rng = random.Random(f"{name}:{seed}")
        self.streams = {"oltp": [], "analytics": []}
        next_key = onek
        for i in range(oltp):
            draw = rng.random()
            if draw < 0.85:
                table = rng.choice(("tenk1", "tenk2"))
                column = rng.choice(("unique2", "unique1", "unique3"))
                stmt = Stmt("point", f"SELECT * FROM {table} WHERE "
                            f"{column} = {rng.randrange(tuples)}", expect=1)
            elif draw < 0.90:
                key = rng.randrange(onek)
                stmt = Stmt("update", f"UPDATE onek SET twenty = {i} "
                            f"WHERE unique2 = {key}", 1, key, i)
            else:
                key, next_key = next_key, next_key + 1
                stmt = Stmt("insert", "INSERT INTO onek VALUES "
                            f"({_onek_row(key)})", 1, key, key % 20)
            self.streams["oltp"].append(stmt)
        width = tuples // 100
        for i in range(oltp // 50):
            if i % 2 == 0:
                low = rng.randrange(tuples - width + 1)
                stmt = Stmt("scan", "SELECT * FROM tenk1 WHERE unique2 "
                            f"BETWEEN {low} AND {low + width - 1}", width)
            else:
                stmt = Stmt("scan", "SELECT * FROM onek WHERE ten = "
                            f"{rng.randrange(10)}")
            self.streams["analytics"].append(stmt)
        #: every statement in a fixed order: latencies are reported in it
        self.requests = [s for stream in self.streams.values() for s in stream]
        self.request_kinds = [s.kind for s in self.requests]
        self.statements = len(self.requests)
        self.outputs = []  # per round: attempted/failed/errors/digest
        self.checks = []

    def describe(self):
        return {
            "kind": self.kind, "seed": self.seed,
            "tables": {"tenk1": self.tuples, "tenk2": self.tuples,
                       "onek": self.onek},
            "connections": {name: len(s) for name, s in self.streams.items()},
            "statements": dict(Counter(self.request_kinds)),
            "server": "SqlServer(workers=0), closed loop",
        }

    def _build(self, spans=None):
        """The database; with ``spans``, wisconsin.setup's steps one by
        one, each in a span.  The pool is the traced ``serving``
        workload's 512 pages, so the ~2000 pages of tables outgrow it
        (the replay workloads' databases fit in theirs)."""
        db = Database(pool_pages=512)
        if spans is None:
            wisconsin.setup(db, n_tuples=self.tuples, onek_tuples=self.onek,
                            seed=self.seed, hash_unique3=True)
            return db
        sizes = {"tenk1": self.tuples, "tenk2": self.tuples, "onek": self.onek}
        for i, (name, size) in enumerate(sizes.items()):
            db.create_table(name, wisconsin.WISCONSIN_COLUMNS)
            with spans.span("db.storage.index", table=name):
                db.create_index(name, "unique2", clustered=True)
                db.create_index(name, "unique1", clustered=False)
                db.create_index(name, "unique3", kind="hash")
            with spans.span("db.storage.load", table=name):
                rows = wisconsin.generate_rows(size, self.seed + i)
                db.load_rows(name, rows)
            with spans.span("db.optimizer.analyze", table=name):
                db.analyze_table(name)
        return db

    def _serve(self, db):
        server = SqlServer(db, ServerConfig(
            workers=0, tenants={name: 1 for name in self.streams},
            seed=self.seed))
        return server, {name: server.connect(name) for name in self.streams}

    def _drive(self, server, conns, spans=None):
        """Both connections closed loop until their streams are done."""
        step = server.step
        submit = {name: conn.submit for name, conn in conns.items()}
        if spans is not None:
            step = _tallied(spans, "db.server.step", step)
            submit = {name: _tallied(spans, "db.server.submit", fn)
                      for name, fn in submit.items()}
        pending = {name: iter(stream) for name, stream in self.streams.items()}
        inflight = {}  # connection -> [ticket, stmt, first submit, retries]
        latency = {}  # id(stmt) -> first submit to completion, seconds
        acked = {}  # onek key -> onek.twenty after its last acked write
        sizes = []
        errors = []
        inserted = 0

        def issue(name, stmt, first, retries):
            try:
                ticket = submit[name](stmt.sql)
            except ServerBusy:
                ticket = None  # shed at admission: resubmit after a step
            inflight[name] = [ticket, stmt, first, retries]

        def advance(name):
            stmt = next(pending[name], None)
            if stmt is None:
                inflight.pop(name, None)
            else:
                issue(name, stmt, time.perf_counter(), 0)

        for name in self.streams:
            advance(name)
        steps = 0
        while inflight:
            steps += 1
            if steps > 50 * self.statements + 1000:
                errors.append("server did not drain the streams")
                break
            step()
            for name in list(inflight):
                ticket, stmt, first, retries = inflight[name]
                if ticket is None:
                    issue(name, stmt, first, retries + 1)
                    continue
                if not ticket.done:
                    continue
                done = time.perf_counter()
                try:
                    result = ticket.outcome()
                except Exception as exc:
                    if (isinstance(exc, TransientError)
                            and not isinstance(exc, ConnectionLost)
                            and retries < CLIENT_RETRIES):
                        issue(name, stmt, first, retries + 1)
                        continue
                    errors.append(f"{stmt.sql}: {type(exc).__name__}: {exc}")
                else:
                    sizes.append(_size(stmt, result))
                    if stmt.expect is not None and sizes[-1] != stmt.expect:
                        errors.append(f"{stmt.sql}: {sizes[-1]} rows, "
                                      f"expected {stmt.expect}")
                    if stmt.key is not None:
                        acked[stmt.key] = stmt.value
                        inserted += stmt.kind == "insert"
                latency[id(stmt)] = done - first
                advance(name)
        return {"latency": latency, "acked": acked, "sizes": sizes,
                "errors": errors, "inserted": inserted}

    def _state(self, db):
        return dict(db.execute("SELECT unique2, twenty FROM onek").rows)

    def _check(self, db, server, run):
        """Final state: the row count, and every written key showing its
        last acknowledged write."""
        state = self._state(db)
        errors = list(run["errors"])
        if len(state) != self.onek + run["inserted"]:
            errors.append(f"onek has {len(state)} rows, expected "
                          f"{self.onek + run['inserted']}")
        errors.extend(f"onek key {key} reads {state.get(key)}, last acked "
                      f"write was {value}"
                      for key, value in run["acked"].items()
                      if state.get(key) != value)
        stats = server.stats()
        self.outputs.append({
            "attempted": self.statements, "failed": len(errors),
            "errors": errors,
            "digest": digest([sorted(state.items()), run["sizes"],
                              stats["retries"], stats["quanta"]]),
        })
        return state

    def round(self):
        start = time.perf_counter()
        db = self._build()
        server, conns = self._serve(db)
        setup_end = time.perf_counter()
        run = self._drive(server, conns)
        end = time.perf_counter()
        self._check(db, server, run)
        latencies = [run["latency"].get(id(s), end - setup_end)
                     for s in self.requests]
        return dict(_timings(start, setup_end, end, len(run["sizes"]),
                             latencies),
                    digest=self.outputs[-1]["digest"])

    def traced(self, spans):
        with spans.span("harness.round"):
            with spans.span("harness.setup"):
                with spans.span("workloads.build"):
                    db = self._build(spans)
                with spans.span("db.server.start"):
                    server, conns = self._serve(db)
            with spans.span("harness.work"):
                run = self._drive(server, conns, spans)
        state = self._check(db, server, run)
        stats = server.stats()
        cache = stats["statement_cache"]
        storage = db.storage
        counters = {
            "db.server.quanta": stats["quanta"],
            "db.server.retries": stats["retries"],
            "db.server.shed": stats["shed"],
            "db.server.stmt_cache_hit_frac":
                cache["hits"] / (cache["hits"] + cache["misses"]),
            "db.storage.pool_hit_frac": storage.pool.stats()["hit_rate"],
            "db.storage.log_forces": storage.log.forces,
        }
        direct = self._direct(spans)
        self.checks.append(("direct-path final onek state",
                            direct == state))
        work = spans.find("harness.work")["busy"]
        layers = sum(spans.busy(name) for name in (
            "db.parser.parse", "db.optimizer.plan", "db.exec.rows",
            "db.exec.dml", "db.storage.commit"))
        counters["db.server.overhead_frac"] = 1.0 - layers / work
        return counters

    def _direct(self, spans):
        """The same statements on a fresh database with no server, one
        connection after the other: each layer's public call timed."""
        with spans.span("db.direct"):
            with spans.span("db.direct_build"):
                db = self._build()
            for stream in self.streams.values():
                for stmt in stream:
                    with spans.tally("db.parser.parse"):
                        parsed = parse(stmt.sql)
                    txn = db.storage.begin()
                    if isinstance(parsed, ast.SelectStmt):
                        with spans.tally("db.optimizer.plan"):
                            plan = db.plan_statement(parsed, txn)
                        with spans.tally("db.exec.rows"):
                            list(plan.rows())
                    else:
                        with spans.tally("db.exec.dml"):
                            db.execute_statement(parsed, txn=txn)
                    with spans.tally("db.storage.commit"):
                        txn.commit()
        return self._state(db)

    def oracle(self):
        attempted = sum(o["attempted"] for o in self.outputs)
        failed = sum(o["failed"] for o in self.outputs)
        errors = [e for o in self.outputs for e in o["errors"]]
        first = self.outputs[0]["digest"]
        for number, output in enumerate(self.outputs):
            if output["digest"] != first:
                failed += 1
                errors.append(f"round {number}: results differ from round 0")
        for what, ok in self.checks:
            attempted += 1
            if not ok:
                failed += 1
                errors.append(f"{what} differs")
        return {"attempted": attempted, "failed": failed, "errors": errors}
