"""Run telemetry: a JSONL journal plus live progress reporting.

Every grid submitted through the experiment engine can stream one JSON
object per line to a **run journal**.  The journal is the ground truth
for benchmarking and post-mortems: it records, per simulation cell, the
wall time, which worker process ran it, whether the durable cache hit,
and the run's ``SimStats.summary()``.

Journal record kinds (the ``event`` field):

* ``grid-start`` — ``{grid, cells, max_workers}``
* ``run`` — one cell finished:
  ``{grid, key, suite, layout, prefetcher, perfect, cghc, status,
  cache, wall_s, worker, attempt, summary | error, traceback}``
  where ``status`` is ``ok`` / ``error`` / ``timeout`` / ``crash`` and
  ``cache`` is ``hit`` / ``miss`` / ``corrupt``; a task's record names
  it by ``label`` alone.
* ``grid-end`` — ``{grid, ok, failed, cached, wall_s}``
* ``interval`` — one windowed time-series sample from the simulator
  observability layer (see :mod:`repro.obsv.interval`)
* ``workload-build`` — a suite was traced from scratch (cache miss),
  with the buffer pool's access statistics for the build

All events additionally carry ``ts`` (UNIX seconds), ``pid`` (the
writer, i.e. the coordinating process), and ``schema_version`` so
readers of mixed-generation journals can dispatch on record layout.
"""

from __future__ import annotations

import json
import os
import sys
import time

#: Version stamped into every journal record by :meth:`RunJournal.write`.
JOURNAL_SCHEMA_VERSION = 1


class RunJournal:
    """Append-only JSONL journal; one instance per coordinating process.

    Safe to point several sequential grids at the same file; the
    ``grid`` field disambiguates.  Opened lazily and flushed per line so
    a crash loses at most the in-flight record.
    """

    def __init__(self, path):
        self.path = path
        self._fh = None

    def _handle(self):
        if self._fh is None:
            directory = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(directory, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        return self._fh

    def write(self, event, **fields):
        """Append one record and flush it.

        **Single-writer contract:** a journal file has exactly one
        writing ``RunJournal`` (one coordinating process) at a time.
        Worker processes never write — they return results to the
        coordinator, which journals them.  Appends from two handles
        would interleave partial lines on some platforms; nothing here
        locks the file.  Concurrent *readers* are fine (and should use
        :func:`read_journal`, which tolerates a trailing partial line
        from a live writer or a crash).
        """
        record = {"ts": round(time.time(), 3), "pid": os.getpid(),
                  "schema_version": JOURNAL_SCHEMA_VERSION, "event": event}
        record.update(fields)
        fh = self._handle()
        fh.write(json.dumps(record, sort_keys=True) + "\n")
        fh.flush()
        return record

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    @staticmethod
    def read(path):
        """Parse a journal back into a list of records.

        Strict: raises on any malformed line.  Use :func:`read_journal`
        for journals that may carry truncated lines (live writer,
        crashed run, filesystem hiccup).
        """
        records = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
        return records


def read_journal(path):
    """Parse a journal, skipping corrupt lines instead of raising.

    Returns ``(records, corrupt)`` where ``corrupt`` counts lines that
    were not valid JSON objects — typically a record truncated by a
    crash mid-``write``, which the append-only format confines to the
    end of the file (but any interior damage is skipped and counted the
    same way).
    """
    records = []
    corrupt = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                corrupt += 1
                continue
            if isinstance(record, dict):
                records.append(record)
            else:
                corrupt += 1
    return records, corrupt


def progress_printer(stream=None):
    """A progress callback that renders one line per completed cell.

    Wire it into an engine:  ``ParallelRunner(..., progress=progress_printer())``.
    The benchmark suite's runner (``benchmarks/conftest.py``) does so
    under ``REPRO_PROGRESS=1``, which ``scripts/run_benchmarks.sh``
    sets for live output under long grid runs.
    """
    out = stream if stream is not None else sys.stderr

    def callback(event):
        kind = event.get("event")
        if kind == "grid-start":
            out.write(
                f"[grid {event.get('grid', '?')}] "
                f"{event['cells']} cells, "
                f"max_workers={event.get('max_workers', 1)}\n"
            )
        elif kind == "run":
            done = event.get("done", "?")
            total = event.get("cells", "?")
            status = event["status"]
            cell = event.get("label") or event.get("key", "")[:12]
            extra = (
                f"{event.get('wall_s', 0):.2f}s {event.get('cache', '')}"
                if status == "ok"
                else str(event.get("error", ""))[:80]
            )
            out.write(f"  [{done}/{total}] {cell}: {status} {extra}\n")
        elif kind == "workload-build":
            pool = event.get("buffer_pool") or {}
            out.write(
                f"[build {event.get('suite', '?')}] "
                f"scale={event.get('scale', '?')} "
                f"pool: {pool.get('hits', 0)} hits / "
                f"{pool.get('misses', 0)} misses / "
                f"{pool.get('evictions', 0)} evictions "
                f"(hit rate {pool.get('hit_rate', 0.0):.3f})\n"
            )
        elif kind == "grid-end":
            out.write(
                f"[grid {event.get('grid', '?')}] done: "
                f"{event['ok']} ok, {event['failed']} failed, "
                f"{event['cached']} cached, {event['wall_s']:.2f}s\n"
            )
        out.flush()

    return callback


def journal_grid_summary(records, grid=None):
    """Aggregate journal records into per-grid timing/cache statistics."""
    summary = {}
    for record in records:
        if record.get("event") != "run":
            continue
        name = record.get("grid", "?")
        if grid is not None and name != grid:
            continue
        bucket = summary.setdefault(
            name,
            {"runs": 0, "ok": 0, "failed": 0, "cache_hits": 0,
             "wall_s": 0.0, "workers": set()},
        )
        bucket["runs"] += 1
        bucket["wall_s"] += record.get("wall_s", 0.0)
        if record.get("status") == "ok":
            bucket["ok"] += 1
        else:
            bucket["failed"] += 1
        if record.get("cache") == "hit":
            bucket["cache_hits"] += 1
        if "worker" in record:
            bucket["workers"].add(record["worker"])
    for bucket in summary.values():
        bucket["workers"] = sorted(bucket["workers"])
    return summary
