"""In-memory span recorder for the benchmark's traced pass.

Spans are recorded from outside the program: the benchmark opens one
around each call it makes into a layer's public functions.  A span has
a name, start, end, parent and workload.  Calls made once per statement
or per server step are *tallied*: every call with the same name under
the same parent folds into one record that keeps the first start, the
last end, the call count and the summed busy time, so a 5k-statement
round stays a handful of records.

A span's self time is its busy time minus the busy time of its children.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Spans:
    """Span tree of one workload's traced pass, kept in memory."""

    def __init__(self, workload):
        self.workload = workload
        self.records = []
        self._stack = []
        self._tallies = {}

    def _new(self, name, attrs):
        record = {
            "id": len(self.records),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "start": None,
            "end": None,
            "busy": 0.0,
            "count": 0,
        }
        if attrs:
            record["attrs"] = attrs
        self.records.append(record)
        return record

    @contextmanager
    def span(self, name, **attrs):
        """Time one call (or block) as a child of the open span."""
        record = self._new(name, attrs)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["busy"] = record["end"] - record["start"]
            record["count"] = 1
            self._stack.pop()

    @contextmanager
    def tally(self, name):
        """Time one of many repeated calls; they share one record."""
        key = (name, self._stack[-1] if self._stack else None)
        record = self._tallies.get(key)
        if record is None:
            record = self._tallies[key] = self._new(name, None)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            if record["start"] is None:
                record["start"] = start
            record["end"] = end
            record["busy"] += end - start
            record["count"] += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def children(self, record_id):
        return [r for r in self.records if r["parent"] == record_id]

    def find(self, name):
        """The first span with ``name`` (structural spans are unique)."""
        for record in self.records:
            if record["name"] == name:
                return record
        raise KeyError(name)

    def subtree(self, record_id):
        """Every record below ``record_id``, the record itself excluded."""
        out, frontier = [], [record_id]
        while frontier:
            kids = [r for r in self.records if r["parent"] in frontier]
            out.extend(kids)
            frontier = [r["id"] for r in kids]
        return out

    def busy(self, name, within=None):
        """Summed busy seconds of spans named ``name`` (optionally only
        those below the span ``within``)."""
        pool = self.records if within is None else self.subtree(within)
        return sum(r["busy"] for r in pool if r["name"] == name)

    def self_time(self, record):
        return record["busy"] - sum(
            child["busy"] for child in self.children(record["id"]))

    def to_json(self):
        """Records with times relative to the first span's start."""
        starts = [r["start"] for r in self.records if r["start"] is not None]
        origin = min(starts) if starts else 0.0
        out = []
        for record in self.records:
            row = dict(record)
            row["start"] = record["start"] - origin
            row["end"] = record["end"] - origin
            row["self"] = self.self_time(record)
            out.append(row)
        return out
