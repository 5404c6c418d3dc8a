"""Prefetch lifecycle tracing: issue -> arrival -> first use / eviction.

A :class:`PrefetchLifecycle` keeps one open record per in-flight-or-
untouched prefetched line (the engines guarantee at most one active
prefetch per line: a second request for the same line squashes) and
closes it on the first demand touch, on eviction, or at end of run.
Closed records land in a fixed-capacity ring buffer, so tracing a long
run costs bounded memory; overwritten records are counted in
``dropped``.

Cycle timestamps are the engine's own, so a record directly yields the
paper-style timeliness story: ``arrival - issue`` is the memory round
trip, ``use - issue`` the achieved lead time, and for delayed hits
``arrival - use`` is how late the prefetch was.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple


class PrefetchRecord(NamedTuple):
    line: int
    origin: str
    issue_cycle: float
    arrival_cycle: float
    outcome: str  # "pref_hit" | "delayed_hit" | "useless"
    end_cycle: float  # first-use cycle, eviction cycle, or end of run


class PrefetchLifecycle:
    """Ring-buffer tracer for individual prefetch lifetimes.

    The state is two plain containers, which the fast engine's kernels
    write directly: ``open`` maps each traced line to ``(origin,
    issue_cycle, arrival_cycle)`` in issue order, and ``ring`` holds
    the closed records as ``(line, open record, outcome, end_cycle)``,
    oldest first, dropping the oldest once full.
    """

    def __init__(self, capacity=4096):
        if capacity <= 0:
            raise ValueError("lifecycle ring capacity must be positive")
        self.capacity = capacity
        self.ring = deque(maxlen=capacity)
        self.open = {}
        self.recorded = 0

    @property
    def dropped(self):
        """Closed records overwritten by newer ones."""
        return self.recorded - len(self.ring)

    def issue(self, line, origin, issue_cycle, arrival_cycle):
        self.open[line] = (origin, issue_cycle, arrival_cycle)

    def close(self, line, outcome, end_cycle):
        opened = self.open.pop(line, None)
        if opened is None:
            return  # issued before tracing started; nothing to close
        self.ring.append((line, opened, outcome, end_cycle))
        self.recorded += 1

    def records(self):
        """Closed records, oldest first."""
        return [PrefetchRecord(line, *opened, outcome, end_cycle)
                for line, opened, outcome, end_cycle in self.ring]

    def open_count(self):
        return len(self.open)

    def summary(self):
        return {
            "capacity": self.capacity,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "open": len(self.open),
        }
