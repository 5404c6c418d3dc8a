"""Execution profiles: call-edge weights and function heat from traces.

This is the feedback information OM consumes (the paper generated it by
running wisc-prof and wisc+tpch and merging the two profiles, §5.1).
"""

from __future__ import annotations

from collections import Counter

import numpy as _np

from repro.instrument.trace import CALL, EXEC


def _tally(counter, columns, weights=None):
    """Add to ``counter`` how often each distinct key occurs (or the sum
    of its ``weights``), new keys in the order they first occur.

    A key is one element of ``columns[0]``, or the tuple of one element
    from each column.  Keys and totals are Python ints, as per-event
    counting gives them.
    """
    if not columns[0].size:
        return
    order = _np.lexsort(columns[::-1])  # stable: ties keep trace order
    ordered = [column[order] for column in columns]
    starts = _np.zeros(order.size, dtype=bool)
    starts[0] = True
    for column in ordered:
        starts[1:] |= column[1:] != column[:-1]
    first = _np.flatnonzero(starts)
    if weights is None:
        totals = _np.diff(first, append=order.size)
    else:
        running = _np.cumsum(weights[order])
        totals = _np.diff(running[_np.append(first[1:], order.size) - 1],
                          prepend=0)
    seen = _np.argsort(order[first])
    keys = [column[first][seen].tolist() for column in ordered]
    counter.update(dict(zip(keys[0] if len(keys) == 1 else zip(*keys),
                            totals[seen].tolist())))


class CallGraphProfile:
    """Aggregated profile over one or more traces."""

    def __init__(self):
        self.edge_counts = Counter()  # (caller_fid, callee_fid) -> calls
        self.call_counts = Counter()  # callee_fid -> calls
        self.instr_counts = Counter()  # fid -> dynamic instructions

    def add_trace(self, trace):
        n = len(trace)
        kinds = _np.frombuffer(trace.kinds, dtype=_np.int8, count=n)
        a = _np.frombuffer(trace.a, dtype=_np.int64, count=n)
        b = _np.frombuffer(trace.b, dtype=_np.int64, count=n)
        c = _np.frombuffer(trace.c, dtype=_np.int64, count=n)
        call = kinds == CALL
        callee = a[call]
        caller = b[call]
        known = caller >= 0
        ex = kinds == EXEC
        _tally(self.call_counts, (callee,))
        _tally(self.edge_counts, (caller[known], callee[known]))
        _tally(self.instr_counts, (a[ex],), _np.abs(c[ex] - b[ex]) + 1)
        return self

    def merge(self, other):
        """Fold another profile in (the paper merges two profile runs)."""
        self.edge_counts.update(other.edge_counts)
        self.call_counts.update(other.call_counts)
        self.instr_counts.update(other.instr_counts)
        return self

    def hottest_functions(self, n=10):
        return self.instr_counts.most_common(n)

    def callee_fanout(self):
        """Distinct-callee count per caller (paper §3.2: 80% call < 8)."""
        fanout = Counter()
        for (caller, _callee), _count in self.edge_counts.items():
            fanout[caller] += 1
        return dict(fanout)

    def fraction_with_fanout_below(self, limit=8):
        """Fraction of calling functions with fewer than ``limit`` distinct
        callees (the paper's ATOM statistic)."""
        fanout = self.callee_fanout()
        if not fanout:
            return 1.0
        small = sum(1 for count in fanout.values() if count < limit)
        return small / len(fanout)


def profile_of(*traces):
    """Build a profile from traces."""
    profile = CallGraphProfile()
    for trace in traces:
        profile.add_trace(trace)
    return profile
