"""Prefetcher interface.

The fetch engine calls three hooks:

* ``on_line_access(line, engine)`` — a distinct I-cache line was fetched,
* ``on_call(caller_fid, callee_fid, predicted, engine)`` — a call
  retired; ``predicted`` is False when the branch predictor missed the
  target (prefetchers keyed off the predictor see nothing useful then),
* ``on_return(returning_fid, ras_entry, predicted, engine)`` — a return
  retired; ``ras_entry`` is the popped modified-RAS entry (or None).

Prefetchers issue through ``engine.issue_prefetch(line, origin, delay)``
and ``engine.prefetch_function_head(fid, n_lines, origin, delay)``.
"""

from __future__ import annotations


class Prefetcher:
    """Base: no prefetching (the paper's O5 / OM-only baselines)."""

    name = "none"

    def reset(self):
        """Clear any internal state between runs."""

    def on_line_access(self, line, engine):
        pass

    def on_call(self, caller_fid, callee_fid, predicted, engine):
        pass

    def on_return(self, returning_fid, ras_entry, predicted, engine):
        pass


NO_PREFETCH = Prefetcher()
