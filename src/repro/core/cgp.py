"""Call Graph Prefetching — the paper's contribution (§3).

``CgpPrefetcher`` combines:

* a :class:`~repro.core.cghc.CallGraphHistoryCache` consulted on every
  predicted call and return (two accesses each: a prefetch access on the
  predicted target, an update access on the current function), and
* a next-N-line prefetcher for instructions *within* a function.

On a call F -> G (target predicted by the branch predictor):

1. prefetch access with G's start address: on a hit, prefetch the first
   N lines of G's first recorded callee (G's own body was prefetched
   earlier, when F's history predicted G);
2. update access with F's start address: store G at F's current index
   slot and advance the index.

On a return G -> F (F's start address from the modified RAS):

1. prefetch access with F: on a hit, prefetch the first N lines of the
   callee F's index points at — the function F will call next;
2. update access with G: reset G's index to 1.

Prefetches issue ``N`` (= ``lines_per_prefetch``) lines from the target
function's entry; the rest of its body is covered by the NL component
once it begins executing (§3.2: "CGP_N").  CGHC accesses are charged the
CGHC level's latency before the prefetch can issue.

A mispredicted call/return gives the CGHC nothing useful, so both
accesses are skipped (the history is neither read nor polluted).
"""

from __future__ import annotations

from repro.core.cghc import CallGraphHistoryCache
from repro.errors import ConfigError
from repro.uarch.prefetch.base import Prefetcher
from repro.uarch.prefetch.nl import NextNLinePrefetcher

ORIGIN_NL = "nl"
ORIGIN_CGHC = "cghc"


class CgpPrefetcher(Prefetcher):
    """CGP_N: CGHC across function boundaries + NL within them."""

    def __init__(self, lines_per_prefetch, cghc_config, layout):
        if lines_per_prefetch <= 0:
            raise ConfigError("CGP_N needs N >= 1")
        self.lines_per_prefetch = lines_per_prefetch
        self.cghc = CallGraphHistoryCache(cghc_config)
        self._entry = layout.base_line  # fid -> entry line (block 0 pinned)
        self._nl = NextNLinePrefetcher(lines_per_prefetch, origin=ORIGIN_NL)
        # on_line_access is exactly the NL component's automaton, so the
        # optimized replay core may inline its sequential fast path
        self.nl_component = self._nl
        self.name = f"CGP_{lines_per_prefetch}"

    def reset(self):
        self.cghc = CallGraphHistoryCache(self.cghc.config)
        self._nl.reset()

    # ------------------------------------------------------------------
    # within a function: plain NL
    # ------------------------------------------------------------------
    def on_line_access(self, line, engine):
        self._nl.on_line_access(line, engine)

    # ------------------------------------------------------------------
    # across functions: CGHC
    # ------------------------------------------------------------------
    def _ensure(self, tag, engine):
        """``cghc.ensure`` plus attribution: when the engine carries a
        collector, classify the access by which CGHC counter it moved
        (level 0 = first-level hit, 1 = second-level hit, 2 = miss).
        The tag is a function entry line, so the collector can charge
        the access to that function."""
        cghc = self.cghc
        # getattr: the engine protocol is duck-typed (tests and custom
        # harnesses pass minimal engine objects without a collector)
        collector = getattr(engine, "collector", None)
        if collector is None:
            return cghc.ensure(tag)
        l1_before = cghc.l1_hits
        l2_before = cghc.l2_hits
        result = cghc.ensure(tag)
        if cghc.l1_hits != l1_before:
            level = 0
        elif cghc.l2_hits != l2_before:
            level = 1
        else:
            level = 2
        collector.cghc_access(tag, level)
        return result

    def on_call(self, caller_fid, callee_fid, predicted, engine):
        if not predicted:
            return
        entry_lines = self._entry
        # access 1: prefetch access keyed by the predicted target G.  A
        # miss allocates a fresh (invalid-data) entry — §3.2: "if there
        # is no hit in the tag array, no prefetches are issued and a new
        # tag array entry is created".
        entry, latency = self._ensure(entry_lines[callee_fid], engine)
        first = entry.first_callee()
        if first is not None:
            engine.prefetch_function_head(
                first, self.lines_per_prefetch, ORIGIN_CGHC,
                delay=latency + 1,
            )
        # access 2: update access keyed by the current function F
        if caller_fid >= 0:
            entry, _latency = self._ensure(entry_lines[caller_fid], engine)
            entry.record_call(callee_fid, self.cghc.max_slots)

    def on_return(self, returning_fid, ras_entry, predicted, engine):
        if not predicted:
            return
        # access 1: prefetch access keyed by the caller's start address,
        # supplied by the modified return address stack (allocates on
        # miss, like every CGHC access)
        if ras_entry is not None:
            entry, latency = self._ensure(ras_entry.caller_start_line, engine)
            nxt = entry.predicted_next()
            if nxt is not None:
                engine.prefetch_function_head(
                    nxt, self.lines_per_prefetch, ORIGIN_CGHC,
                    delay=latency + 1,
                )
        # access 2: update access keyed by the returning function G;
        # a fresh entry's index is already 1
        entry, _latency = self._ensure(self._entry[returning_fid], engine)
        entry.reset_index()
