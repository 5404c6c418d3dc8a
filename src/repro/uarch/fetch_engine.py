"""The fetch-driven timing simulator.

Replays a trace under an address layout with a chosen prefetcher and the
paper's Table 1 memory hierarchy.  Timing model:

* every instruction costs ``1/fetch_width + base_cpi`` cycles (fetch
  bandwidth plus the calibrated out-of-order backend contribution),
* an L1-I miss stalls the front end for the full L2/memory round trip —
  instruction misses serialize fetch, which is exactly the paper's
  argument for attacking them (§1),
* a reference to a line still in flight (prefetched but not yet arrived)
  stalls for the residual latency — a *delayed hit*,
* all L2 traffic (demand + prefetch) shares one FIFO port (§3.3),
* call/return target prediction: call targets are predicted with a fixed
  accuracy (2-level predictor summary), return targets by the modified
  RAS (a return predicts correctly iff the popped entry matches the
  actual caller — overflows and thread interference surface naturally).

Prefetched lines are tracked from issue to first use or eviction and
classified per Figure 8 (pref hit / delayed hit / useless), by origin
(Figure 9 splits CGP into its NL and CGHC parts).
"""

from __future__ import annotations

import os
from heapq import heappop, heappush

import numpy as _np

from repro.errors import SimulationError
from repro.instrument.trace import CALL, EXEC, RET, SWITCH
from repro.uarch.cache import SetAssocCache
from repro.uarch.memsys import MemorySystem
from repro.uarch.prefetch.base import NO_PREFETCH
from repro.uarch.ras import ModifiedReturnAddressStack
from repro.uarch.stats import SimStats

_LCG_MULT = 6364136223846793005
_LCG_ADD = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def check_events(columns, layout):
    """Raise :class:`SimulationError` if ``layout`` cannot replay an
    event in ``columns``, the ``(kinds, a, b, c)`` numpy columns of a
    trace or of its vocabulary.

    Both engines run it before replaying, so they refuse the same
    events with the same message.  The message names the first of the
    checks below that fails, in this order, wherever the events sit.
    The reference engine relies on it: Python's negative indexing would
    otherwise replay a negative fid, offset or call-site offset from
    the wrong lines.
    """
    kinds, a, b, c = columns
    bad = (kinds < EXEC) | (kinds > SWITCH)
    if bad.any():
        raise SimulationError(
            f"unknown trace event kind {int(kinds[bad].min())}")
    # Viewed as unsigned, a negative operand lies past every bound, so
    # one comparison checks both ends of a range.
    nfuncs = len(layout.base_line)
    bad = (a.view(_np.uint64) >= nfuncs) & (kinds != SWITCH)
    if bad.any():
        name = ("EXEC", "CALL", "RET")[int(kinds[bad].min())]
        raise SimulationError(f"{name} event references unknown function")
    # per function, the last offset whose block (offset * num // den)
    # lies inside it
    sizes = _np.asarray(layout.size_lines, dtype=_np.int64)
    last = ((sizes * layout.den - 1) // layout.num).view(_np.uint64)

    ex = _np.flatnonzero(kinds == EXEC)
    lo = b[ex]
    hi = c[ex]
    end = last[a[ex]]
    if ((lo.view(_np.uint64) > end) | (hi.view(_np.uint64) > end)).any():
        if ((lo < 0) | (hi < 0)).any():
            raise SimulationError("EXEC event has a negative offset")
        raise SimulationError("EXEC offset beyond function extent")

    site = _np.flatnonzero((kinds == CALL) & (b >= 0))  # known callers
    caller = b[site]
    if (caller >= nfuncs).any():
        raise SimulationError("CALL event references unknown caller")
    offset = c[site]
    if (offset.view(_np.uint64) > last[caller]).any():
        if (offset < 0).any():
            raise SimulationError(
                "CALL event has a negative call-site offset")
        raise SimulationError("call-site offset beyond function extent")


class FetchEngine:
    """One simulation run = one FetchEngine instance."""

    def __init__(self, config, layout, prefetcher=None, seed=12345,
                 collector=None):
        config.validate()
        self.config = config
        self.layout = layout
        self.prefetcher = prefetcher if prefetcher is not None else NO_PREFETCH
        #: optional repro.obsv.AttributionCollector; None (the default)
        #: keeps every instrumentation site behind one dead branch
        self.collector = collector
        self.stats = SimStats()
        self.l1i = SetAssocCache.from_config(config.l1i)
        self.memsys = MemorySystem(config)
        self.ras = ModifiedReturnAddressStack(config.ras_depth)
        self.cycle = 0.0
        self._in_flight = {}  # line -> (arrival_cycle, origin)
        self._arrivals = []  # heap of (arrival_cycle, line)
        self._untouched = {}  # prefetched line in L1, not yet referenced
        self._rng_state = (seed * 2 + 1) & _LCG_MASK
        self._cpi = 1.0 / config.fetch_width + config.base_cpi
        #: set before each prefetcher.on_line_access call: whether the
        #: access demand-missed, and whether it was the first touch of a
        #: prefetched line (the "tag bit" tagged prefetchers key off)
        self.last_access_missed = False
        self.last_access_first_touch = False

    # ------------------------------------------------------------------
    # pseudo-random branch prediction (deterministic per seed)
    # ------------------------------------------------------------------
    def _predict_ok(self):
        self._rng_state = (
            self._rng_state * _LCG_MULT + _LCG_ADD
        ) & _LCG_MASK
        fraction = ((self._rng_state >> 32) & 0xFFFFFFFF) / 4294967296.0
        return fraction < self.config.branch_predictor_accuracy

    # ------------------------------------------------------------------
    # prefetch interface (called by prefetchers)
    # ------------------------------------------------------------------
    def issue_prefetch(self, line, origin, delay=0):
        """Issue a prefetch for ``line`` unless present/in flight.

        Every request is accounted: issued, squashed (already present or
        in flight), or out_of_range (outside the layout's address space).
        """
        stats = self.stats.prefetch_origin(origin)
        collector = self.collector
        if line < 0 or line >= self.layout.total_lines:
            stats.out_of_range += 1
            if collector is not None:
                collector.out_of_range(origin)
            return False
        if line in self._in_flight or self.l1i.contains(line):
            stats.squashed += 1
            if collector is not None:
                collector.squashed(line, origin)
            return False
        completion, _from_mem = self.memsys.request(
            line, self.cycle + delay, is_prefetch=True
        )
        self._in_flight[line] = (completion, origin)
        heappush(self._arrivals, (completion, line))
        stats.issued += 1
        if collector is not None:
            collector.issued(line, origin, self.cycle + delay, completion)
        return True

    def prefetch_function_head(self, fid, n_lines, origin, delay=0):
        """Prefetch the first ``n_lines`` of function ``fid``."""
        start = self.layout.base_line[fid]
        span = self.layout.size_lines[fid]
        count = n_lines if n_lines < span else span
        for offset in range(count):
            self.issue_prefetch(start + offset, origin, delay)

    # ------------------------------------------------------------------
    # cache plumbing
    # ------------------------------------------------------------------
    def _deliver_arrivals(self):
        arrivals = self._arrivals
        in_flight = self._in_flight
        now = self.cycle
        while arrivals and arrivals[0][0] <= now:
            _arrival, line = heappop(arrivals)
            record = in_flight.pop(line, None)
            if record is None:
                continue  # superseded (already delivered via delayed hit)
            self._install(line, record[1])

    def _install(self, line, origin=None):
        evicted = self.l1i.insert(line)
        if origin is not None:
            self._untouched[line] = origin
        if evicted is not None:
            victim_origin = self._untouched.pop(evicted, None)
            if victim_origin is not None:
                self.stats.prefetch_origin(victim_origin).useless += 1
                if self.collector is not None:
                    self.collector.useless(evicted, victim_origin, self.cycle)

    def _access(self, line):
        """One demand reference to an I-cache line."""
        stats = self.stats
        stats.line_accesses += 1
        missed = False
        first_touch = False
        if self._arrivals:
            self._deliver_arrivals()
        if self.l1i.lookup(line):
            origin = self._untouched.pop(line, None)
            if origin is not None:
                stats.prefetch_origin(origin).pref_hits += 1
                first_touch = True
                if self.collector is not None:
                    self.collector.pref_hit(line, origin, self.cycle)
        else:
            record = self._in_flight.pop(line, None)
            if record is not None:
                arrival, origin = record
                stall = arrival - self.cycle
                if stall > 0:
                    self.cycle += stall
                    stats.stall_cycles += stall
                stats.prefetch_origin(origin).delayed_hits += 1
                first_touch = True
                if self.collector is not None:
                    self.collector.delayed_hit(line, origin, stall, self.cycle)
                self._install(line)  # referenced: not "untouched"
            else:
                missed = True
                completion, from_mem = self.memsys.request(
                    line, self.cycle, is_prefetch=False
                )
                stats.demand_misses += 1
                if from_mem:
                    stats.memory_fetches += 1
                else:
                    stats.l2_hits += 1
                stall = completion - self.cycle
                self.cycle += stall
                stats.stall_cycles += stall
                if self.collector is not None:
                    self.collector.demand_miss(line, from_mem)
                self._install(line)
        self.last_access_missed = missed
        self.last_access_first_touch = first_touch
        self.prefetcher.on_line_access(line, self)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, trace):
        """Simulate ``trace``; returns the :class:`SimStats`.

        Raises :class:`SimulationError` before the first event if
        :func:`check_events` refuses one."""
        config = self.config
        layout = self.layout
        check_events(trace.columns(), layout)
        stats = self.stats
        prefetcher = self.prefetcher
        base = layout.base_line
        perm = layout.perm
        num = layout.num
        den = layout.den
        instr_scale = layout.instr_scale
        cpi = self._cpi
        overhead = config.call_overhead_instrs
        overhead_cycles = overhead * instr_scale * cpi
        penalty = config.mispredict_penalty
        perfect = config.perfect_icache
        access = self._access
        collector = self.collector
        # the "single branch": sampling adds one comparison per event
        # when a collector is attached and nothing at all otherwise
        sampler = collector.interval if collector is not None else None

        kinds = trace.kinds
        ea, eb, ec = trace.a, trace.b, trace.c
        for i in range(len(kinds)):
            kind = kinds[i]
            if kind == EXEC:
                fid = ea[i]
                o1 = eb[i]
                o2 = ec[i]
                if o2 < o1:
                    o1, o2 = o2, o1
                n = (o2 - o1 + 1) * instr_scale
                stats.instructions += n
                self.cycle += n * cpi
                stats.fetch_cycles += n * cpi
                if not perfect:
                    first = (o1 * num) // den
                    last = (o2 * num) // den
                    fbase = base[fid]
                    fperm = perm[fid]
                    for block in range(first, last + 1):
                        access(fbase + fperm[block])
            elif kind == CALL:
                stats.calls += 1
                stats.instructions += overhead * instr_scale
                self.cycle += overhead_cycles
                stats.fetch_cycles += overhead_cycles
                callee = ea[i]
                caller = eb[i]
                predicted = self._predict_ok()
                if not predicted:
                    stats.mispredicted_calls += 1
                    self.cycle += penalty
                    stats.mispredict_cycles += penalty
                if caller >= 0:
                    callsite = base[caller] + perm[caller][(ec[i] * num) // den]
                    self.ras.push(callsite, base[caller], caller)
                if not perfect:
                    prefetcher.on_call(caller, callee, predicted, self)
            elif kind == RET:
                stats.returns += 1
                stats.instructions += overhead * instr_scale
                self.cycle += overhead_cycles
                stats.fetch_cycles += overhead_cycles
                returning = ea[i]
                actual_caller = eb[i]
                entry = self.ras.pop()
                predicted = entry is not None and (
                    actual_caller < 0 or entry.caller_fid == actual_caller
                )
                if not predicted:
                    self.cycle += penalty
                    stats.mispredict_cycles += penalty
                if not perfect:
                    prefetcher.on_return(returning, entry, predicted, self)
            # a SWITCH changes nothing: hardware state (caches, RAS,
            # CGHC) is shared
            if sampler is not None and stats.instructions >= sampler.next_at:
                sampler.take(self)

        self._finalize()
        return stats

    def _finalize(self):
        stats = self.stats
        collector = self.collector
        # lines never referenced after prefetch are useless
        for line, origin in self._untouched.items():
            stats.prefetch_origin(origin).useless += 1
            if collector is not None:
                collector.useless(line, origin, self.cycle)
        self._untouched.clear()
        for line, (_arrival, origin) in self._in_flight.items():
            stats.prefetch_origin(origin).useless += 1
            if collector is not None:
                collector.useless(line, origin, self.cycle)
        self._in_flight.clear()
        stats.cycles = self.cycle
        stats.base_cycles = stats.fetch_cycles
        stats.bus_transactions = self.memsys.transactions
        cghc = getattr(self.prefetcher, "cghc", None)
        if cghc is not None:
            stats.cghc_l1_hits = cghc.l1_hits
            stats.cghc_l2_hits = cghc.l2_hits
            stats.cghc_misses = cghc.misses
        if collector is not None and collector.interval is not None:
            collector.interval.finalize(self)


#: simulate() engine selection: explicit argument beats the
#: REPRO_SIM_ENGINE environment variable beats this default.
DEFAULT_ENGINE = "fast"


def engine_class(engine=None):
    """Resolve an engine name ('fast'/'reference') to its class."""
    name = engine or os.environ.get("REPRO_SIM_ENGINE") or DEFAULT_ENGINE
    if name == "reference":
        return FetchEngine
    if name != "fast":
        raise SimulationError(
            f"unknown simulation engine {name!r}; "
            "pick from ['fast', 'reference']"
        )
    from repro.uarch.fast_engine import FastFetchEngine

    return FastFetchEngine


def simulate(trace, layout, config, prefetcher=None, seed=12345, engine=None,
             collector=None):
    """Convenience wrapper: run one simulation, return stats.

    ``engine`` selects the replay core: ``"fast"`` (the optimized default)
    or ``"reference"`` (the original event loop the optimized core is
    verified against).  When None, the ``REPRO_SIM_ENGINE`` environment
    variable decides, falling back to ``"fast"``.  Both cores produce
    byte-identical :class:`SimStats`, and refuse the same malformed
    events (:func:`check_events`).  A configuration the fast engine's
    kernels do not inline (``FastFetchEngine.supports``: custom or
    tagged prefetchers, software CGP, a set-associative CGHC, the
    ``l2_demand_priority`` ablation) replays on the reference engine.

    ``collector`` (a :class:`repro.obsv.AttributionCollector`) opts into
    per-function/per-layer attribution, interval sampling, and prefetch
    lifecycle tracing — identical payloads from either engine, and the
    returned :class:`SimStats` are unchanged by collection.
    """
    cls = engine_class(engine)
    if cls is not FetchEngine and not cls.supports(config, layout,
                                                   prefetcher):
        cls = FetchEngine
    return cls(config, layout, prefetcher=prefetcher, seed=seed,
               collector=collector).run(trace)
