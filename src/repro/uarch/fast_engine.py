"""Optimized replay core: compiled traces + inlined replay kernels.

The reference :class:`~repro.uarch.fetch_engine.FetchEngine` re-derives
the same facts for every event: it swaps offsets, divides them into
block indices, chases ``base_line[fid] + perm[fid][block]`` through two
list indirections, and funnels every line reference — even a guaranteed
L1 hit — through the full ``_access`` machinery (arrival delivery, LRU
lookup, untouched/in-flight bookkeeping, prefetcher hook).  This module
removes that per-event work without changing a single observable number:

* **compiled traces** — a trace repeats a small vocabulary of distinct
  ``(kind, a, b, c)`` events, so it is symbolized once: each event
  becomes an index into that vocabulary.  Each (trace, layout) pair
  then translates, with numpy, only the vocabulary, into one record per
  distinct event — opcode, operands, pre-scaled instruction count,
  pre-resolved call-site line, and for an EXEC event the span of the
  layout's translation table
  (:meth:`~repro.layout.layouts.AddressMap.translation_table`) it
  touches, in fetch order — and the image is one list holding each
  event's shared record.  Compiled images are cached per trace object,
  weakly, so they die with their trace — traces are append-only, so an
  image is reused as long as ``len(trace)`` is unchanged — and the
  symbolization is done once per trace and shared by every layout's
  image.
* **an O(1) residency index** — a bytearray mirror of the L1 content
  replaces the associative ``contains``/``lookup`` scans on the hot
  paths.  Squashed prefetches — the overwhelming majority under NL/CGP
  — become two array probes and a counter bump.
* **timestamp LRU** — within the run, the L1's per-set recency lists
  are replaced by unordered way slots plus a per-line last-use stamp
  from one global counter.  A hit is a single store (no set probe, no
  shift); the victim on a fill is the minimum-stamp way, which is
  provably the same line the reference recency list would evict.  The
  ``SetAssocCache`` is reconstructed (sorted by stamp) when the run
  ends, so post-run inspection sees the exact reference state.
* **two kernels, every hook inlined** — a run that can never issue a
  prefetch (the paper's O5/OM baseline cells and the perfect I-cache)
  takes a dedicated loop with no in-flight/untouched bookkeeping; every
  other run takes the general kernel, where the NL automaton (NL, RA-NL,
  and CGP's within-function component) — leading-edge issue, post-jump
  fan-out, same-line no-op, squash checks included — and
  :class:`~repro.core.cgp.CgpPrefetcher`'s call/return CGHC accesses on
  the flat CGHC lists are inlined, with one function-head walk shared by
  the call and return sides.  Both kernels inline the memory system's
  FIFO port + L2 arithmetic.  :meth:`FastFetchEngine.supports` names
  the configurations this covers — the ones the paper evaluates, plus
  run-ahead NL — and :func:`~repro.uarch.fetch_engine.simulate` replays
  any other on the reference engine.

Observation rides the same kernels.  With an
:class:`~repro.obsv.collector.AttributionCollector` attached, each
kernel records the outcomes it already classifies — demand misses,
first touches, delayed hits, evictions of untouched lines, issues,
squashes, CGHC probes — into the collector's line-indexed count arrays
and lifecycle ring, where a span walk records the squashes it never
visits as one covered span.

Each specialization is kept only while it pays: ``docs/BENCHMARKS.md``
("What each specialization is worth") tabulates what forcing each one
off costs on the benchmark's cells, and lists the ones deleted for
doing no work on real traces or for costing more than they save.

Equivalence is bit-exact, not approximate: every floating-point
accumulation (cycle, stall, instructions, fetch/mispredict cycles)
performs the same IEEE-754 operations in the same order as the
reference engine, and every line access runs an inlined transcription
of the reference classification.  The cross-engine suites in
``tests/uarch/test_engine_equivalence.py`` and
``tests/harness/test_engine_equivalence.py`` enforce
``SimStats.to_dict()`` and attribution payload equality on golden
workloads and randomized traces.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from heapq import heappop, heappush
from itertools import islice

import numpy as _np

from repro.errors import SimulationError
from repro.instrument.trace import CALL, EXEC, RET
from repro.uarch.fetch_engine import (
    FetchEngine,
    _LCG_ADD,
    _LCG_MASK,
    _LCG_MULT,
    check_events,
)
from repro.uarch.prefetch.base import Prefetcher
from repro.uarch.prefetch.nl import NextNLinePrefetcher, RunAheadNLPrefetcher

OP_EXEC = EXEC
OP_CALL = CALL
OP_RET = RET


class CompiledTrace:
    """A trace pre-translated for one layout: one shared record per
    distinct event, and one reference per event.

    ``records[i]`` is event ``i``'s record, the tuple
    ``(op, a, b, n_scaled, span, callsite)``:

    * ``op`` — the opcode (``OP_*``); ``a``/``b`` — the raw operands
      (callee/caller fids),
    * ``n_scaled`` — EXEC instruction count times the layout's (float)
      ``instr_scale``, the reference engine's product (0.0 otherwise),
    * ``span`` — for EXEC, the tuple of global lines the event fetches,
      in order: ``table[block_base[fid] + first_block:block_base[fid] +
      last_block + 1]`` of the layout's translation table
      (:meth:`~repro.layout.layouts.AddressMap.translation_table`);
      ``()`` otherwise,
    * ``callsite`` — pre-resolved call-site line for CALL events with a
      known caller (0 otherwise).

    Events with equal ``(kind, a, b, c)`` share one record object, so
    the image is one list reference per event plus one record per
    distinct event (``nl-large``'s 399,125 events hold 5,558).  Fields
    are exact Python int/float, which the bit-identical arithmetic
    contract requires.
    """

    __slots__ = ("n_events", "records", "__weakref__")

    def __init__(self, n_events, records):
        self.n_events = n_events
        self.records = records


def compile_trace(trace, layout):
    """Translate ``trace`` for ``layout`` (no caching; see ``_compiled``)."""
    return _compile_for_layout(layout, *_symbolize(trace))


def _symbolize(trace):
    """The part of a compiled image that depends on the trace alone:
    its vocabulary — the distinct ``(kind, a, b, c)`` records, as four
    numpy columns in ``(kind, a, b, c)`` order — and ``inverse``, each
    event's index into them.

    One ``np.lexsort`` of the four columns groups equal events; it is
    stable, so each group's first event is its first occurrence."""
    n = len(trace)
    cols = trace.columns()
    order = _np.lexsort(cols[::-1])  # the last key, ``kind``, is primary
    fresh = _np.zeros(n, dtype=bool)  # first event of its group, in order
    fresh[:1] = True
    for col in cols:
        ordered = col[order]
        fresh[1:] |= ordered[1:] != ordered[:-1]
    inverse = _np.empty(n, dtype=_np.intp)
    inverse[order] = _np.cumsum(fresh) - 1
    first = order[fresh]
    # fancy indexing copies, so no view of the trace's arrays outlives
    # this call: the compile cache keeps the result, and an array with
    # a view exported cannot grow
    return tuple(col[first] for col in cols), inverse


def _compile_for_layout(layout, vocab, inverse):
    """``compile_trace`` given the trace's :func:`_symbolize`: check
    (:func:`~repro.uarch.fetch_engine.check_events`) and translate each
    distinct record once, then gather one reference per event."""
    check_events(vocab, layout)
    kinds, a, b, c = vocab
    nv = kinds.shape[0]
    tbl, bb = layout.translation_table()
    tbl_np = _np.asarray(tbl, dtype=_np.int64)
    bb_np = _np.asarray(bb, dtype=_np.int64)
    num = layout.num
    den = layout.den

    # ---- EXEC records: offset ranges -> spans of the layout's table ----
    ex_idx = _np.nonzero(kinds == EXEC)[0]
    lo = _np.minimum(b[ex_idx], c[ex_idx])
    hi = _np.maximum(b[ex_idx], c[ex_idx])
    n_scaled = _np.zeros(nv, dtype=_np.float64)
    n_scaled[ex_idx] = (hi - lo + 1) * layout.instr_scale
    fid_base = bb_np[a[ex_idx]]
    spans = [()] * nv
    for v, s, e in zip(ex_idx.tolist(),
                       (fid_base + (lo * num) // den).tolist(),
                       (fid_base + (hi * num) // den + 1).tolist()):
        spans[v] = tuple(tbl[s:e])

    # ---- CALL records from a known caller: the call-site line ----
    callsite = _np.zeros(nv, dtype=_np.int64)
    site = _np.nonzero((kinds == CALL) & (b >= 0))[0]
    callsite[site] = tbl_np[bb_np[b[site]] + (c[site] * num) // den]

    records = _np.empty(nv, dtype=object)
    for v, record in enumerate(zip(kinds.tolist(), a.tolist(), b.tolist(),
                                   n_scaled.tolist(), spans,
                                   callsite.tolist())):
        records[v] = record
    # one reference per event, gathered in C by an object-array take
    return CompiledTrace(len(inverse), records[inverse].tolist())


class _TraceEntry:
    """One trace's compile-cache entry, valid while the trace still has
    ``n_events`` events (traces are append-only).

    It holds the trace-side work, done once for every layout: the
    :func:`_symbolize` vocabulary and inverse, built by the first
    compile.  ``images`` lists the ``(layout, CompiledTrace)`` pairs
    served so far.
    """

    __slots__ = ("n_events", "symbols", "images")

    def __init__(self, trace):
        self.n_events = len(trace)
        self.symbols = None
        self.images = []


#: trace -> _TraceEntry; weak on the trace so its compiled images die
#: with it (and a recycled id can never alias a new trace).  An equal
#: trace with another identity — a shard worker's unpickled copy —
#: compiles its own.
_COMPILE_CACHE = weakref.WeakKeyDictionary()


def _trace_entry(trace):
    entry = _COMPILE_CACHE.get(trace)
    if entry is None or entry.n_events != len(trace):
        entry = _COMPILE_CACHE[trace] = _TraceEntry(trace)
    return entry


def clear_compile_cache():
    """Drop every cached compiled trace.  Benchmarks call this between
    engine timing regimes so neither engine's numbers ride on state the
    other built; tests use it to force cold compiles."""
    _COMPILE_CACHE.clear()


def _compiled(trace, layout):
    entry = _trace_entry(trace)
    for cached_layout, compiled in entry.images:
        if cached_layout is layout:
            return compiled
    if entry.symbols is None:
        entry.symbols = _symbolize(trace)
    compiled = _compile_for_layout(layout, *entry.symbols)
    entry.images.append((layout, compiled))
    return compiled


class FastFetchEngine(FetchEngine):
    """Drop-in replacement for :class:`FetchEngine` with the same stats,
    for the configurations its kernels inline (:meth:`supports`).

    The inlined paths are transcriptions of the reference ``_access``/
    ``issue_prefetch``/hook bodies (same branches, same operation order)
    with the associative scans replaced by the ``_state`` residency
    index and the recency lists by per-line timestamps.  During ``run()``
    the ``l1i`` way slots are *unordered* (stamps carry the LRU order);
    the reference recency layout is reconstructed before the run returns.
    """

    @staticmethod
    def supports(config, layout, prefetcher):
        """Whether the kernels inline everything this configuration runs:
        no prefetcher, exact next-N-line or run-ahead NL, or an exact
        :class:`~repro.core.cgp.CgpPrefetcher` over a direct-mapped
        (finite or unbounded) CGHC whose entry table is ``layout``'s —
        and the FIFO L2 port (no ``l2_demand_priority``).
        :func:`~repro.uarch.fetch_engine.simulate` replays anything else
        on the reference engine."""
        if config.l2_demand_priority:
            return False
        cls = type(prefetcher)
        if prefetcher is None or cls in (
            Prefetcher, NextNLinePrefetcher, RunAheadNLPrefetcher
        ):
            return True
        from repro.core.cgp import CgpPrefetcher

        return (
            cls is CgpPrefetcher
            and (prefetcher.cghc.infinite or prefetcher.cghc.l1.ways == 1)
            and prefetcher._entry == layout.base_line
        )

    def __init__(self, config, layout, prefetcher=None, seed=12345,
                 collector=None):
        super().__init__(config, layout, prefetcher=prefetcher, seed=seed,
                         collector=collector)
        if not self.supports(config, layout, prefetcher):
            raise SimulationError(
                f"the fast engine does not inline "
                f"{type(prefetcher).__name__} under this configuration; "
                f"replay it with the reference engine"
            )
        total = layout.total_lines
        #: per-line residency state, one byte per line: bit 0 set while
        #: the line is resident in L1, bit 1 set while it is resident AND
        #: still untouched since its prefetch arrived (the key set of
        #: ``_untouched``).  Non-resident lines are exactly the zero
        #: bytes, so truthiness means "resident".
        self._state = bytearray(total)
        #: bytearray mirror of the ``_in_flight`` key set — lets the
        #: kernels prove "this prefetch target squashes" (resident OR in
        #: flight) with array probes instead of dict probes
        self._iflag = bytearray(total)
        #: last-use stamp per resident line; victim = min stamp in set.
        #: Stamps are issued by one monotone counter, so min-stamp is
        #: exactly the head of the reference engine's recency list.
        self._stamp = [0] * total
        self._ctr = 0

    def _rebuild_l1_order(self):
        """Sort each set's way slots back into reference recency order
        (LRU at the low index, empties below it)."""
        l1 = self.l1i
        ways = l1.ways
        assoc = l1.assoc
        key = self._stamp.__getitem__
        for base in range(0, l1.n_sets * assoc, assoc):
            slots = [ln for ln in ways[base:base + assoc] if ln >= 0]
            if slots:
                slots.sort(key=key)
                ways[base:base + assoc] = (
                    [-1] * (assoc - len(slots)) + slots
                )

    def _fold_observation(self, late, out_of_range_before):
        """Hand the collector what a kernel counted per origin rather
        than per line: out-of-range requests (the ``SimStats`` deltas
        since kernel entry) and the lateness buckets of delayed hits,
        which the kernel keys by the issuing origin's stats row."""
        collector = self.collector
        origin_of = {}
        for origin, row in self.stats.prefetch.items():
            origin_of[id(row)] = origin
            n = row.out_of_range - out_of_range_before.get(origin, 0)
            if n:
                collector.out_of_range(origin, n)
        for row_id, buckets in late.items():
            for bucket, n in enumerate(buckets):
                if n:
                    collector.late(origin_of[row_id], bucket, n)

    def _finalize(self):
        collector = self.collector
        if collector is not None and collector.lifecycle is not None:
            # The reference closes the prefetches still open at the end
            # in its maps' insertion order — untouched lines in delivery
            # order, then in-flight lines in issue order — and the flat
            # lifecycle rebuilds both maps in line order.  An untouched
            # line still carries the stamp its delivery installed, and
            # the lifecycle's open records are in issue order.
            untouched = self._untouched
            self._untouched = {
                line: untouched[line]
                for line in sorted(untouched, key=self._stamp.__getitem__)
            }
            issue_order = {
                line: n for n, line in enumerate(collector.lifecycle.open)
            }
            self._in_flight = dict(sorted(
                self._in_flight.items(),
                key=lambda item: issue_order.get(item[0], -1),
            ))
        super()._finalize()

    def run(self, trace):
        return self.run_range(trace, 0, None)

    def run_range(self, trace, start=0, end=None):
        """Replay events ``[start, end)`` of ``trace``.

        ``run()`` is ``run_range(trace, 0, None)``.  The sharded
        replayer (:mod:`repro.uarch.shard`) drives the same kernels one
        boundary-to-boundary segment at a time.  The end-of-run
        classification (untouched/in-flight prefetches become
        *useless*, derived totals are materialized) happens only when
        the segment reaches the end of the trace.
        """
        compiled = _compiled(trace, self.layout)
        ev0 = start
        ev1 = compiled.n_events if end is None else end
        if not 0 <= ev0 <= ev1 <= compiled.n_events:
            raise SimulationError("event range outside the trace")
        config = self.config
        stats = self.stats
        prefetcher = self.prefetcher
        layout = self.layout
        cpi = self._cpi
        instr_scale = layout.instr_scale
        overhead_instrs = config.call_overhead_instrs * instr_scale
        overhead_cycles = overhead_instrs * cpi
        penalty = config.mispredict_penalty
        accuracy = config.branch_predictor_accuracy
        perfect = config.perfect_icache
        base = layout.base_line
        total_lines = layout.total_lines
        ras_obj = self.ras
        rbuf = ras_obj._buffer
        rdepth = ras_obj._depth
        rtop = ras_obj._top
        rcount = ras_obj._count
        r_over = 0
        r_under = 0
        l1 = self.l1i
        ways = l1.ways
        n_sets = l1.n_sets
        assoc = l1.assoc
        state = self._state
        iflag = self._iflag
        stamp = self._stamp
        ctr = self._ctr
        untouched = self._untouched
        in_flight = self._in_flight
        arrivals = self._arrivals
        sprefetch = stats.prefetch

        # the memory system's FIFO port + L2, inlined; the counters
        # are folded back at exit
        memsys = self.memsys
        mem_l2 = memsys.l2
        l2ways = mem_l2.ways
        l2_nsets = mem_l2.n_sets
        l2_assoc = mem_l2.assoc
        l2_insert = mem_l2.insert
        m_hit_lat = memsys._hit_latency
        m_mem_lat = memsys._memory_latency
        m_occ = memsys._occupancy
        port_free = memsys._port_free_at
        m_trans = 0
        m_l2h = 0
        m_l2m = 0

        records = compiled.records

        # local accumulators: floats replicate the reference engine's
        # operation order exactly; integer deltas are flushed at the end
        # (integer addition commutes with the reference's interleaving)
        cycle = self.cycle
        rng = self._rng_state
        instructions = stats.instructions
        fetch_cycles = stats.fetch_cycles
        mispredict_cycles = stats.mispredict_cycles
        stall_cycles = stats.stall_cycles
        calls = 0
        returns = 0
        mispredicted = 0
        line_accesses = 0
        hit_count = 0
        miss_count = 0
        demand_misses = 0
        l2_hits = 0
        memory_fetches = 0

        # ---- observation ----
        # With a collector attached, the kernels record what they
        # classify into its line-indexed counters (squashes as attempt
        # coverage: a span walk writes its two ends), the lifecycle
        # ring, and a kernel-local lateness tally that
        # ``_fold_observation`` hands over with the out-of-range deltas
        # at exit.  Interval samples come from one compare at the top of
        # each event: the state there is the state after the previous
        # event, where the reference samples.
        collector = self.collector
        obs = collector is not None
        _inf = float("inf")
        s_next = _inf
        if obs:
            (o_dem, o_mem, o_ph, o_dly, o_use, o_att, o_iss,
             *o_cghc) = collector.per_line  # o_cghc: one list per level
            o_cg0 = o_cghc[0]
            # id of the origin's stats row -> delayed hits per bucket
            o_late = defaultdict(lambda: [0] * 64)
            oor0 = {org: row.out_of_range for org, row in sprefetch.items()}
            lifecycle = collector.lifecycle
            lc = lifecycle is not None
            if lc:
                lc_open = lifecycle.open
                lc_pop = lc_open.pop
                lc_ring = lifecycle.ring.append
                lc_n = 0  # closed records, added to ``recorded`` at exit
            sampler = collector.interval
            if sampler is not None:
                s_next = sampler.next_at
                s_cghc = getattr(prefetcher, "cghc", None)

        if perfect or type(prefetcher) is Prefetcher:
            # ---- no-prefetcher kernel ----
            # Nothing ever issues a prefetch (the perfect I-cache makes
            # no line accesses and calls no hook), so the in-flight
            # map, the arrival heap, and the untouched index stay empty
            # for the whole run, and every miss is a demand miss.
            for op, a, b, nf, span, cs in islice(records, ev0, ev1):
                if obs and instructions >= s_next:
                    sampler.record(
                        instructions, cycle,
                        stats.line_accesses + line_accesses,
                        stats.demand_misses + demand_misses,
                        sprefetch, s_cghc,
                    )
                    s_next = sampler.next_at
                if op == OP_EXEC:
                    d = nf * cpi
                    instructions += nf
                    cycle += d
                    fetch_cycles += d
                    if perfect:
                        continue
                    for line in span:
                        line_accesses += 1
                        if state[line]:
                            hit_count += 1
                            stamp[line] = ctr
                            ctr += 1
                            continue
                        miss_count += 1
                        demand_misses += 1
                        if obs:
                            o_dem[line] += 1
                        # inlined MemorySystem.request
                        start_t = (
                            cycle if cycle > port_free else port_free
                        )
                        port_free = start_t + m_occ
                        m_trans += 1
                        i2 = (line % l2_nsets) * l2_assoc
                        t2 = i2 + l2_assoc - 1
                        if l2ways[t2] == line:
                            w = t2
                        else:
                            w = t2 - 1
                            while w >= i2:
                                if l2ways[w] == line:
                                    while w < t2:
                                        l2ways[w] = l2ways[w + 1]
                                        w += 1
                                    l2ways[t2] = line
                                    break
                                w -= 1
                            else:
                                w = -1
                        if w >= 0:
                            m_l2h += 1
                            l2_hits += 1
                            completion = start_t + m_hit_lat
                        else:
                            m_l2m += 1
                            memory_fetches += 1
                            l2_insert(line)
                            completion = start_t + m_hit_lat + m_mem_lat
                            if obs:
                                o_mem[line] += 1
                        stall = completion - cycle
                        cycle += stall
                        stall_cycles += stall
                        # inlined _install(line): known absent
                        idx = (line % n_sets) * assoc
                        iw = idx + assoc
                        w = idx
                        while w < iw and ways[w] >= 0:
                            w += 1
                        if w < iw:
                            ways[w] = line
                        else:
                            vs = idx
                            vmin = stamp[ways[idx]]
                            w = idx + 1
                            while w < iw:
                                sv = stamp[ways[w]]
                                if sv < vmin:
                                    vmin = sv
                                    vs = w
                                w += 1
                            state[ways[vs]] = 0
                            ways[vs] = line
                        state[line] = 1
                        stamp[line] = ctr
                        ctr += 1
                elif op == OP_CALL:
                    calls += 1
                    instructions += overhead_instrs
                    cycle += overhead_cycles
                    fetch_cycles += overhead_cycles
                    rng = (rng * _LCG_MULT + _LCG_ADD) & _LCG_MASK
                    if ((rng >> 32) & 0xFFFFFFFF) / 4294967296.0 >= accuracy:
                        mispredicted += 1
                        cycle += penalty
                        mispredict_cycles += penalty
                    caller = b
                    if caller >= 0:
                        # inlined RAS push (no hook ever sees entries,
                        # so a plain tuple stands in for the entry)
                        rbuf[rtop] = (cs, base[caller], caller)
                        rtop += 1
                        if rtop == rdepth:
                            rtop = 0
                        if rcount < rdepth:
                            rcount += 1
                        else:
                            r_over += 1
                elif op == OP_RET:
                    returns += 1
                    instructions += overhead_instrs
                    cycle += overhead_cycles
                    fetch_cycles += overhead_cycles
                    # inlined RAS pop
                    if rcount == 0:
                        r_under += 1
                        entry = None
                    else:
                        rtop -= 1
                        if rtop < 0:
                            rtop = rdepth - 1
                        rcount -= 1
                        entry = rbuf[rtop]
                        rbuf[rtop] = None
                    actual_caller = b
                    if not (
                        entry is not None
                        and (
                            actual_caller < 0
                            or entry[2] == actual_caller
                        )
                    ):
                        cycle += penalty
                        mispredict_cycles += penalty
                # SWITCH: hardware state is shared across threads
        else:
            # ---- general kernel ----
            # Every supported prefetcher exports ``nl_component`` (NL
            # and RA-NL are their own; CGP's is its within-function NL),
            # whose ``on_line_access`` is exactly the sequential-NL
            # automaton inlined below.
            nl = prefetcher.nl_component
            nl_last = nl._last_line
            nl_lead = nl.seq_lead  # leading-edge issue distance
            nl_fan = getattr(nl, "run_ahead", 0)  # fan-out window
            nl_n = nl.n_lines
            nl_origin = nl.origin
            ps_nl = sprefetch.get(nl_origin)

            # CGP call/return CGHC accesses, inlined: the dict cache is
            # flattened into per-set lists at kernel entry, the
            # dominant first-level probe becomes one tag compare
            # against a per-function set-index table, and the rare
            # exchange/miss path runs ``FlatCghc.ensure`` on the same
            # lists.  The dict representation is stale until
            # ``write_back`` at kernel exit; the live image is parked
            # on the cache so mid-run observers (``entry_count``) read
            # current state.
            from repro.core.cgp import ORIGIN_CGHC, CgpPrefetcher
            from repro.core.cghc import FlatCghc

            cgp_inline = type(prefetcher) is CgpPrefetcher
            if cgp_inline:
                cgp_n = prefetcher.lines_per_prefetch
                cghc = prefetcher.cghc
                cg_flat = FlatCghc.from_cache(cghc, total_lines)
                cghc._live_flat = cg_flat
                cg_ensure = cg_flat.ensure
                f1_tag = cg_flat.l1_tag
                f1_idx = cg_flat.l1_idx
                f1_seq = cg_flat.l1_seq
                cg_K = cg_flat.slots
                cg_lat1 = cg_flat.lat1
                # fid -> L1 set index of the function's entry-line tag
                cg_n1 = cg_flat.n1
                cg_set1 = [line % cg_n1 for line in layout.base_line]
                # per-layout head table: fid -> one-past-last line of
                # the CGHC-triggered head-prefetch window, the
                # min(N, size) clamp folded in at build time
                cg_head_end = layout.head_extents(cgp_n)
                cg_origin = ORIGIN_CGHC
                ps_cg = sprefetch.get(cg_origin)
                cg_h1 = 0

            # completion time of the earliest outstanding prefetch,
            # hoisted out of the arrival heap: the per-line delivery
            # gate becomes one float compare
            next_due = arrivals[0][0] if arrivals else _inf

            # ---- flat prefetch lifecycle ----
            # The in-flight and untouched maps are held as line-indexed
            # arrays for the whole kernel: membership stays the
            # existing ``iflag`` byte / state bit 2, a record is the
            # completion time plus the issuing origin's stats row in
            # two parallel slots, and the canonical dicts are rebuilt
            # at kernel exit — the FlatCghc write-back pattern — so
            # EngineState snapshots and ``_finalize`` never see the
            # flat form.  A record consumed by a delayed hit leaves its
            # heap entry behind, so a drain install additionally
            # requires the popped completion to match the live record.
            if_comp = [0.0] * total_lines
            if_ps = [None] * total_lines
            for fl, fr in in_flight.items():
                if_comp[fl] = fr[0]
                if_ps[fl] = sprefetch[fr[1]]
            u_ps = [None] * total_lines
            for fl, fo in untouched.items():
                u_ps[fl] = sprefetch[fo]

            for op, a, b, nf, span, cs in islice(records, ev0, ev1):
                if obs and instructions >= s_next:
                    sampler.record(
                        instructions, cycle,
                        stats.line_accesses + line_accesses,
                        stats.demand_misses + demand_misses,
                        sprefetch, s_cghc,
                    )
                    s_next = sampler.next_at
                if op == OP_EXEC:
                    d = nf * cpi
                    instructions += nf
                    cycle += d
                    fetch_cycles += d
                    for line in span:
                        # ---- inlined reference _access ----
                        if cycle >= next_due:
                            while arrivals and arrivals[0][0] <= cycle:
                                _arrival, aline = heappop(arrivals)
                                if (
                                    not iflag[aline]
                                    or if_comp[aline] != _arrival
                                ):
                                    continue
                                iflag[aline] = 0
                                # inlined _install(aline, origin):
                                # in flight, so known absent
                                ai = (aline % n_sets) * assoc
                                aw = ai + assoc
                                w = ai
                                while w < aw and ways[w] >= 0:
                                    w += 1
                                if w < aw:
                                    ways[w] = aline
                                else:
                                    vs = ai
                                    vmin = stamp[ways[ai]]
                                    w = ai + 1
                                    while w < aw:
                                        sv = stamp[ways[w]]
                                        if sv < vmin:
                                            vmin = sv
                                            vs = w
                                        w += 1
                                    victim = ways[vs]
                                    ways[vs] = aline
                                    if state[victim] & 2:
                                        u_ps[victim].useless += 1
                                        if obs:
                                            o_use[victim] += 1
                                            if lc:
                                                lc_n += 1
                                                lc_ring((
                                                    victim, lc_pop(victim),
                                                    "useless", cycle,
                                                ))
                                    state[victim] = 0
                                state[aline] = 3  # resident+untouched
                                stamp[aline] = ctr
                                ctr += 1
                                u_ps[aline] = if_ps[aline]
                            next_due = (
                                arrivals[0][0] if arrivals else _inf
                            )
                        line_accesses += 1
                        if state[line]:
                            # resident: refresh the stamp (= reference
                            # promote-to-MRU), classify the touch
                            hit_count += 1
                            stamp[line] = ctr
                            ctr += 1
                            if state[line] & 2:
                                state[line] = 1
                                u_ps[line].pref_hits += 1
                                if obs:
                                    o_ph[line] += 1
                                    if lc:
                                        lc_n += 1
                                        lc_ring((
                                            line, lc_pop(line),
                                            "pref_hit", cycle,
                                        ))
                        else:
                            miss_count += 1
                            if iflag[line]:
                                # delayed hit: stall residual latency
                                iflag[line] = 0
                                ps = if_ps[line]
                                ps.delayed_hits += 1
                                stall = if_comp[line] - cycle
                                if stall > 0:
                                    cycle += stall
                                    stall_cycles += stall
                                if obs:
                                    o_dly[line] += 1
                                    o_late[id(ps)][
                                        int(stall).bit_length()
                                    ] += 1
                                    if lc:
                                        lc_n += 1
                                        lc_ring((
                                            line, lc_pop(line),
                                            "delayed_hit", cycle,
                                        ))
                            else:
                                # demand miss
                                demand_misses += 1
                                if obs:
                                    o_dem[line] += 1
                                # inlined MemorySystem.request
                                start_t = (
                                    cycle if cycle > port_free
                                    else port_free
                                )
                                port_free = start_t + m_occ
                                m_trans += 1
                                i2 = (line % l2_nsets) * l2_assoc
                                t2 = i2 + l2_assoc - 1
                                if l2ways[t2] == line:
                                    w = t2
                                else:
                                    w = t2 - 1
                                    while w >= i2:
                                        if l2ways[w] == line:
                                            while w < t2:
                                                l2ways[w] = l2ways[w + 1]
                                                w += 1
                                            l2ways[t2] = line
                                            break
                                        w -= 1
                                    else:
                                        w = -1
                                if w >= 0:
                                    m_l2h += 1
                                    l2_hits += 1
                                    completion = start_t + m_hit_lat
                                else:
                                    m_l2m += 1
                                    memory_fetches += 1
                                    l2_insert(line)
                                    completion = (
                                        start_t + m_hit_lat + m_mem_lat
                                    )
                                    if obs:
                                        o_mem[line] += 1
                                stall = completion - cycle
                                cycle += stall
                                stall_cycles += stall
                            # inlined _install(line): known absent
                            idx = (line % n_sets) * assoc
                            iw = idx + assoc
                            w = idx
                            while w < iw and ways[w] >= 0:
                                w += 1
                            if w < iw:
                                ways[w] = line
                            else:
                                vs = idx
                                vmin = stamp[ways[idx]]
                                w = idx + 1
                                while w < iw:
                                    sv = stamp[ways[w]]
                                    if sv < vmin:
                                        vmin = sv
                                        vs = w
                                    w += 1
                                victim = ways[vs]
                                ways[vs] = line
                                if state[victim] & 2:
                                    u_ps[victim].useless += 1
                                    if obs:
                                        o_use[victim] += 1
                                        if lc:
                                            lc_n += 1
                                            lc_ring((
                                                victim, lc_pop(victim),
                                                "useless", cycle,
                                            ))
                                state[victim] = 0
                            state[line] = 1
                            stamp[line] = ctr
                            ctr += 1
                        # ---- inlined NL automaton ----
                        if line == nl_last + 1:
                            # leading edge: issue line + lead
                            pl = line + nl_lead
                            if ps_nl is None:
                                ps_nl = stats.prefetch_origin(nl_origin)
                            if pl >= total_lines:
                                ps_nl.out_of_range += 1
                            elif state[pl] or iflag[pl]:
                                ps_nl.squashed += 1
                                if obs:
                                    o_att[pl] += 1
                                    o_att[pl + 1] -= 1
                            else:
                                start_t = (
                                    cycle if cycle > port_free
                                    else port_free
                                )
                                port_free = start_t + m_occ
                                m_trans += 1
                                i2 = (pl % l2_nsets) * l2_assoc
                                t2 = i2 + l2_assoc - 1
                                if l2ways[t2] == pl:
                                    w = t2
                                else:
                                    w = t2 - 1
                                    while w >= i2:
                                        if l2ways[w] == pl:
                                            while w < t2:
                                                l2ways[w] = l2ways[w + 1]
                                                w += 1
                                            l2ways[t2] = pl
                                            break
                                        w -= 1
                                    else:
                                        w = -1
                                if w >= 0:
                                    m_l2h += 1
                                    completion = start_t + m_hit_lat
                                else:
                                    m_l2m += 1
                                    l2_insert(pl)
                                    completion = (
                                        start_t + m_hit_lat + m_mem_lat
                                    )
                                if_comp[pl] = completion
                                if_ps[pl] = ps_nl
                                iflag[pl] = 1
                                heappush(arrivals, (completion, pl))
                                if completion < next_due:
                                    next_due = completion
                                ps_nl.issued += 1
                                if obs:
                                    o_att[pl] += 1
                                    o_att[pl + 1] -= 1
                                    o_iss[pl] += 1
                                    if lc:
                                        lc_open[pl] = (
                                            nl_origin, cycle, completion
                                        )
                            nl_last = line
                        elif line != nl_last:
                            # jump: fan out over the full window
                            # [t0, t1) in one span walk.  No line
                            # access happens inside a fan, so
                            # residency/in-flight state is frozen while
                            # it runs: ascending order IS the
                            # reference's per-target FIFO port order,
                            # every in-range target resident or in
                            # flight (``iflag``) squashes, and the
                            # squashes are recorded as the span's
                            # attempt coverage
                            if ps_nl is None:
                                ps_nl = stats.prefetch_origin(nl_origin)
                            t0 = line + nl_fan + 1
                            t1 = t0 + nl_n
                            t1c = t1 if t1 <= total_lines else total_lines
                            if t1c <= t0:
                                ps_nl.out_of_range += nl_n
                            else:
                                if t1 > t1c:
                                    ps_nl.out_of_range += t1 - t1c
                                squash = t1c - t0
                                if obs:
                                    o_att[t0] += 1
                                    o_att[t1c] -= 1
                                for tz in range(t0, t1c):
                                    if state[tz] or iflag[tz]:
                                        continue
                                    squash -= 1
                                    start_t = (
                                        cycle if cycle > port_free
                                        else port_free
                                    )
                                    port_free = start_t + m_occ
                                    m_trans += 1
                                    i2 = (tz % l2_nsets) * l2_assoc
                                    t2 = i2 + l2_assoc - 1
                                    if l2ways[t2] == tz:
                                        w = t2
                                    else:
                                        w = t2 - 1
                                        while w >= i2:
                                            if l2ways[w] == tz:
                                                while w < t2:
                                                    l2ways[w] = (
                                                        l2ways[w + 1]
                                                    )
                                                    w += 1
                                                l2ways[t2] = tz
                                                break
                                            w -= 1
                                        else:
                                            w = -1
                                    if w >= 0:
                                        m_l2h += 1
                                        completion = start_t + m_hit_lat
                                    else:
                                        m_l2m += 1
                                        l2_insert(tz)
                                        completion = (
                                            start_t + m_hit_lat + m_mem_lat
                                        )
                                    if_comp[tz] = completion
                                    if_ps[tz] = ps_nl
                                    iflag[tz] = 1
                                    heappush(arrivals, (completion, tz))
                                    if completion < next_due:
                                        next_due = completion
                                    ps_nl.issued += 1
                                    if obs:
                                        o_iss[tz] += 1
                                        if lc:
                                            lc_open[tz] = (
                                                nl_origin, cycle,
                                                completion,
                                            )
                                ps_nl.squashed += squash
                            nl_last = line
                        # line == nl_last: automaton no-op
                    continue
                elif op == OP_CALL:
                    calls += 1
                    instructions += overhead_instrs
                    cycle += overhead_cycles
                    fetch_cycles += overhead_cycles
                    rng = (rng * _LCG_MULT + _LCG_ADD) & _LCG_MASK
                    predicted = (
                        ((rng >> 32) & 0xFFFFFFFF) / 4294967296.0
                        < accuracy
                    )
                    if not predicted:
                        mispredicted += 1
                        cycle += penalty
                        mispredict_cycles += penalty
                    caller = b
                    if caller >= 0:
                        # inlined RAS push (no hook ever sees entries,
                        # so a plain tuple stands in for the entry)
                        rbuf[rtop] = (cs, base[caller], caller)
                        rtop += 1
                        if rtop == rdepth:
                            rtop = 0
                        if rcount < rdepth:
                            rcount += 1
                        else:
                            r_over += 1
                    if not (cgp_inline and predicted):
                        continue
                    # ---- inlined CgpPrefetcher.on_call ----
                    callee = a
                    # prefetch access keyed by the target
                    tag = base[callee]
                    cs1 = cg_set1[callee]
                    if f1_tag[cs1] == tag:
                        cg_h1 += 1
                        latency = cg_lat1
                        if obs:
                            o_cg0[tag] += 1
                    else:
                        latency, level = cg_ensure(tag)
                        if obs:
                            o_cghc[level][tag] += 1
                    # prefetch_function_head(first_callee), walked below
                    seq = f1_seq[cs1]
                    if seq:
                        head = seq[0]
                        now2 = cycle + (latency + 1)
                    else:
                        head = -1
                    # update access keyed by the caller
                    if caller >= 0:
                        tag = base[caller]
                        cs1 = cg_set1[caller]
                        if f1_tag[cs1] == tag:
                            cg_h1 += 1
                            if obs:
                                o_cg0[tag] += 1
                        else:
                            level = cg_ensure(tag)[1]
                            if obs:
                                o_cghc[level][tag] += 1
                        # inlined CghcEntry.record_call
                        slot = f1_idx[cs1] - 1
                        if slot < cg_K:
                            seq = f1_seq[cs1]
                            if slot < len(seq):
                                seq[slot] = callee
                            else:
                                seq.append(callee)
                            f1_idx[cs1] = slot + 2
                elif op == OP_RET:
                    returns += 1
                    instructions += overhead_instrs
                    cycle += overhead_cycles
                    fetch_cycles += overhead_cycles
                    # inlined RAS pop
                    if rcount == 0:
                        r_under += 1
                        entry = None
                    else:
                        rtop -= 1
                        if rtop < 0:
                            rtop = rdepth - 1
                        rcount -= 1
                        entry = rbuf[rtop]
                        rbuf[rtop] = None
                    actual_caller = b
                    if not (
                        entry is not None
                        and (
                            actual_caller < 0
                            or entry[2] == actual_caller
                        )
                    ):
                        cycle += penalty
                        mispredict_cycles += penalty
                        continue
                    if not cgp_inline:
                        continue
                    # ---- inlined CgpPrefetcher.on_return ----
                    # prefetch access keyed by the caller's start address
                    # from the modified RAS (a predicted return always
                    # popped an entry; entry[1] == base[entry[2]], so the
                    # set table applies)
                    tag = entry[1]
                    cs1 = cg_set1[entry[2]]
                    if f1_tag[cs1] == tag:
                        cg_h1 += 1
                        latency = cg_lat1
                        if obs:
                            o_cg0[tag] += 1
                    else:
                        latency, level = cg_ensure(tag)
                        if obs:
                            o_cghc[level][tag] += 1
                    # inlined CghcEntry.predicted_next, walked below
                    slot = f1_idx[cs1] - 1
                    seq = f1_seq[cs1]
                    if slot < len(seq):
                        head = seq[slot]
                        now2 = cycle + (latency + 1)
                    else:
                        head = -1
                    # update access keyed by the returner
                    ret_fid = a
                    tag = base[ret_fid]
                    cs1 = cg_set1[ret_fid]
                    if f1_tag[cs1] == tag:
                        cg_h1 += 1
                        if obs:
                            o_cg0[tag] += 1
                    else:
                        level = cg_ensure(tag)[1]
                        if obs:
                            o_cghc[level][tag] += 1
                    # inlined CghcEntry.reset_index
                    f1_idx[cs1] = 1
                else:
                    # SWITCH: hardware state is shared across threads
                    continue
                # ---- CGHC-triggered head prefetch (call or return) ----
                # The walk runs after the caller/returner update above:
                # that update writes only the CGHC lists, so residency,
                # ``iflag``, the memory port and the arrival heap are
                # exactly as they were when ``head``/``now2`` were
                # captured.  Walked like the NL fan: no line access
                # happens inside the window, every resident or in-flight
                # line squashes (head lines are always in range, the
                # ``head_extents`` clamp), and ascending order IS the
                # reference's per-target FIFO-port issue order.
                if head < 0:
                    continue
                if ps_cg is None:
                    ps_cg = stats.prefetch_origin(cg_origin)
                start2 = base[head]
                end2 = cg_head_end[head]
                squash = end2 - start2
                if obs:
                    o_att[start2] += 1
                    o_att[end2] -= 1
                for pl in range(start2, end2):
                    if state[pl] or iflag[pl]:
                        continue
                    squash -= 1
                    start_t = now2 if now2 > port_free else port_free
                    port_free = start_t + m_occ
                    m_trans += 1
                    i2 = (pl % l2_nsets) * l2_assoc
                    t2 = i2 + l2_assoc - 1
                    if l2ways[t2] == pl:
                        w = t2
                    else:
                        w = t2 - 1
                        while w >= i2:
                            if l2ways[w] == pl:
                                while w < t2:
                                    l2ways[w] = l2ways[w + 1]
                                    w += 1
                                l2ways[t2] = pl
                                break
                            w -= 1
                        else:
                            w = -1
                    if w >= 0:
                        m_l2h += 1
                        completion = start_t + m_hit_lat
                    else:
                        m_l2m += 1
                        l2_insert(pl)
                        completion = start_t + m_hit_lat + m_mem_lat
                    if_comp[pl] = completion
                    if_ps[pl] = ps_cg
                    iflag[pl] = 1
                    heappush(arrivals, (completion, pl))
                    if completion < next_due:
                        next_due = completion
                    ps_cg.issued += 1
                    if obs:
                        o_iss[pl] += 1
                        if lc:
                            lc_open[pl] = (cg_origin, now2, completion)
                ps_cg.squashed += squash

            # restore the canonical dict maps from the flat arrays
            # (membership is the iflag byte / state bit 2; the stats
            # rows map back to their origin keys) before anything
            # outside the kernel — EngineState capture, ``_finalize`` —
            # can observe them
            rev = {id(row): org for org, row in sprefetch.items()}
            in_flight.clear()
            fl = iflag.find(1)
            while fl >= 0:
                in_flight[fl] = (if_comp[fl], rev[id(if_ps[fl])])
                fl = iflag.find(1, fl + 1)
            untouched.clear()
            fl = state.find(3)
            while fl >= 0:
                untouched[fl] = rev[id(u_ps[fl])]
                fl = state.find(3, fl + 1)
            nl._last_line = nl_last
            if cgp_inline:
                # restore the canonical dict representation (folding in
                # the counter deltas) before anything outside the
                # kernel can observe the cache
                cg_flat.l1_hits += cg_h1
                cg_flat.write_back(cghc)
                cghc._live_flat = None

        memsys._port_free_at = port_free
        memsys._demand_free_at = port_free
        memsys.transactions += m_trans
        memsys.l2_hits += m_l2h
        memsys.l2_misses += m_l2m
        mem_l2.hits += m_l2h
        mem_l2.misses += m_l2m
        ras_obj._top = rtop
        ras_obj._count = rcount
        ras_obj.overflows += r_over
        ras_obj.underflows += r_under
        self.cycle = cycle
        self._rng_state = rng
        self._ctr = ctr
        stats.instructions = instructions
        stats.fetch_cycles = fetch_cycles
        stats.mispredict_cycles = mispredict_cycles
        stats.stall_cycles = stall_cycles
        stats.calls += calls
        stats.returns += returns
        stats.mispredicted_calls += mispredicted
        stats.line_accesses += line_accesses
        stats.demand_misses += demand_misses
        stats.l2_hits += l2_hits
        stats.memory_fetches += memory_fetches
        l1.hits += hit_count
        l1.misses += miss_count

        if obs:
            self._fold_observation(o_late, oor0)
            if lc:
                lifecycle.recorded += lc_n
            if instructions >= s_next:
                sampler.take(self)  # the last event's boundary
        self._rebuild_l1_order()
        if ev1 == compiled.n_events:
            self._finalize()
        return stats
