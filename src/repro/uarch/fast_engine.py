"""Optimized replay core: compiled traces + a batched fast path.

The reference :class:`~repro.uarch.fetch_engine.FetchEngine` re-derives
the same facts for every event: it swaps offsets, divides them into
block indices, chases ``base_line[fid] + perm[fid][block]`` through two
list indirections, and funnels every line reference — even a guaranteed
L1 hit — through the full ``_access`` machinery (arrival delivery, LRU
lookup, untouched/in-flight bookkeeping, prefetcher hook).  This module
removes that per-event work without changing a single observable number:

* **compiled traces** — each (trace, layout) pair is translated once,
  with numpy, into flat parallel arrays: per-event opcodes, pre-scaled
  instruction counts, spans into one flat list of global line addresses
  (built with the layout's precomputed translation table), a per-event
  contiguity flag, and pre-resolved call-site lines.  Compiled images
  are cached per trace object (weakly) — traces are append-only, so an
  image is reused as long as ``len(trace)`` is unchanged — and the
  work that depends on the trace alone (its content digest and the
  opcode/operand lists) is done once per trace and shared read-only
  by every layout's image.
* **an O(1) residency index** — a bytearray mirror of the L1 content
  replaces the associative ``contains``/``lookup`` scans on the hot
  paths.  Squashed prefetches — the overwhelming majority under NL/CGP
  — become two array probes and a counter bump (or one C-level range
  scan for a whole fan-out window).
* **timestamp LRU** — within the run, the L1's per-set recency lists
  are replaced by unordered way slots plus a per-line last-use stamp
  from one global counter.  A hit is a single store (no set probe, no
  shift); the victim on a fill is the minimum-stamp way, which is
  provably the same line the reference recency list would evict.  The
  ``SetAssocCache`` is reconstructed (sorted by stamp) when the run
  ends, so post-run inspection sees the exact reference state.
* **a whole-event batch** — an EXEC event whose lines are consecutive
  (compile-time flag) is checked against the residency index with one
  C-speed ``bytearray.count`` range scan; when every line is resident
  the event collapses to counter adds, one stamp slice-assign and (under
  the inlined sequential prefetcher) one ascending issue span walk.
* **specialized kernels** — a run with no prefetcher hooks at all (the
  paper's O5/OM baseline cells) takes a dedicated loop with the memory
  system's port + L2 arithmetic inlined and no in-flight/untouched
  bookkeeping (nothing can ever be in flight); prefetchers that export
  ``nl_component`` (NL, RA-NL, and CGP's within-function component)
  promise their ``on_line_access`` is exactly the sequential-NL
  automaton, so the leading-edge issue, the post-jump fan-out, and the
  same-line no-op are inlined, squash checks included; and
  :class:`~repro.core.cgp.CgpPrefetcher`'s call/return CGHC accesses
  are inlined on the flat CGHC arrays, with one function-head walk
  shared by the call and return sides.

Observation rides the same kernels.  With an
:class:`~repro.obsv.collector.AttributionCollector` attached, each
kernel records the outcomes it already classifies — demand misses,
first touches, delayed hits, evictions of untouched lines, issues,
squashes, CGHC probes — into the collector's line-indexed count arrays
and lifecycle ring, where a batched span walk records the squashes it
never visits as one covered span.  A batched event reorders nothing the
payload can see: its first-touch closes and its span's issues touch
disjoint lines at a frozen clock.

Each specialization is kept only while it pays: ``docs/BENCHMARKS.md``
("What each specialization is worth") tabulates what forcing each one
off costs on ``bench/run.py``, and lists the ones deleted for doing no
work on real traces.

Equivalence is bit-exact, not approximate: every floating-point
accumulation (cycle, stall, instructions, fetch/mispredict cycles)
performs the same IEEE-754 operations in the same order as the
reference engine, and anything the fast paths cannot prove (a pending
arrival, a non-resident line, a non-contiguous run, an unknown
prefetcher class) falls through to an inlined transcription — or the
actual hook call — of the reference classification.  The cross-engine
suites in ``tests/uarch/test_engine_equivalence.py`` and
``tests/harness/test_engine_equivalence.py`` enforce
``SimStats.to_dict()`` and attribution payload equality on golden
workloads and randomized traces.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import OrderedDict, defaultdict
from heapq import heappop, heappush

import numpy as _np

from repro.errors import SimulationError
from repro.instrument.trace import CALL, EXEC, RET, SWITCH
from repro.uarch.fetch_engine import (
    FetchEngine,
    _LCG_ADD,
    _LCG_MASK,
    _LCG_MULT,
)
from repro.uarch.prefetch.base import Prefetcher
from repro.uarch.prefetch.nl import NextNLinePrefetcher, RunAheadNLPrefetcher
from repro.uarch.ras import RasEntry

OP_EXEC = EXEC
OP_CALL = CALL
OP_RET = RET
OP_SWITCH = SWITCH


class CompiledTrace:
    """A trace pre-translated for one layout.

    Parallel per-event lists (plain Python lists — CPython indexes them
    faster than numpy scalars, and their elements are exact int/float,
    which the bit-identical arithmetic contract requires):

    * ``ops`` — opcode per event (``OP_*``),
    * ``ea``/``eb`` — the raw ``a``/``b`` operands (callee/caller fids);
      these three depend on the trace alone, and the compile cache hands
      every layout's image of one trace the same lists,
    * ``n_scaled`` — EXEC instruction count pre-multiplied by the
      layout's ``instr_scale`` (float iff ``instr_scale`` is a float,
      matching the reference engine's arithmetic types),
    * ``seg_start``/``seg_end`` — an EXEC event's half-open span into
      ``lines``,
    * ``lines`` — flat global line addresses of every EXEC reference,
    * ``contig`` — 1 iff the event's lines are consecutive ascending
      addresses (the whole-event batch's precondition),
    * ``callsite`` — pre-resolved call-site line for CALL events with a
      known caller.
    """

    __slots__ = (
        "n_events", "ops", "ea", "eb", "n_scaled",
        "seg_start", "seg_end", "lines", "contig", "callsite",
    )

    def __init__(self, n_events, ops, ea, eb, n_scaled, seg_start,
                 seg_end, lines, contig, callsite):
        self.n_events = n_events
        self.ops = ops
        self.ea = ea
        self.eb = eb
        self.n_scaled = n_scaled
        self.seg_start = seg_start
        self.seg_end = seg_end
        self.lines = lines
        self.contig = contig
        self.callsite = callsite


def compile_trace(trace, layout):
    """Translate ``trace`` for ``layout`` (no caching; see ``_compiled``)."""
    return _compile_for_layout(trace, layout, *_event_lists(trace))


def _event_lists(trace):
    """The part of a compiled image that depends on the trace alone:
    the ``ops``/``ea``/``eb`` lists, which every layout's image of one
    trace can share read-only."""
    return trace.kinds.tolist(), trace.a.tolist(), trace.b.tolist()


def _compile_for_layout(trace, layout, ops, ea, eb):
    """``compile_trace`` given the trace's :func:`_event_lists`."""
    n = len(trace)
    tbl, bb = layout.translation_table()
    tbl_np = _np.frombuffer(tbl, dtype=_np.int64)
    bb_np = _np.frombuffer(bb, dtype=_np.int64)
    sizes_np = _np.asarray(layout.size_lines, dtype=_np.int64)
    nfuncs = bb_np.shape[0]
    num = layout.num
    den = layout.den
    instr_scale = layout.instr_scale

    kinds = _np.frombuffer(trace.kinds, dtype=_np.int8, count=n)
    a = _np.frombuffer(trace.a, dtype=_np.int64, count=n)
    b = _np.frombuffer(trace.b, dtype=_np.int64, count=n)
    c = _np.frombuffer(trace.c, dtype=_np.int64, count=n)
    if ((kinds < EXEC) | (kinds > SWITCH)).any():
        bad = int(kinds[((kinds < EXEC) | (kinds > SWITCH))][0])
        raise SimulationError(f"unknown trace event kind {bad}")

    # ---- EXEC events: expand offset ranges into global line spans ----
    ex_idx = _np.nonzero(kinds == EXEC)[0]
    fid = a[ex_idx]
    lo = _np.minimum(b[ex_idx], c[ex_idx])
    hi = _np.maximum(b[ex_idx], c[ex_idx])
    if ex_idx.size:
        if (fid < 0).any() or (fid >= nfuncs).any():
            raise SimulationError("EXEC event references unknown function")
        if (lo < 0).any():
            raise SimulationError("EXEC event has a negative offset")
    first_blk = (lo * num) // den
    last_blk = (hi * num) // den
    if ex_idx.size and (last_blk >= sizes_np[fid]).any():
        raise SimulationError("EXEC offset beyond function extent")
    seg_lens = last_blk - first_blk + 1
    seg_end_ex = _np.cumsum(seg_lens)
    seg_start_ex = seg_end_ex - seg_lens
    total = int(seg_end_ex[-1]) if ex_idx.size else 0
    flat_idx = _np.repeat(
        bb_np[fid] + first_blk - seg_start_ex, seg_lens
    ) + _np.arange(total, dtype=_np.int64)
    lines_np = tbl_np[flat_idx]

    contig_full = _np.zeros(n, dtype=_np.int64)
    if ex_idx.size:
        # contiguity: no non-adjacent pair inside the segment
        breaks = _np.zeros(total, dtype=_np.int64)
        if total > 1:
            _np.cumsum(lines_np[1:] != lines_np[:-1] + 1, out=breaks[1:])
        contig_full[ex_idx] = breaks[seg_end_ex - 1] == breaks[seg_start_ex]

    if isinstance(instr_scale, float):
        n_scaled_ex = (hi - lo + 1).astype(_np.float64) * instr_scale
        n_scaled_full = _np.zeros(n, dtype=_np.float64)
    else:
        n_scaled_ex = (hi - lo + 1) * instr_scale
        n_scaled_full = _np.zeros(n, dtype=_np.int64)
    n_scaled_full[ex_idx] = n_scaled_ex
    seg_start_full = _np.zeros(n, dtype=_np.int64)
    seg_end_full = _np.zeros(n, dtype=_np.int64)
    seg_start_full[ex_idx] = seg_start_ex
    seg_end_full[ex_idx] = seg_end_ex

    # ---- CALL events: pre-resolve the call-site line ----
    callsite_full = _np.zeros(n, dtype=_np.int64)
    call_idx = _np.nonzero(kinds == CALL)[0]
    callers = b[call_idx]
    known = call_idx[callers >= 0]
    kc = b[known]
    if known.size:
        if (kc >= nfuncs).any():
            raise SimulationError("CALL event references unknown caller")
        cs_off = c[known]
        if (cs_off < 0).any():
            raise SimulationError("CALL event has a negative call-site offset")
        cs_blk = (cs_off * num) // den
        if (cs_blk >= sizes_np[kc]).any():
            raise SimulationError("call-site offset beyond function extent")
        callsite_full[known] = tbl_np[bb_np[kc] + cs_blk]

    return CompiledTrace(
        n_events=n,
        ops=ops,
        ea=ea,
        eb=eb,
        n_scaled=n_scaled_full.tolist(),
        seg_start=seg_start_full.tolist(),
        seg_end=seg_end_full.tolist(),
        lines=lines_np.tolist(),
        contig=contig_full.tolist(),
        callsite=callsite_full.tolist(),
    )


class _TraceEntry:
    """One trace's compile-cache entry, valid while the trace still has
    ``n_events`` events (traces are append-only).

    It holds the trace-side work, done once for every layout: the
    ``digest`` of the trace's event buffers, which :func:`compile_key`
    extends with the layout, and the shared :func:`_event_lists`,
    built by the first compile that misses the content cache.
    ``images`` lists the ``(layout, CompiledTrace)`` pairs served so far.
    """

    __slots__ = ("n_events", "digest", "events", "images")

    def __init__(self, trace):
        self.n_events = len(trace)
        h = hashlib.blake2b(digest_size=16)
        for buffer in (trace.kinds, trace.a, trace.b, trace.c):
            h.update(buffer)
        self.digest = h.digest()
        self.events = None
        self.images = []


#: trace -> _TraceEntry; weak on the trace so cached images die with it
#: (and a recycled id can never alias a new trace).
_COMPILE_CACHE = weakref.WeakKeyDictionary()

#: content hash -> CompiledTrace (bounded LRU).  The weak per-object
#: cache above is the fast path; this layer is keyed like the harness
#: result cache — by a fingerprint of the *inputs* — so equal-content
#: (trace, layout) pairs with different identities (a shard worker's
#: unpickled copies, a benchmark's isolated per-engine layouts) reuse
#: one compiled image instead of recompiling.
_CONTENT_CACHE = OrderedDict()
_CONTENT_CACHE_LIMIT = 16


def _trace_entry(trace):
    entry = _COMPILE_CACHE.get(trace)
    if entry is None or entry.n_events != len(trace):
        entry = _COMPILE_CACHE[trace] = _TraceEntry(trace)
    return entry


def compile_key(trace, layout):
    """Content fingerprint of everything a compiled image depends on.

    Extends the digest of the trace's raw event buffers (taken once per
    trace, see :class:`_TraceEntry`) with the layout's flat translation
    tables and its scaling parameters — the complete input set of
    :func:`compile_trace` — so the key is stable across object
    identities and process boundaries.
    """
    tbl, bb = layout.translation_table()
    h = hashlib.blake2b(digest_size=16)
    h.update(_trace_entry(trace).digest)
    h.update(tbl)
    h.update(bb)
    h.update(repr((layout.num, layout.den, layout.instr_scale,
                   layout.total_lines)).encode("ascii"))
    return h.hexdigest()


#: layout -> {(n1_sets, n2_sets): (set1_of, set2_of)}; weak on the
#: layout, like the compile cache.  ``set1_of[fid]``/``set2_of[fid]``
#: are the CGHC set indices of the function's entry-line tag — compiled
#: once per (layout, CGHC geometry) so the flat-CGHC kernels never
#: compute a modulo on their per-event path.  Keying on the geometry
#: pair means two configs with different CGHC shapes on one layout can
#: never read each other's tables.
_CGHC_SET_CACHE = weakref.WeakKeyDictionary()


def _cghc_set_tables(layout, n1_sets, n2_sets):
    """fid -> L1/L2 set index tables for the flat-CGHC kernels.

    ``set2_of`` is ``None`` for one-level caches.  Cached per (layout,
    geometry); dropped by :func:`clear_compile_cache` with the compiled
    traces, so a swapped-out layout can never serve stale tables.
    """
    key = (n1_sets, n2_sets)
    per_layout = _CGHC_SET_CACHE.get(layout)
    if per_layout is None:
        per_layout = _CGHC_SET_CACHE[layout] = {}
    tables = per_layout.get(key)
    if tables is None:
        base = layout.base_line
        set1 = [line % n1_sets for line in base]
        set2 = [line % n2_sets for line in base] if n2_sets else None
        tables = per_layout[key] = (set1, set2)
    return tables


def clear_compile_cache():
    """Drop every cached compiled trace — the identity-keyed layer and
    the content-keyed LRU — and the compiled CGHC set-index tables.
    Benchmarks call this between engine timing regimes so neither
    engine's numbers ride on state the other built; tests use it to
    force cold compiles (and to prove layout swaps cannot read stale
    CGHC tables)."""
    _CONTENT_CACHE.clear()
    _COMPILE_CACHE.clear()
    _CGHC_SET_CACHE.clear()


def _compiled(trace, layout):
    entry = _trace_entry(trace)
    for cached_layout, compiled in entry.images:
        if cached_layout is layout:
            return compiled
    key = compile_key(trace, layout)
    compiled = _CONTENT_CACHE.get(key)
    if compiled is None:
        if entry.events is None:
            entry.events = _event_lists(trace)
        compiled = _compile_for_layout(trace, layout, *entry.events)
        _CONTENT_CACHE[key] = compiled
        if len(_CONTENT_CACHE) > _CONTENT_CACHE_LIMIT:
            _CONTENT_CACHE.popitem(last=False)
    else:
        _CONTENT_CACHE.move_to_end(key)
    entry.images.append((layout, compiled))
    return compiled


class FastFetchEngine(FetchEngine):
    """Drop-in replacement for :class:`FetchEngine` with the same stats.

    The inlined paths are transcriptions of the reference ``_access``/
    ``issue_prefetch``/hook bodies (same branches, same operation order)
    with the associative scans replaced by the ``_state`` residency
    index and the recency lists by per-line timestamps.  During ``run()``
    the ``l1i`` way slots are *unordered* (stamps carry the LRU order);
    the reference recency layout is reconstructed before the run returns.
    """

    def __init__(self, config, layout, prefetcher=None, seed=12345,
                 collector=None):
        super().__init__(config, layout, prefetcher=prefetcher, seed=seed,
                         collector=collector)
        total = layout.total_lines
        #: per-line residency state, one byte per line: bit 0 set while
        #: the line is resident in L1, bit 1 set while it is resident AND
        #: still untouched since its prefetch arrived (the key set of
        #: ``_untouched``).  Non-resident lines are exactly the zero
        #: bytes, so the batched kernels' C-level range scans
        #: (``count(0, ...)``/``find(0, ...)``) keep working on the
        #: merged byte, and truthiness still means "resident".
        self._state = bytearray(total)
        #: bytearray mirror of the ``_in_flight`` key set — lets the
        #: batched paths prove "this prefetch target squashes" (resident
        #: OR in flight) with C-level range scans instead of dict probes
        self._iflag = bytearray(total)
        #: last-use stamp per resident line; victim = min stamp in set.
        #: Stamps are issued by one monotone counter, so min-stamp is
        #: exactly the head of the reference engine's recency list.
        self._stamp = [0] * total
        self._ctr = 0

    def issue_prefetch(self, line, origin, delay=0):
        """Reference semantics with the O(1) residency probe.

        Called by the prefetcher hooks the kernels do not inline.  An
        out-of-range request reaches the collector through the kernel's
        exit fold of the ``SimStats`` deltas, like the inlined ones."""
        stats = self.stats.prefetch_origin(origin)
        collector = self.collector
        if line < 0 or line >= self.layout.total_lines:
            stats.out_of_range += 1
            return False
        if line in self._in_flight or self._state[line]:
            stats.squashed += 1
            if collector is not None:
                collector.squashed(line, origin)
            return False
        completion, _from_mem = self.memsys.request(
            line, self.cycle + delay, is_prefetch=True
        )
        self._in_flight[line] = (completion, origin)
        self._iflag[line] = 1
        heappush(self._arrivals, (completion, line))
        stats.issued += 1
        if collector is not None:
            collector.issued(line, origin, self.cycle + delay, completion)
        return True

    def prefetch_function_head(self, fid, n_lines, origin, delay=0):
        """Batched head prefetch (CGP's CGHC-triggered requests).  A
        function's head lines are always inside the address space, so
        every request squashes or issues."""
        stats = self.stats.prefetch_origin(origin)
        start = self.layout.base_line[fid]
        span = self.layout.size_lines[fid]
        count = n_lines if n_lines < span else span
        in_flight = self._in_flight
        state = self._state
        iflag = self._iflag
        arrivals = self._arrivals
        request = self.memsys.request
        now = self.cycle + delay
        collector = self.collector
        for line in range(start, start + count):
            if line in in_flight or state[line]:
                stats.squashed += 1
                if collector is not None:
                    collector.squashed(line, origin)
            else:
                completion, _from_mem = request(line, now, is_prefetch=True)
                in_flight[line] = (completion, origin)
                iflag[line] = 1
                heappush(arrivals, (completion, line))
                stats.issued += 1
                if collector is not None:
                    collector.issued(line, origin, now, completion)

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

    def run_range(self, trace, start=0, end=None, finalize=None):
        """Replay events ``[start, end)`` of ``trace``.

        ``run()`` is ``run_range(trace, 0, None)``.  The sharded
        replayer (:mod:`repro.uarch.shard`) drives the same kernels one
        boundary-to-boundary segment at a time; ``finalize`` controls
        whether the end-of-run classification (untouched/in-flight
        prefetches become *useless*, derived totals are materialized)
        happens — it defaults to "only when the segment reaches the end
        of the trace", and a recording pass passes ``False`` explicitly
        to keep state live across a boundary at the trace's end.
        """
        compiled = _compiled(trace, self.layout)
        ev0 = start
        ev1 = compiled.n_events if end is None else end
        if not 0 <= ev0 <= ev1 <= compiled.n_events:
            raise SimulationError("event range outside the trace")
        if finalize is None:
            finalize = ev1 == compiled.n_events
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
        memsys = self.memsys
        memsys_request = memsys.request
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
        untouched_pop = untouched.pop
        in_flight = self._in_flight
        arrivals = self._arrivals
        sprefetch = stats.prefetch

        ops = compiled.ops
        ea = compiled.ea
        eb = compiled.eb
        n_scaled = compiled.n_scaled
        seg_start = compiled.seg_start
        seg_end = compiled.seg_end
        lines = compiled.lines
        contig = compiled.contig
        callsite = compiled.callsite

        cls = type(prefetcher)
        line_hook = cls.on_line_access is not Prefetcher.on_line_access
        do_call_hook = (
            not perfect and cls.on_call is not Prefetcher.on_call
        )
        do_ret_hook = (
            not perfect and cls.on_return is not Prefetcher.on_return
        )

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

        if (
            not perfect
            and not line_hook
            and not do_call_hook
            and not do_ret_hook
            and not getattr(memsys, "_demand_priority", False)
        ):
            # ---- specialized kernel: no prefetcher hooks at all ----
            # Nothing ever issues a prefetch, so the in-flight map, the
            # arrival heap, and the untouched index stay empty for the
            # whole run; every miss is a demand miss, and the memory
            # system's FIFO-port + L2 arithmetic is inlined.
            l2 = memsys.l2
            l2ways = l2.ways
            l2_nsets = l2.n_sets
            l2_assoc = l2.assoc
            l2_insert = l2.insert
            hit_lat = memsys._hit_latency
            mem_lat = memsys._memory_latency
            occupancy = memsys._occupancy
            port_free = memsys._port_free_at
            transactions = 0
            l2h = 0
            l2m = 0
            for i in range(ev0, ev1):
                if obs and instructions >= s_next:
                    sampler.record(
                        instructions, cycle,
                        stats.line_accesses + line_accesses,
                        stats.demand_misses + demand_misses,
                        sprefetch, s_cghc,
                    )
                    s_next = sampler.next_at
                op = ops[i]
                if op == OP_EXEC:
                    nf = n_scaled[i]
                    d = nf * cpi
                    instructions += nf
                    cycle += d
                    fetch_cycles += d
                    s = seg_start[i]
                    e = seg_end[i]
                    # whole-event batch: with no prefetcher there are
                    # no arrivals and hits never read the clock, so a
                    # contiguous fully-resident event is pure hits —
                    # one C-level residency count decides it
                    if contig[i]:
                        a0 = lines[s]
                        k = e - s
                        aend = a0 + k
                        if state.count(0, a0, aend) == 0:
                            line_accesses += k
                            hit_count += k
                            stamp[a0:aend] = range(ctr, ctr + k)
                            ctr += k
                            continue
                    for line in lines[s:e]:
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
                        # inlined MemorySystem.request (non-priority)
                        start_t = (
                            cycle if cycle > port_free else port_free
                        )
                        port_free = start_t + occupancy
                        transactions += 1
                        i2 = (line % l2_nsets) * l2_assoc
                        t2 = i2 + l2_assoc - 1
                        if l2ways[t2] == line:
                            l2h += 1
                            l2_hits += 1
                            completion = start_t + hit_lat
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
                                l2h += 1
                                l2_hits += 1
                                completion = start_t + hit_lat
                            else:
                                l2m += 1
                                memory_fetches += 1
                                l2_insert(line)
                                completion = start_t + hit_lat + mem_lat
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
                    caller = eb[i]
                    if caller >= 0:
                        # inlined RAS push (no hook ever sees entries,
                        # so a plain tuple stands in for RasEntry)
                        rbuf[rtop] = (callsite[i], base[caller], caller)
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
                    actual_caller = eb[i]
                    if not (
                        entry is not None
                        and (
                            actual_caller < 0
                            or entry[2] == actual_caller
                        )
                    ):
                        cycle += penalty
                        mispredict_cycles += penalty
                # OP_SWITCH: hardware state is shared across threads
            memsys._port_free_at = port_free
            memsys._demand_free_at = port_free
            memsys.transactions += transactions
            memsys.l2_hits += l2h
            memsys.l2_misses += l2m
            l2.hits += l2h
            l2.misses += l2m
        else:
            # ---- general kernel ----
            # sequential-prefetch inlining (see module docstring)
            nl = None if perfect else getattr(
                prefetcher, "nl_component", None
            )
            if nl is not None and type(nl) not in (
                NextNLinePrefetcher, RunAheadNLPrefetcher
            ):
                nl = None
            nl_inline = nl is not None
            if nl_inline:
                nl_last = nl._last_line
                nl_lead = nl.seq_lead  # leading-edge issue distance
                nl_fan = getattr(nl, "run_ahead", 0)  # fan-out window
                nl_n = nl.n_lines
                nl_origin = nl.origin
                ps_nl = sprefetch.get(nl_origin)
            # on pure hits a flag-gated hook (tagged NL) is a no-op
            hook_on_hit = (
                line_hook
                and not nl_inline
                and not getattr(prefetcher, "hit_transparent", False)
            )
            # an event that is entirely resident-and-touched can batch
            # when the only per-line work a pure hit performs is the
            # inlined NL automaton (or nothing at all: a hook that
            # skips pure hits never fires inside such an event)
            batch_ok = nl_inline or not hook_on_hit
            # first-touch-transparent batching: the plain-NL automaton
            # (and an absent line hook) is insensitive to whether a hit
            # first-touches a prefetched line, so runs may also batch
            # across resident-*untouched* lines (state 3) with the
            # touch accounting folded in by a find(3) walk; a
            # hit-transparent hook (tagged NL) fires on first touches
            # and must see them per-line
            batch_touch = nl_inline or not line_hook

            # CGP call/return CGHC accesses, inlined (exact class,
            # finite direct-mapped history cache only): the dict cache
            # is flattened into parallel arrays at kernel entry, the
            # dominant first-level probe becomes one tag compare
            # against a precompiled set-index table, and the rare
            # exchange/miss path runs ``FlatCghc.ensure`` on the same
            # arrays.  The dict representation is stale until
            # ``write_back`` at kernel exit; the live image is parked
            # on the cache so mid-run observers (``entry_count``) read
            # current state.
            cgp_inline = False
            if do_call_hook and do_ret_hook:
                from repro.core.cgp import ORIGIN_CGHC, CgpPrefetcher
                from repro.core.cghc import FlatCghc

                if (
                    type(prefetcher) is CgpPrefetcher
                    and not prefetcher.cghc.infinite
                    and prefetcher.cghc.l1.ways == 1
                ):
                    cgp_inline = True
                    cgp_n = prefetcher.lines_per_prefetch
                    cghc = prefetcher.cghc
                    cg_flat = FlatCghc.from_cache(cghc)
                    cghc._live_flat = cg_flat
                    cg_ensure = cg_flat.ensure
                    f1_tag = cg_flat.l1_tag
                    f1_idx = cg_flat.l1_idx
                    f1_len = cg_flat.l1_len
                    f1_seq = cg_flat.l1_seq
                    cg_K = cg_flat.slots
                    cg_lat1 = cg_flat.lat1
                    # fid -> L1 set index of the function's entry-line
                    # tag, compiled once per (layout, CGHC geometry)
                    cg_set1 = _cghc_set_tables(
                        layout, cg_flat.n1, cg_flat.n2
                    )[0]
                    entry_lines = prefetcher._entry
                    # per-layout head table: fid -> one-past-last line
                    # of the CGHC-triggered head-prefetch window, the
                    # min(N, size) clamp folded in at build time
                    cg_head_end = layout.head_extents(cgp_n)
                    cg_origin = ORIGIN_CGHC
                    ps_cg = sprefetch.get(cg_origin)
                    cg_h1 = 0

            # a plain tuple can stand in for RasEntry (index access is
            # identical) unless a real return hook receives the entries
            ras_plain = cgp_inline or not do_ret_hook

            # memory-system inlining is sound only when no real hook can
            # run (a hook could issue through the shared path and would
            # then see a stale port clock)
            inline_mem = (
                not getattr(memsys, "_demand_priority", False)
                and (nl_inline or not line_hook)
                and (cgp_inline or not do_call_hook)
                and (cgp_inline or not do_ret_hook)
            )
            if inline_mem:
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

            # completion time of the earliest outstanding prefetch,
            # hoisted out of the arrival heap: the per-line delivery
            # gate becomes one float compare
            next_due = arrivals[0][0] if arrivals else _inf

            # ---- flat prefetch lifecycle ----
            # When every hook is inlined (no callback can reach the
            # engine's reference-path methods mid-kernel), the
            # in-flight and untouched maps are held as line-indexed
            # arrays for the whole kernel: membership stays the
            # existing ``iflag`` byte / state bit 2, a record is the
            # completion time plus the issuing origin's stats row in
            # two parallel slots, and the canonical dicts are rebuilt
            # at kernel exit — the FlatCghc write-back pattern — so
            # EngineState snapshots and ``_finalize`` never see the
            # flat form.  A record consumed by a delayed hit leaves its
            # heap entry behind, so a drain install additionally
            # requires the popped completion to match the live record
            # (the dict path gets this for free from ``pop``).
            fast_life = (
                (nl_inline or not line_hook)
                and (cgp_inline or not do_call_hook)
                and (cgp_inline or not do_ret_hook)
            )
            if fast_life:
                if_comp = [0.0] * total_lines
                if_ps = [None] * total_lines
                for fl, fr in in_flight.items():
                    if_comp[fl] = fr[0]
                    if_ps[fl] = sprefetch[fr[1]]
                u_ps = [None] * total_lines
                for fl, fo in untouched.items():
                    u_ps[fl] = sprefetch[fo]

            for i in range(ev0, ev1):
                if obs and instructions >= s_next:
                    sampler.record(
                        instructions, cycle,
                        stats.line_accesses + line_accesses,
                        stats.demand_misses + demand_misses,
                        sprefetch, s_cghc,
                    )
                    s_next = sampler.next_at
                op = ops[i]
                if op == OP_EXEC:
                    nf = n_scaled[i]
                    d = nf * cpi
                    instructions += nf
                    cycle += d
                    fetch_cycles += d
                    if perfect:
                        continue
                    s = seg_start[i]
                    e = seg_end[i]
                    if batch_ok and contig[i] and e - s > 1:
                        # ---- whole-event batch attempt ----
                        # One cheap residency count decides it: a
                        # contiguous multi-line event whose lines are
                        # all resident is pure hits — the cycle clock
                        # is frozen across it, residency cannot change
                        # mid-event, and the inlined NL automaton's
                        # issue attempts over the event collapse into
                        # one ascending contiguous target span
                        # (docs/BENCHMARKS.md) walked in the
                        # reference's per-target FIFO-port order.  Due
                        # arrivals are drained up front (exactly what
                        # the per-line loop would do on its first
                        # iteration).  A blocked event — any line
                        # absent, in flight, or (under a first-touch
                        # sensitive hook) untouched — costs only the
                        # count and falls through to the per-line
                        # loop, which re-drains as it goes.
                        if cycle >= next_due:
                            # drain due arrivals (same install as
                            # the per-line loop) so a pending
                            # delivery never blocks batching
                            while arrivals and arrivals[0][0] <= cycle:
                                _arrival, aline = heappop(arrivals)
                                if fast_life:
                                    if (
                                        not iflag[aline]
                                        or if_comp[aline] != _arrival
                                    ):
                                        continue
                                else:
                                    record = in_flight.pop(aline, None)
                                    if record is None:
                                        continue
                                iflag[aline] = 0
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
                                        if fast_life:
                                            u_ps[victim].useless += 1
                                        else:
                                            vo = untouched_pop(victim)
                                            sprefetch[vo].useless += 1
                                        if obs:
                                            o_use[victim] += 1
                                            if lc:
                                                lc_n += 1
                                                lc_ring((
                                                    victim, lc_pop(victim),
                                                    "useless", cycle,
                                                ))
                                    state[victim] = 0
                                state[aline] = 3
                                stamp[aline] = ctr
                                ctr += 1
                                if fast_life:
                                    u_ps[aline] = if_ps[aline]
                                else:
                                    untouched[aline] = record[1]
                            next_due = (
                                arrivals[0][0] if arrivals else _inf
                            )
                        a0 = lines[s]
                        k = e - s
                        aend = a0 + k
                        if not state.count(0, a0, aend) and (
                            batch_touch
                            or state.count(1, a0, aend) == k
                        ):
                            line_accesses += k
                            hit_count += k
                            stamp[a0:aend] = range(ctr, ctr + k)
                            ctr += k
                            if batch_touch:
                                # fold in the first touches the
                                # per-line loop would have classified
                                z = state.find(3, a0, aend)
                                while z >= 0:
                                    state[z] = 1
                                    if fast_life:
                                        u_ps[z].pref_hits += 1
                                    else:
                                        sprefetch[
                                            untouched_pop(z)
                                        ].pref_hits += 1
                                    if obs:
                                        o_ph[z] += 1
                                        if lc:
                                            lc_n += 1
                                            lc_ring((
                                                z, lc_pop(z),
                                                "pref_hit", cycle,
                                            ))
                                    z = state.find(3, z + 1, aend)
                            if not nl_inline:
                                continue
                            # one span for the whole event: continuing
                            # (every line a leading edge), resuming
                            # after a repeat, or a jump whose fan-out
                            # window abuts the following leading-edge
                            # targets (seq_lead == run_ahead + n_lines);
                            # k > 1 makes the span non-empty in every
                            # case
                            if a0 == nl_last + 1:
                                t0 = a0 + nl_lead
                            elif a0 == nl_last:
                                t0 = a0 + 1 + nl_lead
                            else:
                                t0 = a0 + nl_fan + 1
                            t1 = aend + nl_lead
                            nl_last = aend - 1
                            if ps_nl is None:
                                ps_nl = stats.prefetch_origin(nl_origin)
                            t1c = (
                                t1 if t1 <= total_lines else total_lines
                            )
                            if t1c <= t0:
                                ps_nl.out_of_range += t1 - t0
                                continue
                            if t1 > t1c:
                                ps_nl.out_of_range += t1 - t1c
                            squash = t1c - t0
                            if obs:
                                o_att[t0] += 1
                                o_att[t1c] -= 1
                            tz = state.find(0, t0, t1c)
                            while tz >= 0 and iflag[tz]:
                                tz = state.find(0, tz + 1, t1c)
                            while tz >= 0:
                                squash -= 1
                                if inline_mem:
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
                                            start_t
                                            + m_hit_lat
                                            + m_mem_lat
                                        )
                                else:
                                    completion, _mem = memsys_request(
                                        tz, cycle, is_prefetch=True
                                    )
                                if fast_life:
                                    if_comp[tz] = completion
                                    if_ps[tz] = ps_nl
                                else:
                                    in_flight[tz] = (completion, nl_origin)
                                iflag[tz] = 1
                                heappush(arrivals, (completion, tz))
                                if completion < next_due:
                                    next_due = completion
                                ps_nl.issued += 1
                                if obs:
                                    o_iss[tz] += 1
                                    if lc:
                                        lc_open[tz] = (
                                            nl_origin, cycle, completion
                                        )
                                tz = state.find(0, tz + 1, t1c)
                                while tz >= 0 and iflag[tz]:
                                    tz = state.find(0, tz + 1, t1c)
                            ps_nl.squashed += squash
                            continue
                    for line in lines[s:e]:
                        # ---- inlined reference _access ----
                        if cycle >= next_due:
                            while arrivals and arrivals[0][0] <= cycle:
                                _arrival, aline = heappop(arrivals)
                                if fast_life:
                                    if (
                                        not iflag[aline]
                                        or if_comp[aline] != _arrival
                                    ):
                                        continue
                                else:
                                    record = in_flight.pop(aline, None)
                                    if record is None:
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
                                        if fast_life:
                                            u_ps[victim].useless += 1
                                        else:
                                            vo = untouched_pop(victim)
                                            sprefetch[vo].useless += 1
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
                                if fast_life:
                                    u_ps[aline] = if_ps[aline]
                                else:
                                    untouched[aline] = record[1]
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
                            missed = False
                            if state[line] & 2:
                                state[line] = 1
                                if fast_life:
                                    u_ps[line].pref_hits += 1
                                else:
                                    sprefetch[
                                        untouched_pop(line)
                                    ].pref_hits += 1
                                if obs:
                                    o_ph[line] += 1
                                    if lc:
                                        lc_n += 1
                                        lc_ring((
                                            line, lc_pop(line),
                                            "pref_hit", cycle,
                                        ))
                                first_touch = True
                            else:
                                first_touch = False
                        else:
                            miss_count += 1
                            if iflag[line]:
                                # delayed hit: stall residual latency
                                iflag[line] = 0
                                if fast_life:
                                    arrival = if_comp[line]
                                    ps = if_ps[line]
                                else:
                                    arrival, origin0 = in_flight.pop(line)
                                    ps = sprefetch[origin0]
                                ps.delayed_hits += 1
                                stall = arrival - cycle
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
                                first_touch = True
                                missed = False
                            else:
                                # demand miss
                                demand_misses += 1
                                if obs:
                                    o_dem[line] += 1
                                if inline_mem:
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
                                                    l2ways[w] = (
                                                        l2ways[w + 1]
                                                    )
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
                                else:
                                    completion, from_mem = memsys_request(
                                        line, cycle, is_prefetch=False
                                    )
                                    if from_mem:
                                        memory_fetches += 1
                                        if obs:
                                            o_mem[line] += 1
                                    else:
                                        l2_hits += 1
                                stall = completion - cycle
                                cycle += stall
                                stall_cycles += stall
                                missed = True
                                first_touch = False
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
                                    if fast_life:
                                        u_ps[victim].useless += 1
                                    else:
                                        vo = untouched_pop(victim)
                                        sprefetch[vo].useless += 1
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
                        # ---- prefetcher hook ----
                        if nl_inline:
                            if line == nl_last + 1:
                                # leading edge: issue line + lead
                                pl = line + nl_lead
                                if ps_nl is None:
                                    ps_nl = stats.prefetch_origin(
                                        nl_origin
                                    )
                                if pl < 0 or pl >= total_lines:
                                    ps_nl.out_of_range += 1
                                elif state[pl] or iflag[pl]:
                                    ps_nl.squashed += 1
                                    if obs:
                                        o_att[pl] += 1
                                        o_att[pl + 1] -= 1
                                else:
                                    if inline_mem:
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
                                                        l2ways[w] = (
                                                            l2ways[w + 1]
                                                        )
                                                        w += 1
                                                    l2ways[t2] = pl
                                                    break
                                                w -= 1
                                            else:
                                                w = -1
                                        if w >= 0:
                                            m_l2h += 1
                                            completion = (
                                                start_t + m_hit_lat
                                            )
                                        else:
                                            m_l2m += 1
                                            l2_insert(pl)
                                            completion = (
                                                start_t
                                                + m_hit_lat
                                                + m_mem_lat
                                            )
                                    else:
                                        completion, _mem = memsys_request(
                                            pl, cycle, is_prefetch=True
                                        )
                                    if fast_life:
                                        if_comp[pl] = completion
                                        if_ps[pl] = ps_nl
                                    else:
                                        in_flight[pl] = (
                                            completion, nl_origin
                                        )
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
                                # [t0, t1) as one batched span walk.
                                # No line access happens inside a fan,
                                # so residency/in-flight state is
                                # frozen while it runs: ``find`` jumps
                                # straight to the targets that actually
                                # issue (ascending order IS the
                                # reference's per-target FIFO port
                                # order) and every skipped in-range
                                # target squashes — resident or in
                                # flight (``iflag``)
                                if ps_nl is None:
                                    ps_nl = stats.prefetch_origin(
                                        nl_origin
                                    )
                                t0 = line + nl_fan + 1
                                t1 = t0 + nl_n
                                t1c = (
                                    t1 if t1 <= total_lines
                                    else total_lines
                                )
                                if t1c <= t0:
                                    ps_nl.out_of_range += nl_n
                                else:
                                    if t1 > t1c:
                                        ps_nl.out_of_range += t1 - t1c
                                    squash = t1c - t0
                                    if obs:
                                        o_att[t0] += 1
                                        o_att[t1c] -= 1
                                    tz = state.find(0, t0, t1c)
                                    while tz >= 0 and iflag[tz]:
                                        tz = state.find(
                                            0, tz + 1, t1c
                                        )
                                    while tz >= 0:
                                        squash -= 1
                                        if inline_mem:
                                            start_t = (
                                                cycle
                                                if cycle > port_free
                                                else port_free
                                            )
                                            port_free = (
                                                start_t + m_occ
                                            )
                                            m_trans += 1
                                            i2 = (
                                                (tz % l2_nsets)
                                                * l2_assoc
                                            )
                                            t2 = i2 + l2_assoc - 1
                                            if l2ways[t2] == tz:
                                                w = t2
                                            else:
                                                w = t2 - 1
                                                while w >= i2:
                                                    if (
                                                        l2ways[w]
                                                        == tz
                                                    ):
                                                        while w < t2:
                                                            l2ways[
                                                                w
                                                            ] = l2ways[
                                                                w + 1
                                                            ]
                                                            w += 1
                                                        l2ways[
                                                            t2
                                                        ] = tz
                                                        break
                                                    w -= 1
                                                else:
                                                    w = -1
                                            if w >= 0:
                                                m_l2h += 1
                                                completion = (
                                                    start_t
                                                    + m_hit_lat
                                                )
                                            else:
                                                m_l2m += 1
                                                l2_insert(tz)
                                                completion = (
                                                    start_t
                                                    + m_hit_lat
                                                    + m_mem_lat
                                                )
                                        else:
                                            completion, _mem = (
                                                memsys_request(
                                                    tz, cycle,
                                                    is_prefetch=True,
                                                )
                                            )
                                        if fast_life:
                                            if_comp[tz] = completion
                                            if_ps[tz] = ps_nl
                                        else:
                                            in_flight[tz] = (
                                                completion, nl_origin
                                            )
                                        iflag[tz] = 1
                                        heappush(
                                            arrivals,
                                            (completion, tz),
                                        )
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
                                        tz = state.find(
                                            0, tz + 1, t1c
                                        )
                                        while tz >= 0 and iflag[tz]:
                                            tz = state.find(
                                                0, tz + 1, t1c
                                            )
                                    ps_nl.squashed += squash
                                nl_last = line
                            # line == nl_last: automaton no-op
                        elif line_hook and (
                            hook_on_hit or missed or first_touch
                        ):
                            self.cycle = cycle
                            self._ctr = ctr
                            self.last_access_missed = missed
                            self.last_access_first_touch = first_touch
                            prefetcher.on_line_access(line, self)
                            cycle = self.cycle
                            ctr = self._ctr
                            next_due = (
                                arrivals[0][0] if arrivals else _inf
                            )
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
                    caller = eb[i]
                    if caller >= 0:
                        # inlined RAS push
                        if ras_plain:
                            rbuf[rtop] = (
                                callsite[i], base[caller], caller
                            )
                        else:
                            rbuf[rtop] = RasEntry(
                                callsite[i], base[caller], caller
                            )
                        rtop += 1
                        if rtop == rdepth:
                            rtop = 0
                        if rcount < rdepth:
                            rcount += 1
                        else:
                            r_over += 1
                    if not cgp_inline:
                        if do_call_hook:
                            self.cycle = cycle
                            self._rng_state = rng
                            prefetcher.on_call(caller, ea[i], predicted,
                                               self)
                            cycle = self.cycle
                            rng = self._rng_state
                            next_due = arrivals[0][0] if arrivals else _inf
                        continue
                    if not predicted:
                        continue
                    # ---- inlined CgpPrefetcher.on_call ----
                    callee = ea[i]
                    # prefetch access keyed by the target
                    tag = entry_lines[callee]
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
                    if f1_len[cs1]:
                        head = f1_seq[cs1 * cg_K]
                        now2 = cycle + (latency + 1)
                    else:
                        head = -1
                    # update access keyed by the caller
                    if caller >= 0:
                        tag = entry_lines[caller]
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
                            f1_seq[cs1 * cg_K + slot] = callee
                            if slot == f1_len[cs1]:
                                f1_len[cs1] = slot + 1
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
                    actual_caller = eb[i]
                    predicted = entry is not None and (
                        actual_caller < 0
                        or entry[2] == actual_caller
                    )
                    if not predicted:
                        cycle += penalty
                        mispredict_cycles += penalty
                    if not cgp_inline:
                        if do_ret_hook:
                            self.cycle = cycle
                            self._rng_state = rng
                            prefetcher.on_return(ea[i], entry, predicted,
                                                 self)
                            cycle = self.cycle
                            rng = self._rng_state
                            next_due = arrivals[0][0] if arrivals else _inf
                        continue
                    if not predicted:
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
                    if slot < f1_len[cs1]:
                        head = f1_seq[cs1 * cg_K + slot]
                        now2 = cycle + (latency + 1)
                    else:
                        head = -1
                    # update access keyed by the returner
                    ret_fid = ea[i]
                    tag = entry_lines[ret_fid]
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
                    # OP_SWITCH: hardware state is shared across threads
                    continue
                # ---- CGHC-triggered head prefetch (call or return) ----
                # The walk runs after the caller/returner update above:
                # that update writes only the CGHC arrays, so residency,
                # ``iflag``, the memory port and the arrival heap are
                # exactly as they were when ``head``/``now2`` were
                # captured.  Batched like the NL fan: no line access
                # happens inside the window, so ``find`` jumps straight
                # to the targets that issue, every skipped line squashes
                # (head lines are always in range, the ``head_extents``
                # clamp), and ascending order IS the reference's
                # per-target FIFO-port issue order.  CGP inlining implies
                # ``fast_life`` (its NL component is inlined too), so the
                # records go to the flat lifecycle arrays.
                if head < 0:
                    continue
                if ps_cg is None:
                    ps_cg = stats.prefetch_origin(cg_origin)
                end2 = cg_head_end[head]
                pl = base[head]
                squash = end2 - pl
                if obs:
                    o_att[pl] += 1
                    o_att[end2] -= 1
                pl = state.find(0, pl, end2)
                while pl >= 0 and iflag[pl]:
                    pl = state.find(0, pl + 1, end2)
                while pl >= 0:
                    squash -= 1
                    if inline_mem:
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
                    else:
                        completion, _mem = memsys_request(
                            pl, now2, is_prefetch=True
                        )
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
                    pl = state.find(0, pl + 1, end2)
                    while pl >= 0 and iflag[pl]:
                        pl = state.find(0, pl + 1, end2)
                ps_cg.squashed += squash

            if fast_life:
                # restore the canonical dict maps from the flat arrays
                # (membership is the iflag byte / state bit 2; the
                # stats rows map back to their origin keys) before
                # anything outside the kernel — EngineState capture,
                # ``_finalize``, the reference-path methods — can
                # observe them
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
            if nl_inline:
                nl._last_line = nl_last
            if cgp_inline:
                # restore the canonical dict representation (folding in
                # the counter deltas) before anything outside the
                # kernel can observe the cache
                cg_flat.l1_hits += cg_h1
                cg_flat.write_back(cghc)
                cghc._live_flat = None
            if inline_mem:
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
        if finalize:
            self._finalize()
        return stats
