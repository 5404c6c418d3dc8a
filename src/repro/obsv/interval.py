"""Windowed time-series sampling over a running simulation.

An :class:`IntervalSampler` attached to an
:class:`~repro.obsv.collector.AttributionCollector` snapshots the
engine every ``every_instrs`` committed instructions, at the first
event boundary on or past each window edge (events are the simulator's
atomic unit, so a single large EXEC event can cover several window
edges — the sampler then emits one sample and skips the covered
edges, exactly the same way in both engines).  A final partial sample
is taken at end of run when instructions accumulated past the last
boundary.

Each sample carries cumulative totals plus per-window deltas and rates:
an IPC proxy (window instructions / window cycles), the L1 demand miss
rate, prefetch usefulness (useful / issued in the window), and CGHC
occupancy.  Samples are JSON-ready and can be appended to a
:class:`~repro.harness.telemetry.RunJournal` as ``interval`` events.
"""

from __future__ import annotations


class IntervalSampler:
    """Samples engine state every N committed instructions."""

    def __init__(self, every_instrs):
        if every_instrs <= 0:
            raise ValueError("sampling interval must be positive")
        self.every = every_instrs
        self.next_at = every_instrs
        self.samples = []
        # cumulative totals at the previous sample (window deltas)
        self._prev = (0, 0.0, 0, 0, 0, 0)

    def take(self, engine, partial=False):
        """Record one sample from a live engine."""
        stats = engine.stats
        self.record(stats.instructions, engine.cycle, stats.line_accesses,
                    stats.demand_misses, stats.prefetch,
                    getattr(engine.prefetcher, "cghc", None), partial)

    def record(self, instructions, cycles, accesses, misses, prefetch,
               cghc, partial=False):
        """Record one sample from cumulative totals: ``prefetch`` is the
        origin -> ``PrefetchStats`` map, ``cghc`` the history cache (or
        None).  Both cores sample at event boundaries with identical
        totals — the fast engine's kernels pass their local
        accumulators — so the samples are bit-identical across
        engines."""
        issued = useful = 0
        for p in prefetch.values():
            issued += p.issued
            useful += p.pref_hits + p.delayed_hits
        p_instr, p_cycles, p_acc, p_miss, p_issued, p_useful = self._prev
        d_instr = instructions - p_instr
        d_cycles = cycles - p_cycles
        d_acc = accesses - p_acc
        d_miss = misses - p_miss
        d_issued = issued - p_issued
        d_useful = useful - p_useful
        self.samples.append({
            "instructions": instructions,
            "cycles": cycles,
            "window_instructions": d_instr,
            "window_cycles": d_cycles,
            "ipc": (d_instr / d_cycles) if d_cycles else 0.0,
            "window_line_accesses": d_acc,
            "window_demand_misses": d_miss,
            "miss_rate": (d_miss / d_acc) if d_acc else 0.0,
            "window_prefetches_issued": d_issued,
            "window_prefetches_useful": d_useful,
            "prefetch_usefulness": (d_useful / d_issued) if d_issued else 0.0,
            "cghc_entries": None if cghc is None else cghc.entry_count(),
            "partial": partial,
        })
        self._prev = (instructions, cycles, accesses, misses, issued, useful)
        while self.next_at <= instructions:
            self.next_at += self.every

    def finalize(self, engine):
        """Emit the trailing partial window, if any instructions landed
        in it since the last full sample."""
        if engine.stats.instructions > self._prev[0]:
            self.take(engine, partial=True)

    def write_journal(self, journal, **context):
        """Append every sample to a RunJournal as ``interval`` events.

        ``context`` fields (suite, layout, prefetcher, ...) are merged
        into each record so mixed journals stay self-describing.
        """
        for index, sample in enumerate(self.samples):
            journal.write("interval", index=index, **context, **sample)
