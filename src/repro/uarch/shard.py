"""Sharded trace replay: split one trace across workers, merge exactly.

A single simulation is a strictly sequential recurrence — every event
reads microarchitectural state (L1 residency, in-flight prefetches, the
RAS, CGHC contents, the branch-predictor LCG) left behind by the event
before it.  Sharding therefore cannot just cut the trace and replay the
pieces cold: each shard must start from the *exact* state the previous
shard ends with.  The protocol here is record/replay:

1. **Boundaries** — :func:`shard_boundaries` cuts the trace at event
   indices, preferring quantum (``SWITCH``) markers near the even
   quantiles so shards align with context-switch boundaries when the
   trace has them, and falling back to plain even splits when it does
   not.  Any event index is a sound cut: every piece of cross-event
   kernel state is either an engine/prefetcher attribute or is written
   back to one when a kernel returns (see ``FastFetchEngine.run_range``).
2. **Record** — one sequential pass replays segment ``i`` and captures
   an :class:`EngineState` snapshot at each boundary *before* running
   the segment that follows it.  The last segment is never executed by
   the recorder — nothing consumes a snapshot taken at the trace's end.
3. **Replay** — each shard restores its snapshot into a fresh
   ``FastFetchEngine`` (possibly in another process) and replays only
   its own ``[start, end)`` event range, producing a :class:`ShardPiece`
   with the stats dict before and after the segment.
4. **Merge** — :func:`merge_pieces` reassembles one ``SimStats``.
   Purely additive integer counters travel as per-piece *deltas*
   (``after − before``), which commute; cumulative floats (cycle
   arithmetic is order-sensitive in IEEE-754) and the counters
   materialized only by end-of-run finalization are taken from the
   final piece, whose engine carried the full history in its warm-start
   stats.  The merge cross-checks that the delta sums reproduce the
   final piece's chained totals and raises ``SimulationError`` on any
   mismatch, so a corrupted or mis-ordered piece set can never merge
   silently.

Because the replay of segment ``i`` is bit-identical to the recorder's
own execution of segment ``i`` (same engine class, same state, same
events), the merged stats are bit-identical to a single-process
``run()`` — the property pinned down by ``tests/uarch/test_shard_merge``
and the differential fuzz suite.

Attribution collectors cannot be distributed this way (lifecycle
records reference collector-internal state that has no merge), so
:func:`replay_sharded` chains a single observed engine through the
segments sequentially when a collector is supplied — same segmentation,
same warm-start arithmetic, one process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.errors import SimulationError
from repro.uarch.fast_engine import OP_SWITCH, FastFetchEngine, _compiled
from repro.uarch.stats import SimStats

#: Purely additive integer counters: the kernels only ever ``+=`` these,
#: so per-segment deltas commute and the merge can sum them in any
#: order.  (``l1_hits`` lives on the cache object during a run and is
#: never written into ``SimStats`` by either engine; summing its zero
#: deltas is still exact.)
DELTA_INT_FIELDS = (
    "line_accesses", "l1_hits", "demand_misses", "l2_hits",
    "memory_fetches", "calls", "returns", "mispredicted_calls",
)

#: Fields taken from the final piece only: cumulative floats whose
#: IEEE-754 operation order must match the reference engine exactly
#: (``cycles``/``fetch_cycles``/...), plus counters that are only
#: materialized by ``_finalize`` at the true end of the run
#: (``bus_transactions``, the CGHC totals) or accumulate in
#: layout-scaled float steps (``instructions``).
FINAL_FIELDS = (
    "instructions", "cycles", "fetch_cycles", "base_cycles",
    "stall_cycles", "mispredict_cycles", "bus_transactions",
    "cghc_l1_hits", "cghc_l2_hits", "cghc_misses",
)

#: Per-origin prefetch counters — all additive ints, all delta-merged.
#: The final ``useless`` reclassification (untouched/in-flight lines at
#: end of run) lands inside the last piece's delta.
PREFETCH_FIELDS = (
    "issued", "pref_hits", "delayed_hits", "useless", "squashed",
    "out_of_range",
)

_ZERO_PREFETCH = dict.fromkeys(PREFETCH_FIELDS, 0)

#: Every mutable attribute a ``FastFetchEngine`` carries across events.
#: ``layout`` and ``config`` are deliberately absent: they are immutable
#: during a run and are pinned (not copied) by the snapshot so workers
#: share one pickled instance with the prefetcher that references it.
_STATE_ATTRS = (
    "cycle", "_rng_state", "_ctr",
    "stats", "prefetcher", "l1i", "memsys", "ras",
    "_in_flight", "_arrivals", "_untouched",
    "_state", "_iflag", "_stamp",
)


def _clone_parts(get):
    """Copy every mutable engine component named in ``_STATE_ATTRS``.

    ``get`` maps an attribute name to its source value — the live
    engine on capture (``partial(getattr, engine)``) or the snapshot
    dict on restore — so one function defines the copy discipline for
    both directions.  Each component is copied by the cheapest means
    that is still a *full* copy: stats round-trip through their exact
    ``to_dict``/``from_dict``, caches/memsys/RAS/prefetcher expose
    type-exact ``clone``/``clone_state`` methods, the mirrors are flat
    ``bytearray``/``list``/``dict`` copies (their elements — ints,
    floats, tuples — are immutable).  No ``deepcopy`` anywhere on this
    path: the recorder snapshots at every shard boundary, and generic
    memo-driven traversal was most of the record pass's cost.
    """
    prefetcher = get("prefetcher")
    return {
        "cycle": get("cycle"),
        "_rng_state": get("_rng_state"),
        "_ctr": get("_ctr"),
        "stats": SimStats.from_dict(get("stats").to_dict()),
        "prefetcher": (
            None if prefetcher is None else prefetcher.clone_state()
        ),
        "l1i": get("l1i").clone(),
        "memsys": get("memsys").clone(),
        "ras": get("ras").clone(),
        "_in_flight": dict(get("_in_flight")),
        "_arrivals": list(get("_arrivals")),
        "_untouched": dict(get("_untouched")),
        "_state": bytearray(get("_state")),
        "_iflag": bytearray(get("_iflag")),
        "_stamp": list(get("_stamp")),
    }


class EngineState:
    """Warm-start snapshot of a ``FastFetchEngine``.

    Capturing copies every mutable component (stats, caches, memory
    system, RAS, prefetcher, residency/recency mirrors) via the compact
    :func:`_clone_parts` discipline, with the layout and config shared
    by identity — the snapshot is self-contained, picklable, and
    independent of the engine it came from.  Restoring clones *again*,
    so one snapshot can seed any number of replays.
    """

    __slots__ = ("_snapshot",)

    def __init__(self, snapshot):
        self._snapshot = snapshot

    @classmethod
    def capture(cls, engine):
        return cls(_clone_parts(partial(getattr, engine)))

    def restore(self, config, layout):
        """Build a fresh engine positioned exactly at this snapshot."""
        engine = FastFetchEngine(config, layout, prefetcher=None, seed=0)
        for attr, value in _clone_parts(self._snapshot.__getitem__).items():
            setattr(engine, attr, value)
        return engine


@dataclass(frozen=True)
class ShardPiece:
    """Replay result of one segment: the stats dict at entry and exit.

    Both dicts come from ``SimStats.to_dict()`` on the *same chained*
    stats object (the warm-start state carries the full history), so a
    piece's contribution to any additive counter is simply
    ``after − before``.
    """

    index: int
    start: int
    end: int
    finalized: bool
    stats_before: dict
    stats_after: dict

    def delta(self, field):
        return self.stats_after[field] - self.stats_before[field]

    def prefetch_delta(self, origin, field):
        after = self.stats_after["prefetch"].get(origin, _ZERO_PREFETCH)
        before = self.stats_before["prefetch"].get(origin, _ZERO_PREFETCH)
        return after[field] - before[field]


def combine_pieces(a, b):
    """Merge two adjacent pieces into one covering both ranges.

    The chained stats make this exact: ``b`` entered with precisely the
    totals ``a`` exited with, so the combined deltas telescope.  This
    operation is associative and is what makes :func:`merge_pieces`
    grouping-independent.
    """
    if a.start > b.start:
        a, b = b, a
    if a.end != b.start:
        raise SimulationError(
            f"cannot combine non-adjacent shard pieces "
            f"[{a.start}, {a.end}) and [{b.start}, {b.end})")
    if a.finalized:
        raise SimulationError("a finalized piece cannot precede another")
    return ShardPiece(
        index=a.index, start=a.start, end=b.end, finalized=b.finalized,
        stats_before=a.stats_before, stats_after=b.stats_after,
    )


def merge_pieces(pieces):
    """Reassemble one ``SimStats`` from shard pieces, bit-identically.

    Pieces may arrive in any order; they must tile a contiguous event
    range and the last one must be finalized.  Additive integers are
    summed as deltas over the first piece's baseline; floats and
    finalize-materialized counters come from the final piece.  Every
    delta sum is cross-checked against the final piece's chained total
    — any inconsistency (a stale piece, a double, a gap that slipped
    past the tiling check) raises ``SimulationError``.
    """
    if not pieces:
        raise SimulationError("no shard pieces to merge")
    ordered = sorted(pieces, key=lambda p: p.start)
    for a, b in zip(ordered, ordered[1:]):
        if a.end != b.start:
            raise SimulationError(
                f"shard pieces do not tile the trace: [{a.start}, {a.end}) "
                f"is followed by [{b.start}, {b.end})")
    first, last = ordered[0], ordered[-1]
    if not last.finalized:
        raise SimulationError("final shard piece was not finalized")
    merged = {field: last.stats_after[field] for field in FINAL_FIELDS}
    for field in DELTA_INT_FIELDS:
        total = first.stats_before[field] + sum(
            p.delta(field) for p in ordered)
        if total != last.stats_after[field]:
            raise SimulationError(
                f"shard merge inconsistency on '{field}': delta sum "
                f"{total} != chained total {last.stats_after[field]}")
        merged[field] = total
    origins = set()
    for p in ordered:
        origins.update(p.stats_after["prefetch"])
    prefetch = {}
    for origin in sorted(origins):
        base = first.stats_before["prefetch"].get(origin, _ZERO_PREFETCH)
        chained = last.stats_after["prefetch"].get(origin, _ZERO_PREFETCH)
        row = {}
        for field in PREFETCH_FIELDS:
            total = base[field] + sum(
                p.prefetch_delta(origin, field) for p in ordered)
            if total != chained[field]:
                raise SimulationError(
                    f"shard merge inconsistency on prefetch "
                    f"'{origin}.{field}': delta sum {total} != chained "
                    f"total {chained[field]}")
            row[field] = total
        prefetch[origin] = row
    merged["prefetch"] = prefetch
    return SimStats.from_dict(merged)


def shard_boundaries(trace, layout, n_shards):
    """Cut points ``[0, b1, ..., n_events]`` for ``n_shards`` segments.

    Prefers ``SWITCH`` events (quantum boundaries in multiprogrammed
    mixes) nearest each even quantile, so shards start at context
    switches when the trace has them; traces without switches fall back
    to plain even splits.  Duplicate or degenerate cuts collapse, so
    short traces may yield fewer than ``n_shards`` segments.
    """
    if n_shards < 1:
        raise SimulationError("n_shards must be >= 1")
    compiled = _compiled(trace, layout)
    n = compiled.n_events
    if n == 0 or n_shards == 1:
        return [0, n]
    ops = compiled.ops
    switches = [i for i in range(n) if ops[i] == OP_SWITCH]
    cuts = []
    for k in range(1, n_shards):
        target = n * k // n_shards
        if switches:
            cut = min(switches, key=lambda i: abs(i - target))
        else:
            cut = target
        cuts.append(cut)
    boundaries = [0]
    for cut in cuts:
        if boundaries[-1] < cut < n:
            boundaries.append(cut)
    boundaries.append(n)
    return boundaries


@dataclass(frozen=True)
class _Segment:
    index: int
    start: int
    end: int
    state: EngineState


def record_shards(trace, layout, config, prefetcher=None, seed=12345,
                  boundaries=None, n_shards=2):
    """Sequential recording pass: snapshot the engine at each boundary.

    Returns one :class:`_Segment` per ``[start, end)`` range, each
    holding the warm-start state *entering* that range.  Only the
    segments before the last are actually executed — the recorder never
    runs (or finalizes) the final segment, whose exit state nothing
    consumes.
    """
    if boundaries is None:
        boundaries = shard_boundaries(trace, layout, n_shards)
    engine = FastFetchEngine(config, layout, prefetcher=prefetcher,
                             seed=seed)
    ranges = list(zip(boundaries, boundaries[1:]))
    segments = []
    for i, (start, end) in enumerate(ranges):
        segments.append(_Segment(i, start, end, EngineState.capture(engine)))
        if i < len(ranges) - 1:
            engine.run_range(trace, start, end, finalize=False)
    return segments


def _replay_segment(trace, layout, config, state, start, end, index,
                    finalize):
    """Replay one segment from its snapshot (worker-side entry point)."""
    engine = state.restore(config, layout)
    before = engine.stats.to_dict()
    engine.run_range(trace, start, end, finalize=finalize)
    return ShardPiece(
        index=index, start=start, end=end, finalized=finalize,
        stats_before=before, stats_after=engine.stats.to_dict(),
    )


def replay_sharded(trace, layout, config, prefetcher=None, seed=12345,
                   n_shards=2, runner=None, collector=None,
                   return_pieces=False, boundaries=None):
    """Replay ``trace`` in ``n_shards`` segments and merge the stats.

    Bit-identical to ``simulate(..., engine="fast")`` (and therefore to
    the reference engine) for every counter, float, and prefetch origin.
    Only configurations ``FastFetchEngine.supports`` accepts can be
    sharded; any other raises ``SimulationError``.

    ``runner`` — an optional :class:`repro.harness.parallel.ParallelRunner`;
    when given, shard replays are distributed as ``run_tasks`` tasks
    (worker processes, crash retry, fault injection all come along).
    When ``None``, shards replay in-process — still exercising the full
    snapshot/restore/merge path, which is what the equivalence suites
    pin down.  Sharding is never faster than one ``run()``, at any
    worker count: the record pass replays every segment but the last in
    sequence, and the last segment cannot start before that pass reaches
    its boundary, so the wall time is at least one whole replay plus the
    snapshot and merge overhead (``uarch.shard2_speedup`` in
    ``bench/run.py --trace`` measures 0.70–0.77 with two workers on a
    2-core host).

    ``collector`` — attribution payloads have no cross-process merge,
    so a collector forces the sequential chained path: one observed
    engine runs every segment in order (same boundaries, same
    warm-start arithmetic), and the collector fills exactly as in a
    single ``run()``.

    ``boundaries`` — explicit cut points (must start at 0 and end at
    the trace's event count, strictly increasing); overrides
    ``n_shards``.  Any event index is a valid cut.
    """
    if boundaries is None:
        boundaries = shard_boundaries(trace, layout, n_shards)
    else:
        boundaries = list(boundaries)
        n = _compiled(trace, layout).n_events
        if n == 0 and boundaries in ([0], [0, 0]):
            boundaries = [0, 0]  # one empty segment, as shard_boundaries cuts
        elif (boundaries[0] != 0 or boundaries[-1] != n
                or any(a >= b for a, b in zip(boundaries, boundaries[1:]))):
            raise SimulationError(
                "boundaries must rise strictly from 0 to the event count")
    n_events = boundaries[-1]
    if collector is not None:
        engine = FastFetchEngine(config, layout, prefetcher=prefetcher,
                                 seed=seed, collector=collector)
        pieces = []
        for i, (start, end) in enumerate(zip(boundaries, boundaries[1:])):
            before = engine.stats.to_dict()
            engine.run_range(trace, start, end, finalize=(end == n_events))
            pieces.append(ShardPiece(
                index=i, start=start, end=end,
                finalized=(end == n_events), stats_before=before,
                stats_after=engine.stats.to_dict(),
            ))
    else:
        segments = record_shards(trace, layout, config,
                                 prefetcher=prefetcher, seed=seed,
                                 boundaries=boundaries)
        if runner is None:
            pieces = [
                _replay_segment(trace, layout, config, seg.state,
                                seg.start, seg.end, seg.index,
                                finalize=(seg.end == n_events))
                for seg in segments
            ]
        else:
            tasks = [
                (f"shard{seg.index:03d}",
                 partial(_replay_segment, trace, layout, config,
                         seg.state, seg.start, seg.end, seg.index,
                         seg.end == n_events))
                for seg in segments
            ]
            result = runner.run_tasks(tasks, grid="shards")
            if result.failures:
                failed = ", ".join(f.key for f in result.failures)
                raise SimulationError(f"shard replay failed: {failed}")
            pieces = [result.cells[label] for label, _fn in tasks]
    merged = merge_pieces(pieces)
    if return_pieces:
        return merged, pieces
    return merged
