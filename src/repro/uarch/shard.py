"""Sharded trace replay: split one trace into segments, replay each from
a warm-start snapshot, and check the seams.

A single simulation is a strictly sequential recurrence — every event
reads microarchitectural state (L1 residency, in-flight prefetches, the
RAS, CGHC contents, the branch-predictor LCG) left behind by the event
before it — so each shard must start from the *exact* state the
previous shard ends with:

1. **Boundaries** — :func:`shard_boundaries` cuts the trace at the
   quantum (``SWITCH``) markers nearest the even quantiles, or at the
   quantiles themselves when the trace has none.  Any event index is a
   sound cut: all cross-event kernel state is written back to engine
   and prefetcher attributes when a kernel returns
   (``FastFetchEngine.run_range``).
2. **Record** — one sequential pass replays every segment but the last
   and pickles the engine's mutable attributes (:class:`EngineState`)
   entering each segment.
3. **Replay** — each shard unpickles its snapshot into a fresh
   ``FastFetchEngine`` (possibly in another process) and replays only
   its own ``[start, end)`` event range.
4. **Seams** — the warm-start stats carry the whole history, so the
   last shard's exit stats *are* the run's stats; nothing is merged.
   Every non-final shard's exit ``stats.to_dict()`` must equal the next
   shard's entry dict in every field, floats included, or
   :func:`replay_sharded` raises ``SimulationError``.

So the sharded stats are bit-identical to a single-process ``run()``,
as ``tests/uarch/test_shard.py`` and the differential fuzz suite pin.
Attribution collectors are not split across processes: with a
collector, one observed engine runs the segments in order.
"""

from __future__ import annotations

import pickle
from functools import partial

from repro.errors import SimulationError
from repro.uarch.fast_engine import OP_SWITCH, FastFetchEngine, _compiled

#: Every mutable attribute a ``FastFetchEngine`` carries across events.
#: ``layout`` and ``config`` are deliberately absent: they are immutable
#: during a run, and :meth:`EngineState.restore` takes the caller's.
_STATE_ATTRS = (
    "cycle", "_rng_state", "_ctr",
    "stats", "prefetcher", "l1i", "memsys", "ras",
    "_in_flight", "_arrivals", "_untouched",
    "_state", "_iflag", "_stamp",
)


class EngineState:
    """Warm-start snapshot of a ``FastFetchEngine``: the pickled
    ``_STATE_ATTRS``, taken between kernel calls (where the CGHC and
    the in-flight/untouched maps are in their canonical dict form).

    The snapshot is immutable bytes, independent of the engine it came
    from, and each :meth:`restore` unpickles a fresh copy, so one
    snapshot can seed any number of replays.
    """

    __slots__ = ("_blob",)

    def __init__(self, blob):
        self._blob = blob

    @classmethod
    def capture(cls, engine):
        state = {attr: getattr(engine, attr) for attr in _STATE_ATTRS}
        return cls(pickle.dumps(state, pickle.HIGHEST_PROTOCOL))

    def restore(self, config, layout):
        """Build a fresh engine positioned exactly at this snapshot."""
        engine = FastFetchEngine(config, layout, prefetcher=None, seed=0)
        for attr, value in pickle.loads(self._blob).items():
            setattr(engine, attr, value)
        return engine


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


def _replay_segment(trace, layout, config, state, start, end):
    """Replay one segment from its snapshot (worker-side entry point).

    Returns the stats dict the segment entered with and the engine's
    stats at its exit (finalized when ``end`` is the trace's end)."""
    engine = state.restore(config, layout)
    entry = engine.stats.to_dict()
    return entry, engine.run_range(trace, start, end)


def replay_sharded(trace, layout, config, prefetcher=None, seed=12345,
                   n_shards=2, runner=None, collector=None,
                   boundaries=None):
    """Replay ``trace`` in ``n_shards`` segments; return the last
    segment's stats.

    Bit-identical to ``simulate(..., engine="fast")`` (and therefore to
    the reference engine) for every counter, float, and prefetch origin.
    Only configurations ``FastFetchEngine.supports`` accepts can be
    sharded; any other raises ``SimulationError``, as does a seam where
    one shard's exit stats differ from the next shard's entry stats.

    ``runner`` — an optional :class:`repro.harness.parallel.ParallelRunner`
    that replays the shards as ``run_tasks`` tasks (worker processes,
    crash retry, fault injection); ``None`` replays them in-process
    through the same snapshot/restore/seam path.  Sharding is never
    faster than one ``run()``, at any worker count: the last segment
    cannot start before the record pass has replayed all the others
    (``uarch.shard2_speedup`` in ``bench/run.py --trace`` measures
    0.67–0.77 with two workers on a 2-core host).

    ``collector`` — attribution payloads are not split across
    processes, so a collector forces the sequential chained path: one
    observed engine runs every segment in order, and the collector
    fills exactly as in a single ``run()``.

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
    ranges = list(zip(boundaries, boundaries[1:]))
    engine = FastFetchEngine(config, layout, prefetcher=prefetcher,
                             seed=seed, collector=collector)
    if collector is not None:
        for start, end in ranges:
            engine.run_range(trace, start, end)
        return engine.stats
    # the record pass: a snapshot entering each segment
    states = [EngineState.capture(engine)]
    for start, end in ranges[:-1]:
        engine.run_range(trace, start, end)
        states.append(EngineState.capture(engine))
    jobs = [
        partial(_replay_segment, trace, layout, config, state, start, end)
        for state, (start, end) in zip(states, ranges)
    ]
    if runner is None:
        shards = [job() for job in jobs]
    else:
        tasks = [(f"shard{i:03d}", job) for i, job in enumerate(jobs)]
        result = runner.run_tasks(tasks, grid="shards")
        if result.failures:
            failed = ", ".join(f.key for f in result.failures)
            raise SimulationError(f"shard replay failed: {failed}")
        shards = [result.cells[label] for label, _job in tasks]
    for (_, exit_stats), (entry, _), (_, end) in zip(shards, shards[1:],
                                                     ranges):
        if exit_stats.to_dict() != entry:
            raise SimulationError(
                f"shard seam at event {end}: the exit stats differ from "
                f"the next shard's entry stats")
    return shards[-1][1]
