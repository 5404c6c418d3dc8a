"""Sharded replay: warm-start snapshots, seam checks, boundaries.

:func:`repro.uarch.shard.replay_sharded` returns the last shard's exit
stats, which must equal a single-process run exactly, and it must
refuse — never silently accept — a seam where one shard's exit stats
differ from the next shard's entry stats, and cut points that do not
tile the trace.
"""

import pytest

from repro.core import CgpPrefetcher
from repro.errors import SimulationError
from repro.instrument.codeimage import CodeImage
from repro.instrument.trace import SWITCH, Trace
from repro.layout.layouts import AddressMap
from repro.uarch import shard
from repro.uarch.config import CacheConfig, CghcConfig, SimConfig
from repro.uarch.fetch_engine import simulate
from repro.uarch.shard import replay_sharded, shard_boundaries
from repro.uarch.stats import SimStats

N_FUNCTIONS = 6
FUNC_SIZE = 120

CONFIG = SimConfig(
    l1i=CacheConfig(512, 2),
    l2=CacheConfig(4096, 4),
    base_cpi=0.3,
)


def build_layout():
    image = CodeImage()
    for i in range(N_FUNCTIONS):
        image.register_synthetic(f"f{i}", FUNC_SIZE)
    # permuted blocks, inflation, float instruction scale: the layout
    # that defeats every compile-time shortcut at once
    return AddressMap(
        image, reversed(range(N_FUNCTIONS)), 1.5, 0.3, 1.25, "scram"
    )


def make_prefetcher(layout):
    return CgpPrefetcher(
        3, CghcConfig(l1_bytes=4 * 40, l2_bytes=16 * 40), layout
    )


def build_trace(n=240, switches=False):
    """Deterministic call/exec/return mix exercising misses, the RAS,
    CGP head prefetches, and NL fan-outs."""
    trace = Trace()
    state = 12345
    stack = []
    for step in range(n):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        roll = state % 10
        if switches and step and step % 40 == 0:
            trace.add_switch(state % 4)
        elif roll < 5 or not stack and roll < 8:
            fid = stack[-1] if stack else state % N_FUNCTIONS
            lo = state % (FUNC_SIZE - 1)
            trace.add_exec(fid, lo, min(FUNC_SIZE - 1, lo + roll * 9))
        elif roll < 8 and len(stack) < 8:
            callee = state % N_FUNCTIONS
            trace.add_call(callee, stack[-1] if stack else -1,
                           state % FUNC_SIZE)
            stack.append(callee)
        elif stack:
            fid = stack.pop()
            trace.add_return(fid, stack[-1] if stack else -1, 0)
    while stack:
        fid = stack.pop()
        trace.add_return(fid, stack[-1] if stack else -1, 0)
    return trace


def test_four_shards_equal_single_process_exactly():
    layout = build_layout()
    trace = build_trace()
    assert len(shard_boundaries(trace, layout, 4)) == 5
    single = simulate(trace, layout, CONFIG,
                      prefetcher=make_prefetcher(layout), engine="fast")
    sharded = replay_sharded(trace, layout, CONFIG,
                             prefetcher=make_prefetcher(layout), n_shards=4)
    sd, md = single.to_dict(), sharded.to_dict()
    for field in SimStats._SCALAR_FIELDS:
        assert md[field] == sd[field], field
    assert md["prefetch"] == sd["prefetch"]
    assert md == sd


@pytest.mark.parametrize("field, drift", [
    ("demand_misses", 1),
    ("stall_cycles", 1e-9),
])
def test_seam_mismatch_raises(monkeypatch, field, drift):
    """A non-final shard whose exit stats drift from the next shard's
    entry stats, in an int or a float field, cannot pass silently."""
    replay_segment = shard._replay_segment

    def drifted(trace, layout, config, state, start, end):
        entry, exit_stats = replay_segment(trace, layout, config, state,
                                           start, end)
        if start == 0:
            setattr(exit_stats, field, getattr(exit_stats, field) + drift)
        return entry, exit_stats

    monkeypatch.setattr(shard, "_replay_segment", drifted)
    layout = build_layout()
    with pytest.raises(SimulationError, match="seam"):
        replay_sharded(build_trace(), layout, CONFIG,
                       prefetcher=make_prefetcher(layout), n_shards=4)


@pytest.mark.parametrize("cuts", [
    lambda n: [0, 5, 5, n],  # a repeated cut: an empty shard
    lambda n: [1, n],  # a gap before the first shard
    lambda n: [0, n - 1],  # a gap after the last shard
], ids=["repeat", "head-gap", "tail-gap"])
def test_explicit_boundaries_must_tile_the_trace(cuts):
    layout = build_layout()
    trace = build_trace()
    with pytest.raises(SimulationError, match="boundaries"):
        replay_sharded(trace, layout, CONFIG,
                       prefetcher=make_prefetcher(layout),
                       boundaries=cuts(len(trace)))


def test_boundaries_snap_to_switches():
    layout = build_layout()
    trace = build_trace(switches=True)
    switch_positions = {
        i for i, kind in enumerate(trace.kinds) if kind == SWITCH
    }
    assert switch_positions  # the trace really is multiprogrammed
    boundaries = shard_boundaries(trace, layout, 4)
    assert boundaries[0] == 0 and boundaries[-1] == len(trace)
    for cut in boundaries[1:-1]:
        assert cut in switch_positions


def test_boundaries_even_split_without_switches():
    layout = build_layout()
    trace = build_trace(switches=False)
    n = len(trace)
    assert shard_boundaries(trace, layout, 4) == [
        0, n // 4, n * 2 // 4, n * 3 // 4, n]


def test_single_shard_degenerates_to_plain_run():
    layout = build_layout()
    trace = build_trace(n=120)
    single = simulate(trace, layout, CONFIG,
                      prefetcher=make_prefetcher(layout), engine="fast")
    sharded = replay_sharded(trace, layout, CONFIG,
                             prefetcher=make_prefetcher(layout), n_shards=1)
    assert sharded.to_dict() == single.to_dict()


def test_sharded_with_switches_equals_single_process():
    layout = build_layout()
    trace = build_trace(switches=True)
    single = simulate(trace, layout, CONFIG,
                      prefetcher=make_prefetcher(layout), engine="fast")
    sharded = replay_sharded(trace, layout, CONFIG,
                             prefetcher=make_prefetcher(layout), n_shards=3)
    assert sharded.to_dict() == single.to_dict()
