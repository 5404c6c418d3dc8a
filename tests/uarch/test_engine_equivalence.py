"""Cross-engine equivalence: the optimized replay core must be
*bit-identical* to the reference engine, not approximately equal.

``FastFetchEngine`` inlines the sequential prefetcher, the CGP/CGHC
accesses, the RAS, and the memory system, walks prefetch windows as
spans, and replaces the L1 recency lists with timestamps — every one of
those shortcuts is only sound if ``SimStats.to_dict()`` (floats
included) comes out equal to the reference engine's on the same trace.
These tests drive both engines over randomized traces crossed with every
prefetcher the fast engine runs (NL, run-ahead NL, and CGP over finite,
collision-heavy and unbounded CGHCs), permuted and identity layouts,
the perfect I-cache, and same-line repeat patterns (the inlined
sequential prefetcher's ``line == nl_last`` no-op).  Configurations
``simulate()`` routes to the reference engine instead are pinned by
``tests/uarch/test_engine_routing.py``.
"""

from dataclasses import replace

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import CgpPrefetcher
from repro.instrument.codeimage import CodeImage
from repro.instrument.trace import Trace
from repro.layout.layouts import AddressMap
from repro.obsv import AttributionCollector, validate_payload
from repro.uarch.config import CacheConfig, CghcConfig, SimConfig
from repro.uarch.fast_engine import FastFetchEngine
from repro.uarch.fetch_engine import simulate
from repro.uarch.prefetch.nl import NextNLinePrefetcher, RunAheadNLPrefetcher

N_FUNCTIONS = 6
FUNC_SIZE = 120

SMALL_CONFIG = SimConfig(
    l1i=CacheConfig(512, 2),  # tiny L1 so evictions happen constantly
    l2=CacheConfig(4096, 4),
    base_cpi=0.3,
)

PREFETCHERS = [None, "nl", "ra-nl", "cgp", "cgp-xchg", "cgp-inf"]
LAYOUTS = ["identity", "scrambled"]
#: both kernel shapes a prefetcher can reach: line accesses, and the
#: perfect I-cache (no line accesses, no hooks)
CONFIGS = [
    SMALL_CONFIG,
    replace(SMALL_CONFIG, perfect_icache=True),
]


def build_image():
    image = CodeImage()
    for i in range(N_FUNCTIONS):
        image.register_synthetic(f"f{i}", FUNC_SIZE)
    return image


def build_layout(kind):
    image = build_image()
    if kind == "identity":
        return AddressMap(image, range(N_FUNCTIONS), 1.0, 1.0, 1.0, "ident")
    # permuted blocks (non-contiguous line runs), inflated sizes, and a
    # float instruction scale: defeats every compile-time fast-path
    # precondition at once
    return AddressMap(
        image, reversed(range(N_FUNCTIONS)), 1.5, 0.3, 1.25, "scram"
    )


def make_prefetcher(name, layout, degree):
    if name is None:
        return None
    if name == "nl":
        return NextNLinePrefetcher(degree)
    if name == "ra-nl":
        return RunAheadNLPrefetcher(degree, 3)
    if name == "cgp-inf":
        # the unbounded CGHC: one flat set per line, no slot cap
        return CgpPrefetcher(degree, CghcConfig(infinite=True), layout)
    if name == "cgp-xchg":
        # collision-heavy geometry: a one-entry L1 over a four-entry L2
        # makes nearly every CGHC access an L2 exchange or a miss with
        # victim writeback, hammering the flat kernel's rare path
        return CgpPrefetcher(
            degree, CghcConfig(l1_bytes=1 * 40, l2_bytes=4 * 40), layout
        )
    return CgpPrefetcher(
        degree, CghcConfig(l1_bytes=4 * 40, l2_bytes=16 * 40), layout
    )


@st.composite
def traces(draw):
    """Well-formed traces biased toward the fast paths' edge cases:
    sequential runs (NL leading edges), same-line repeats (the inlined NL
    automaton's no-op), offsets at the last function's tail
    (out-of-range prefetches)."""
    trace = Trace()
    stack = []
    for _ in range(draw(st.integers(1, 50))):
        action = draw(st.sampled_from(
            ["exec", "exec", "run", "repeat", "call", "ret"]))
        if action in ("exec", "run", "repeat"):
            fid = stack[-1] if stack else draw(
                st.integers(0, N_FUNCTIONS - 1))
            if action == "run":  # long ascending run: leading edges
                lo = draw(st.integers(0, FUNC_SIZE - 2))
                hi = draw(st.integers(lo, FUNC_SIZE - 1))
                trace.add_exec(fid, lo, hi)
            elif action == "repeat":  # same single line, twice
                off = draw(st.integers(0, FUNC_SIZE - 1))
                trace.add_exec(fid, off, off)
                trace.add_exec(fid, off, off)
            else:
                trace.add_exec(fid, draw(st.integers(0, FUNC_SIZE - 1)),
                               draw(st.integers(0, FUNC_SIZE - 1)))
        elif action == "call" and len(stack) < 8:
            callee = draw(st.integers(0, N_FUNCTIONS - 1))
            trace.add_call(callee, stack[-1] if stack else -1,
                           draw(st.integers(0, FUNC_SIZE - 1)))
            stack.append(callee)
        elif action == "ret" and stack:
            fid = stack.pop()
            trace.add_return(fid, stack[-1] if stack else -1, 0)
    while stack:
        fid = stack.pop()
        trace.add_return(fid, stack[-1] if stack else -1, 0)
    return trace


def call_chain(rounds=1, chunk=FUNC_SIZE):
    """f0 calls f1 ... calls f5, each executing its whole body in
    ``chunk``-instruction events, then all return; ``rounds`` times
    (from the second round on, the CGHC has history to prefetch)."""
    trace = Trace()
    for _ in range(rounds):
        for fid in range(N_FUNCTIONS):
            trace.add_call(fid, fid - 1 if fid else -1, 0)
            for lo in range(0, FUNC_SIZE, chunk):
                trace.add_exec(fid, lo, min(lo + chunk, FUNC_SIZE) - 1)
        for fid in reversed(range(N_FUNCTIONS)):
            trace.add_return(fid, fid - 1 if fid else -1, 0)
    return trace


#: a trace that reaches every observation site of the fast kernels
#: under the explicit examples below: first touches and evictions of
#: untouched lines on the contiguous identity layout, CGHC
#: history and head walks on the scrambled one (on the identity layout
#: every entry line is a multiple of 16, so the small CGHC's sets
#: collide and forget every history)
CHAIN = call_chain(rounds=3, chunk=40)


def both_engines(trace, layout, config, pf_name, degree):
    """Run both engines with fresh prefetchers; return the two dicts."""
    ref = simulate(trace, layout, config,
                   prefetcher=make_prefetcher(pf_name, layout, degree),
                   engine="reference")
    fast = simulate(trace, layout, config,
                    prefetcher=make_prefetcher(pf_name, layout, degree),
                    engine="fast")
    return ref.to_dict(), fast.to_dict()


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trace=traces(), pf=st.sampled_from(PREFETCHERS),
       degree=st.integers(1, 4), layout_kind=st.sampled_from(LAYOUTS))
def test_engines_identical_on_random_traces(trace, pf, degree, layout_kind):
    layout = build_layout(layout_kind)
    ref, fast = both_engines(trace, layout, SMALL_CONFIG, pf, degree)
    assert ref == fast


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trace=traces(), pf=st.sampled_from(PREFETCHERS))
def test_engines_identical_under_perfect_icache(trace, pf):
    layout = build_layout("identity")
    config = replace(SMALL_CONFIG, perfect_icache=True)
    ref, fast = both_engines(trace, layout, config, pf, 2)
    assert ref == fast


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trace=traces(), degree=st.integers(1, 4))
def test_fast_engine_rerun_is_deterministic(trace, degree):
    """The compile cache must not leak state between runs: a hot rerun
    (compiled trace reused) equals a cold run exactly."""
    layout = build_layout("identity")
    first = simulate(trace, layout, SMALL_CONFIG,
                     prefetcher=make_prefetcher("cgp", layout, degree),
                     engine="fast")
    second = simulate(trace, layout, SMALL_CONFIG,
                      prefetcher=make_prefetcher("cgp", layout, degree),
                      engine="fast")
    assert first.to_dict() == second.to_dict()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trace=traces(), pf=st.sampled_from(PREFETCHERS),
       degree=st.integers(1, 4), layout_kind=st.sampled_from(LAYOUTS),
       config=st.sampled_from(CONFIGS))
@example(trace=CHAIN, pf=None, degree=4, layout_kind="identity",
         config=CONFIGS[0])
@example(trace=CHAIN, pf="nl", degree=4, layout_kind="identity",
         config=CONFIGS[0])
@example(trace=CHAIN, pf="cgp", degree=4, layout_kind="scrambled",
         config=CONFIGS[0])
@example(trace=CHAIN, pf="cgp-inf", degree=4, layout_kind="scrambled",
         config=CONFIGS[0])
def test_attribution_identical_across_engines(trace, pf, degree,
                                              layout_kind, config):
    """With collection enabled, both engines must produce the same
    ``SimStats`` as the uninstrumented run AND bit-identical attribution
    payloads (including lifecycle records and interval samples)."""
    layout = build_layout(layout_kind)
    plain = simulate(trace, layout, config,
                     prefetcher=make_prefetcher(pf, layout, degree),
                     engine="fast")
    stats = {}
    collectors = {}
    for engine in ("reference", "fast"):
        collector = AttributionCollector(layout, interval=400, lifecycle=64)
        stats[engine] = simulate(
            trace, layout, config,
            prefetcher=make_prefetcher(pf, layout, degree),
            engine=engine, collector=collector,
        )
        collectors[engine] = collector
    # collection must not perturb the simulation
    assert stats["reference"].to_dict() == plain.to_dict()
    assert stats["fast"].to_dict() == plain.to_dict()
    ref, fast = collectors["reference"], collectors["fast"]
    assert ref.to_dict() == fast.to_dict()
    assert ref.lifecycle.records() == fast.lifecycle.records()
    validate_payload(ref.to_dict())


def test_attribution_totals_reconcile_with_simstats():
    """Per-function attribution sums must equal the engine's own
    aggregate counters — nothing double-counted, nothing missed."""
    trace = call_chain()
    layout = build_layout("identity")
    collector = AttributionCollector(layout)
    result = simulate(trace, layout, SMALL_CONFIG,
                      prefetcher=make_prefetcher("cgp", layout, 4),
                      engine="fast", collector=collector)
    totals = {}
    for row in collector.function_table().values():
        for key, value in row.items():
            if isinstance(value, int):
                totals[key] = totals.get(key, 0) + value
    assert totals["demand_misses"] == result.demand_misses
    assert totals["memory_fetches"] == result.memory_fetches
    by_origin = {"pref_hits": 0, "delayed_hits": 0, "useless": 0,
                 "squashed": 0, "issued": 0}
    for p in result.prefetch.values():
        for key in by_origin:
            by_origin[key] += getattr(p, key)
    for key, want in by_origin.items():
        assert totals[key] == want
    assert (totals["cghc_l1_hits"] == result.cghc_l1_hits
            and totals["cghc_l2_hits"] == result.cghc_l2_hits
            and totals["cghc_misses"] == result.cghc_misses)


def test_out_of_range_accounted_identically():
    """NL running off the end of the address space must count
    ``out_of_range`` (not issue, not squash) — same in both engines."""
    trace = Trace()
    # execute the tail of the last-placed function so NL targets past
    # the end of the address space
    trace.add_exec(N_FUNCTIONS - 1, FUNC_SIZE - 8, FUNC_SIZE - 1)
    layout = build_layout("identity")
    ref = simulate(trace, layout, SMALL_CONFIG,
                   prefetcher=NextNLinePrefetcher(4), engine="reference")
    fast = simulate(trace, layout, SMALL_CONFIG,
                    prefetcher=NextNLinePrefetcher(4), engine="fast")
    assert ref.to_dict() == fast.to_dict()
    p = fast.prefetch["nl"]
    assert p.out_of_range > 0
    assert p.issued == p.accounted()
    assert fast.bus_transactions == fast.demand_misses + p.issued


def test_empty_trace_identical_across_engines():
    """A zero-event trace compiles and replays to the same stats (and
    attribution payload) in both engines, through ``run()`` and through
    the compile-only ``run_range(trace, 0, 0)`` that callers use to warm
    the compile cache."""
    layout = build_layout("scrambled")
    trace = Trace()
    for pf in PREFETCHERS:
        ref, fast = both_engines(trace, layout, SMALL_CONFIG, pf, 2)
        assert ref == fast
        engine = FastFetchEngine(SMALL_CONFIG, layout,
                                 prefetcher=make_prefetcher(pf, layout, 2))
        assert engine.run_range(trace, 0, 0).to_dict() == ref
        payloads = []
        for name in ("reference", "fast"):
            collector = AttributionCollector(layout, interval=400,
                                             lifecycle=64)
            stats = simulate(trace, layout, SMALL_CONFIG,
                             prefetcher=make_prefetcher(pf, layout, 2),
                             engine=name, collector=collector)
            assert stats.to_dict() == ref
            payloads.append(collector.to_dict())
        assert payloads[0] == payloads[1]
