"""Differential fuzz layer: reference vs fast vs sharded replay.

The perf work in ``fast_engine``/``shard`` only stays honest while all
three execution paths remain *bit-identical* — same ``SimStats`` dict
(floats included), same attribution payloads.  This suite drives
hypothesis-generated traces (including ``SWITCH`` quantum markers, which
the equivalence suite's strategy never emits), layouts, and prefetcher
configs through all three paths, plus arbitrary shard cut points.

**Seed journaling** — set ``REPRO_FUZZ_JOURNAL=/path/file.jsonl`` and
every falsifying example is appended as a JSON line carrying the test
name and the full trace event arrays; :func:`trace_from_payload`
rebuilds the exact trace for offline replay.  Hypothesis shrinking may
journal several lines per failure — the *last* line for a test is the
minimal example.  ``REPRO_FUZZ_EXAMPLES`` bounds the example count (CI
smoke sets a small value; the default is sized for local runs).
"""

import json
import os
from functools import wraps

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.instrument.trace import Trace
from repro.obsv import AttributionCollector
from repro.uarch.fetch_engine import simulate
from repro.uarch.shard import replay_sharded

from tests.uarch.test_engine_equivalence import (
    FUNC_SIZE,
    LAYOUTS,
    N_FUNCTIONS,
    PREFETCHERS,
    SMALL_CONFIG,
    build_layout,
    make_prefetcher,
)

MAX_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "40"))
JOURNAL_PATH = os.environ.get("REPRO_FUZZ_JOURNAL", "")

FUZZ = settings(max_examples=MAX_EXAMPLES, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# journaling
# ----------------------------------------------------------------------

def trace_payload(trace):
    """Trace -> JSON-serializable parallel event arrays."""
    return [list(trace.kinds), list(trace.a), list(trace.b), list(trace.c)]


def trace_from_payload(payload):
    """Rebuild the exact trace a journal entry recorded."""
    trace = Trace()
    trace.extend_arrays(*payload)
    return trace


def journaled(fn):
    """Append each falsifying example to the failure journal, then
    re-raise so hypothesis proceeds (shrinking included) as usual."""
    if not JOURNAL_PATH:
        return fn

    @wraps(fn)
    def wrapper(**kwargs):
        try:
            fn(**kwargs)
        except Exception as exc:
            entry = {"test": fn.__name__, "error": repr(exc)}
            for key, value in kwargs.items():
                entry[key] = (trace_payload(value)
                              if isinstance(value, Trace) else value)
            with open(JOURNAL_PATH, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(entry) + "\n")
            raise

    return wrapper


# ----------------------------------------------------------------------
# trace strategy: the equivalence suite's shapes plus SWITCH events
# ----------------------------------------------------------------------

@st.composite
def fuzz_traces(draw):
    """Well-formed traces biased toward every fast-path edge at once:
    ascending runs (NL leading edges), same-line repeats (the NL no-op),
    tail offsets (out-of-range fan-outs), call/return nests (RAS, CGP),
    and context switches (shard-boundary magnets)."""
    trace = Trace()
    stack = []
    for _ in range(draw(st.integers(1, 60))):
        action = draw(st.sampled_from(
            ["exec", "exec", "run", "repeat", "call", "ret", "switch"]))
        if action in ("exec", "run", "repeat"):
            fid = stack[-1] if stack else draw(
                st.integers(0, N_FUNCTIONS - 1))
            if action == "run":
                lo = draw(st.integers(0, FUNC_SIZE - 2))
                trace.add_exec(fid, lo, draw(st.integers(lo, FUNC_SIZE - 1)))
            elif action == "repeat":
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
        elif action == "switch":
            trace.add_switch(draw(st.integers(0, 3)))
    while stack:
        fid = stack.pop()
        trace.add_return(fid, stack[-1] if stack else -1, 0)
    return trace


# ----------------------------------------------------------------------
# the differential properties
# ----------------------------------------------------------------------

@FUZZ
@given(trace=fuzz_traces(), pf=st.sampled_from(PREFETCHERS),
       degree=st.integers(1, 4), layout_kind=st.sampled_from(LAYOUTS),
       n_shards=st.integers(1, 4))
@journaled
def test_three_way_equivalence(trace, pf, degree, layout_kind, n_shards):
    """reference == fast == sharded-fast, for every counter and float."""
    layout = build_layout(layout_kind)
    ref = simulate(trace, layout, SMALL_CONFIG,
                   prefetcher=make_prefetcher(pf, layout, degree),
                   engine="reference").to_dict()
    fast = simulate(trace, layout, SMALL_CONFIG,
                    prefetcher=make_prefetcher(pf, layout, degree),
                    engine="fast").to_dict()
    sharded = replay_sharded(trace, layout, SMALL_CONFIG,
                             prefetcher=make_prefetcher(pf, layout, degree),
                             n_shards=n_shards).to_dict()
    assert ref == fast
    assert fast == sharded


@FUZZ
@given(trace=fuzz_traces(), pf=st.sampled_from(PREFETCHERS),
       cuts=st.lists(st.integers(0, 10_000), max_size=5))
@journaled
def test_sharded_at_arbitrary_boundaries(trace, pf, cuts):
    """Any strictly-rising cut set is a sound segmentation — shard
    boundaries are not privileged positions."""
    layout = build_layout("scrambled")
    n = len(trace)
    interior = sorted({c % (n + 1) for c in cuts} - {0, n})
    boundaries = [0] + interior + [n]
    single = simulate(trace, layout, SMALL_CONFIG,
                      prefetcher=make_prefetcher(pf, layout, 3),
                      engine="fast").to_dict()
    sharded = replay_sharded(trace, layout, SMALL_CONFIG,
                             prefetcher=make_prefetcher(pf, layout, 3),
                             boundaries=boundaries).to_dict()
    assert single == sharded


@FUZZ
@given(trace=fuzz_traces(), pf=st.sampled_from(PREFETCHERS),
       n_shards=st.integers(2, 4))
@journaled
def test_sharded_attribution_identical(trace, pf, n_shards):
    """The collector path (sequential chained segments) must fill the
    attribution payload exactly as one un-sharded observed run."""
    layout = build_layout("identity")
    base_collector = AttributionCollector(layout, interval=400, lifecycle=64)
    base = simulate(trace, layout, SMALL_CONFIG,
                    prefetcher=make_prefetcher(pf, layout, 2),
                    engine="fast", collector=base_collector)
    shard_collector = AttributionCollector(layout, interval=400, lifecycle=64)
    sharded = replay_sharded(trace, layout, SMALL_CONFIG,
                             prefetcher=make_prefetcher(pf, layout, 2),
                             n_shards=n_shards, collector=shard_collector)
    assert base.to_dict() == sharded.to_dict()
    assert base_collector.to_dict() == shard_collector.to_dict()
    assert (base_collector.lifecycle.records()
            == shard_collector.lifecycle.records())


@FUZZ
@given(trace=fuzz_traces(), degree=st.integers(1, 4))
@journaled
def test_journal_payload_round_trips(trace, degree):
    """A journaled trace must replay to the same stats as the original
    — otherwise CI failure journals would not be replayable."""
    layout = build_layout("scrambled")
    rebuilt = trace_from_payload(
        json.loads(json.dumps(trace_payload(trace))))
    assert list(rebuilt.events()) == list(trace.events())
    first = simulate(trace, layout, SMALL_CONFIG,
                     prefetcher=make_prefetcher("cgp", layout, degree),
                     engine="fast")
    second = simulate(rebuilt, layout, SMALL_CONFIG,
                      prefetcher=make_prefetcher("cgp", layout, degree),
                      engine="fast")
    assert first.to_dict() == second.to_dict()
