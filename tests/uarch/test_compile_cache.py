"""The compiled image's format, and the compile cache's per-trace entry.

A compiled image is one list, ``records``: ``records[i]`` is event
``i``'s record ``(op, a, b, n_scaled, span, callsite)``, and events with
equal ``(kind, a, b, c)`` share one record object.  An EXEC record's
``span`` is the tuple of lines the reference engine fetches for it.

Compiling a trace for a layout splits into work that depends on the
trace alone — its symbolization: the distinct records and each event's
index into them — and the layout's translation of those records.  The
first part is done once per trace and shared by every layout's image;
it is valid only while the trace keeps its length, and
``clear_compile_cache()`` drops it.  The entry is weak on the trace, so
every compiled image dies with its trace.
"""

import gc
import weakref

import pytest

from repro.instrument.codeimage import CodeImage
from repro.instrument.expand import ExpansionConfig, expand_trace
from repro.instrument.trace import CALL, EXEC, RET, Trace
from repro.layout import o5_layout, om_layout, profile_of
from repro.uarch import fast_engine
from repro.uarch.fast_engine import (
    _COMPILE_CACHE,
    _compiled,
    _symbolize,
    clear_compile_cache,
    compile_trace,
    precompile,
)
from repro.uarch.fetch_engine import simulate
from repro.uarch.prefetch import NextNLinePrefetcher, TaggedNLPrefetcher
from tests.uarch.test_engine_equivalence import (
    CHAIN,
    FUNC_SIZE,
    N_FUNCTIONS,
    PREFETCHERS,
    SMALL_CONFIG,
    build_layout,
    make_prefetcher,
)

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


def trace_and_layouts():
    image = CodeImage()
    for i, size in enumerate((300, 120, 80)):
        image.register_synthetic(f"app::f{i}", size)
    raw = Trace()
    raw.add_call(0, -1, 0)
    raw.add_exec(0, 0, 250)
    raw.add_call(1, 0, 250)
    raw.add_exec(1, 0, 119)
    raw.add_return(1, 0, 119)
    raw.add_exec(0, 250, 40)
    raw.add_call(2, 0, 40)
    raw.add_exec(2, 0, 79)
    raw.add_return(2, 0, 79)
    raw.add_return(0, -1, 40)
    trace = expand_trace(raw, image, ExpansionConfig(pool_size=16))
    return trace, {"O5": o5_layout(image),
                   "OM": om_layout(image, profile_of(trace))}


def count_symbolizations(monkeypatch):
    calls = []

    def counting(trace):
        calls.append(trace)
        return _symbolize(trace)

    monkeypatch.setattr(fast_engine, "_symbolize", counting)
    return calls


def test_layouts_share_one_symbolization(monkeypatch):
    clear_compile_cache()
    trace, layouts = trace_and_layouts()
    calls = count_symbolizations(monkeypatch)
    o5 = _compiled(trace, layouts["O5"])
    symbols = _COMPILE_CACHE[trace].symbols
    om = _compiled(trace, layouts["OM"])
    assert len(calls) == 1
    assert _COMPILE_CACHE[trace].symbols is symbols
    assert o5 is not om
    assert o5.records != om.records  # the layouts' spans do differ
    # the cached images are what an uncached compile builds
    for name, compiled in (("O5", o5), ("OM", om)):
        assert compile_trace(trace, layouts[name]).records == compiled.records


def test_growing_the_trace_recompiles_every_layout(monkeypatch):
    clear_compile_cache()
    trace, layouts = trace_and_layouts()
    before = {name: _compiled(trace, layout)
              for name, layout in layouts.items()}
    symbols = _COMPILE_CACHE[trace].symbols
    trace.add_exec(1, 0, 119)
    calls = count_symbolizations(monkeypatch)
    after = {name: _compiled(trace, layout)
             for name, layout in layouts.items()}
    assert len(calls) == 1
    assert _COMPILE_CACHE[trace].symbols is not symbols
    for name, layout in layouts.items():
        assert after[name] is not before[name]
        assert after[name].n_events == len(after[name].records) == len(trace)
        assert after[name].records == compile_trace(trace, layout).records


def test_an_empty_trace_compiles_and_still_grows():
    clear_compile_cache()
    trace, layouts = trace_and_layouts()
    empty = Trace()
    for layout in layouts.values():
        assert _compiled(empty, layout).records == []
    empty.extend(trace)  # the cached symbolization holds no view of it
    for layout in layouts.values():
        assert (_compiled(empty, layout).records
                == compile_trace(trace, layout).records)


def test_clear_compile_cache_drops_the_trace_side_part():
    clear_compile_cache()
    trace, layouts = trace_and_layouts()
    first = _compiled(trace, layouts["O5"])
    symbols = _COMPILE_CACHE[trace].symbols
    clear_compile_cache()
    assert trace not in _COMPILE_CACHE
    again = _compiled(trace, layouts["O5"])
    assert again is not first and again.records == first.records
    assert _COMPILE_CACHE[trace].symbols is not symbols


def test_compiled_images_die_with_their_trace():
    clear_compile_cache()
    trace, layouts = trace_and_layouts()
    images = [weakref.ref(_compiled(trace, layout))
              for layout in layouts.values()]
    del trace
    gc.collect()
    assert [image() for image in images] == [None, None]
    assert len(_COMPILE_CACHE) == 0


def test_precompile_compiles_what_a_fast_replay_would(monkeypatch):
    """``precompile`` leaves in the cache the image a ``simulate`` of
    the same configuration replays from, and compiles nothing for a
    configuration the reference engine replays."""
    trace, layouts = trace_and_layouts()
    layout = layouts["OM"]

    def images():
        entry = _COMPILE_CACHE.get(trace)
        return [] if entry is None else entry.images

    clear_compile_cache()
    precompile(trace, layout, SMALL_CONFIG, TaggedNLPrefetcher(2))
    monkeypatch.setenv("REPRO_SIM_ENGINE", "reference")
    precompile(trace, layout, SMALL_CONFIG)
    assert images() == []
    monkeypatch.delenv("REPRO_SIM_ENGINE")
    precompile(trace, layout, SMALL_CONFIG, NextNLinePrefetcher(2))
    ((cached_layout, image),) = images()
    assert cached_layout is layout
    calls = count_symbolizations(monkeypatch)
    simulate(trace, layout, SMALL_CONFIG)
    assert calls == [] and images() == [(layout, image)]


def reference_lines(layout, fid, o1, o2):
    """The lines ``FetchEngine.run`` fetches for one EXEC event."""
    if o2 < o1:
        o1, o2 = o2, o1
    first = (o1 * layout.num) // layout.den
    last = (o2 * layout.num) // layout.den
    return tuple(layout.base_line[fid] + layout.perm[fid][block]
                 for block in range(first, last + 1))


def assert_records_are_reference(trace, layout):
    """Every field of every record is what the reference engine derives
    from the raw event."""
    compiled = compile_trace(trace, layout)
    assert len(compiled.records) == compiled.n_events == len(trace)
    executed = 0
    for record, (kind, fid, o1, o2) in zip(compiled.records, trace.events()):
        op, a, b, n_scaled, span, callsite = record
        assert (op, a, b) == (kind, fid, o1)
        if kind == EXEC:
            lo, hi = min(o1, o2), max(o1, o2)
            assert n_scaled == (hi - lo + 1) * layout.instr_scale
            assert span == reference_lines(layout, fid, o1, o2)
            assert callsite == 0
            executed += 1
            continue
        assert (n_scaled, span) == (0.0, ())
        if kind == CALL and o1 >= 0:
            assert callsite == (layout.base_line[o1] + layout.perm[o1][
                (o2 * layout.num) // layout.den])
        else:
            assert callsite == 0
    assert executed


def every_range_trace():
    """Ascending, descending and single-offset EXEC events starting in
    every block of every function (a stride of 5 offsets is under the
    scrambled layout's 5.33 offsets per block)."""
    trace = Trace()
    trace.extend(CHAIN)
    for fid in range(N_FUNCTIONS):
        for lo in range(0, FUNC_SIZE, 5):
            trace.add_exec(fid, lo, min(lo + 11, FUNC_SIZE - 1))
            trace.add_exec(fid, FUNC_SIZE - 1, lo)
            trace.add_exec(fid, lo, lo)
    return trace


def test_exec_spans_are_reference_lines_on_a_scrambled_layout():
    # permuted blocks, 1.5x inflation, reversed function order
    assert_records_are_reference(every_range_trace(),
                                 build_layout("scrambled"))


@pytest.mark.parametrize("layout_name", ["O5", "OM"])
def test_exec_spans_are_reference_lines_on_a_traced_workload(
        prof_artifacts, layout_name):
    assert_records_are_reference(prof_artifacts.trace,
                                 prof_artifacts.layout(layout_name))


def test_one_record_per_distinct_event_whatever_the_trace_length():
    trace, layouts = trace_and_layouts()
    n = len(trace)
    vocabulary = len(set(trace.events()))
    longer = Trace()
    for _ in range(50):
        longer.extend(trace)
    for layout in layouts.values():
        records = compile_trace(longer, layout).records
        assert len(records) == 50 * n
        assert len({id(record) for record in records}) == vocabulary
        assert all(records[i] is records[i + n] for i in range(49 * n))


def wide_trace():
    """CHAIN with SWITCH thread ids and RET return offsets at both ends
    of the int64 range, which neither engine reads: together they span
    far more than 63 bits, so no int64 key could pack them."""
    trace = Trace()
    trace.add_switch(INT64_MAX)
    for i, (kind, a, b, c) in enumerate(CHAIN.events()):
        if kind == RET:
            c = INT64_MIN if i % 2 else INT64_MAX
        trace.kinds.append(kind)
        trace.a.append(a)
        trace.b.append(b)
        trace.c.append(c)
        if i % 7 == 0:
            trace.add_switch(INT64_MIN + i)
    return trace


def test_symbolization_is_the_sorted_distinct_events():
    for trace in (every_range_trace(), wide_trace()):
        vocab, inverse = _symbolize(trace)
        rows = list(zip(*(column.tolist() for column in vocab)))
        assert rows == sorted(set(trace.events()))
        assert [rows[k] for k in inverse.tolist()] == list(trace.events())


def test_wide_operands_replay_identically_on_both_engines():
    trace = wide_trace()
    layout = build_layout("scrambled")
    for pf in PREFETCHERS:
        ref = simulate(trace, layout, SMALL_CONFIG,
                       prefetcher=make_prefetcher(pf, layout, 2),
                       engine="reference").to_dict()
        fast = simulate(trace, layout, SMALL_CONFIG,
                        prefetcher=make_prefetcher(pf, layout, 2),
                        engine="fast").to_dict()
        assert ref == fast, pf
