"""The compile cache's per-trace entry: trace-side work done once.

Compiling a trace for a layout splits into work that depends on the
trace alone — the ``ops``/``ea``/``eb`` lists — and the layout's
translation.  The first part is done once per trace and shared
read-only by every layout's image; it is valid only while the trace
keeps its length, and ``clear_compile_cache()`` drops it.  The entry is
weak on the trace, so every compiled image dies with its trace.
"""

import gc
import weakref

from repro.instrument.codeimage import CodeImage
from repro.instrument.expand import ExpansionConfig, expand_trace
from repro.instrument.trace import Trace
from repro.layout import o5_layout, om_layout, profile_of
from repro.uarch.fast_engine import (
    _COMPILE_CACHE,
    _compiled,
    clear_compile_cache,
    compile_trace,
)

SHARED = ("ops", "ea", "eb")
PER_LAYOUT = ("n_scaled", "seg_start", "seg_end", "lines", "callsite")


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


def test_layouts_share_trace_side_lists():
    clear_compile_cache()
    trace, layouts = trace_and_layouts()
    o5 = _compiled(trace, layouts["O5"])
    om = _compiled(trace, layouts["OM"])
    assert o5 is not om
    assert o5.lines != om.lines  # the layouts do differ
    for field in SHARED:
        assert getattr(o5, field) is getattr(om, field), field
    # the shared lists are what an uncached compile builds
    for name, compiled in (("O5", o5), ("OM", om)):
        fresh = compile_trace(trace, layouts[name])
        for field in SHARED + PER_LAYOUT:
            assert getattr(fresh, field) == getattr(compiled, field), field


def test_growing_the_trace_recompiles_every_layout():
    clear_compile_cache()
    trace, layouts = trace_and_layouts()
    before = {name: _compiled(trace, layout)
              for name, layout in layouts.items()}
    trace.add_exec(1, 0, 119)
    after = {name: _compiled(trace, layout)
             for name, layout in layouts.items()}
    for name, layout in layouts.items():
        assert after[name] is not before[name]
        assert after[name].n_events == len(trace)
        fresh = compile_trace(trace, layout)
        for field in SHARED + PER_LAYOUT:
            assert getattr(after[name], field) == getattr(fresh, field)
    assert after["O5"].ops is after["OM"].ops
    assert after["O5"].ops is not before["O5"].ops


def test_clear_compile_cache_drops_the_trace_side_part():
    clear_compile_cache()
    trace, layouts = trace_and_layouts()
    first = _compiled(trace, layouts["O5"])
    assert _COMPILE_CACHE[trace].events[0] is first.ops
    clear_compile_cache()
    assert trace not in _COMPILE_CACHE
    again = _compiled(trace, layouts["O5"])
    assert again is not first
    assert again.ops is not first.ops and again.ops == first.ops


def test_compiled_images_die_with_their_trace():
    clear_compile_cache()
    trace, layouts = trace_and_layouts()
    images = [weakref.ref(_compiled(trace, layout))
              for layout in layouts.values()]
    del trace
    gc.collect()
    assert [image() for image in images] == [None, None]
    assert len(_COMPILE_CACHE) == 0
