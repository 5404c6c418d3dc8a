"""Differential fuzz: ``expand_trace`` against the per-event loop.

``loop_expand`` is the expansion as one Python loop over the events,
kept here verbatim as the oracle for the array passes in
:mod:`repro.instrument.expand`.  Both must produce identical
``kinds``/``a``/``b``/``c`` arrays on raw traces shaped like the
tracer's output: forward and backward EXECs (zero-length ones too, and
spans of exactly ``S``, ``k*S`` and ``k*S + 1``), CALL/RET with an
untracked caller, SWITCH markers, and empty or EXEC-free traces, under
varied :class:`ExpansionConfig`.  ``REPRO_FUZZ_EXAMPLES`` bounds the
example count, as in ``tests/uarch/test_engine_fuzz.py``.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.instrument.codeimage import CodeImage
from repro.instrument.expand import (
    ExpansionConfig,
    RuntimeLibrary,
    _mix,
    expand_trace,
)
from repro.instrument.trace import CALL, EXEC, RET, SWITCH, Trace

MAX_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "150"))

FUZZ = settings(max_examples=MAX_EXAMPLES, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

FUNC_SIZES = (400, 90, 7, 1200)


def loop_expand(trace, image, config=ExpansionConfig()):
    """The expansion as a per-event loop (the oracle)."""
    library = RuntimeLibrary(image, config)
    spacing = config.call_every_instrs
    out = Trace()
    kinds_out, a_out, b_out, c_out = out.kinds, out.a, out.b, out.c
    helper_fids = library.helper_fids
    helper_sizes = library.helper_sizes
    helpers_per_function = config.helpers_per_function
    pool_size = config.pool_size
    two_level_every = config.two_level_every

    for kind, a, b, c in trace.events():
        if kind != EXEC:
            kinds_out.append(kind)
            a_out.append(a)
            b_out.append(b)
            c_out.append(c)
            continue
        fid, start, end = a, b, c
        step = spacing if end >= start else -spacing
        cursor = start
        while True:
            remaining = end - cursor
            if abs(remaining) <= spacing:
                kinds_out.append(EXEC)
                a_out.append(fid)
                b_out.append(cursor)
                c_out.append(end)
                break
            nxt = cursor + step
            kinds_out.append(EXEC)
            a_out.append(fid)
            b_out.append(cursor)
            c_out.append(nxt)
            # helper call at this site (identity fixed per site)
            slot = (abs(nxt) // spacing) % helpers_per_function
            index = _mix(fid, slot) % pool_size
            helper = helper_fids[index]
            size = helper_sizes[index]
            kinds_out.append(CALL)
            a_out.append(helper)
            b_out.append(fid)
            c_out.append(abs(nxt))
            sub = None
            if _mix(index, 7919) % two_level_every == 0:
                sub = _mix(index, 104729) % pool_size
            if sub is None or sub == index:
                kinds_out.append(EXEC)
                a_out.append(helper)
                b_out.append(0)
                c_out.append(size - 1)
            else:
                mid = size // 2
                sub_fid = helper_fids[sub]
                sub_size = helper_sizes[sub]
                kinds_out.append(EXEC)
                a_out.append(helper)
                b_out.append(0)
                c_out.append(mid)
                kinds_out.append(CALL)
                a_out.append(sub_fid)
                b_out.append(helper)
                c_out.append(mid)
                kinds_out.append(EXEC)
                a_out.append(sub_fid)
                b_out.append(0)
                c_out.append(sub_size - 1)
                kinds_out.append(RET)
                a_out.append(sub_fid)
                b_out.append(helper)
                c_out.append(sub_size - 1)
                kinds_out.append(EXEC)
                a_out.append(helper)
                b_out.append(mid)
                c_out.append(size - 1)
            kinds_out.append(RET)
            a_out.append(helper)
            b_out.append(fid)
            c_out.append(size - 1)
            cursor = nxt
    return out


def base_image():
    image = CodeImage()
    for i, size in enumerate(FUNC_SIZES):
        image.register_synthetic(f"app::f{i}", size)
    return image


def assert_matches_loop(trace, config):
    """Expand ``trace`` both ways on equal images; returns the result."""
    fast = expand_trace(trace, base_image(), config)
    slow = loop_expand(trace, base_image(), config)
    for field in ("kinds", "a", "b", "c"):
        got, want = getattr(fast, field), getattr(slow, field)
        assert got.typecode == want.typecode, field
        assert got == want, field
    return fast


configs = st.builds(
    ExpansionConfig,
    call_every_instrs=st.integers(1, 48),
    helpers_per_function=st.integers(1, 8),
    pool_size=st.integers(1, 24),
    helper_min_instrs=st.integers(1, 16),
    helper_max_instrs=st.integers(16, 80),
    two_level_every=st.integers(1, 5),
    seed=st.integers(0, 2**20),
)


@st.composite
def raw_traces(draw, spacing):
    """Events as the tracer (and the interleaver) emit them."""
    fids = st.integers(0, len(FUNC_SIZES) - 1)
    trace = Trace()
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from((EXEC, EXEC, EXEC, CALL, RET, SWITCH)))
        if kind == EXEC:
            # spans of k*S + {-1, 0, 1} land on every chunk boundary
            span = draw(st.one_of(
                st.integers(0, 6 * spacing + 2),
                st.builds(lambda k, r: max(0, k * spacing + r),
                          st.integers(0, 5), st.integers(-1, 1)),
            ))
            low = draw(st.integers(0, 60))
            if draw(st.booleans()):
                trace.add_exec(draw(fids), low, low + span)
            else:  # a loop back-edge
                trace.add_exec(draw(fids), low + span, low)
        elif kind == CALL:
            trace.add_call(draw(fids), draw(st.sampled_from((-1, 0, 1, 2))),
                           draw(st.integers(0, 300)))
        elif kind == RET:
            trace.add_return(draw(fids), draw(st.sampled_from((-1, 0, 3))),
                             draw(st.integers(0, 300)))
        else:
            trace.add_switch(draw(st.integers(0, 3)))
    return trace


@st.composite
def config_and_trace(draw):
    config = draw(configs)
    return config, draw(raw_traces(config.call_every_instrs))


@FUZZ
@given(case=config_and_trace())
def test_expansion_matches_loop(case):
    config, trace = case
    assert_matches_loop(trace, config)


@FUZZ
@given(config=configs, trace=raw_traces(32))
def test_exec_free_traces_pass_through(config, trace):
    """Without EXEC events nothing is inserted."""
    kept = Trace()
    for kind, a, b, c in trace.events():
        if kind != EXEC:
            kept.extend_arrays([kind], [a], [b], [c])
    out = assert_matches_loop(kept, config)
    assert list(out.events()) == list(kept.events())


def test_empty_trace():
    out = assert_matches_loop(Trace(), ExpansionConfig())
    assert len(out) == 0


#: One config per helper shape the expansion has.
SHAPES = {
    # two_level_every above the pool: no helper has a sub-helper
    "one-level": ExpansionConfig(call_every_instrs=16, pool_size=8,
                                 two_level_every=1000),
    # every helper has a sub-helper; a 64-helper pool rarely maps a
    # helper onto itself
    "two-level": ExpansionConfig(call_every_instrs=16, pool_size=64,
                                 two_level_every=1),
    # a one-helper pool: the only sub-helper is the helper itself
    "self-sub": ExpansionConfig(call_every_instrs=16, pool_size=1,
                                two_level_every=1),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_helper_shape_matches_loop(shape):
    config = SHAPES[shape]
    library = RuntimeLibrary(base_image(), config)
    subs = [library.sub_helper_of(i) for i in range(config.pool_size)]
    if shape == "self-sub":
        assert subs == [0]
    elif shape == "one-level":
        assert subs == [None] * config.pool_size
    else:
        assert all(s is not None for s in subs)
    trace = Trace()
    trace.add_call(0, -1, 0)
    trace.add_exec(0, 0, 399)
    trace.add_exec(0, 399, 3)
    trace.add_return(0, -1, 3)
    out = assert_matches_loop(trace, config)
    depth = max_depth = 0
    for kind, *_ in out.events():
        depth += kind == CALL
        depth -= kind == RET
        max_depth = max(max_depth, depth)
    # the traced CALL plus one or two helper levels
    assert max_depth == (3 if shape == "two-level" else 2)
