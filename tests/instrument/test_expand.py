"""Runtime-library expansion."""

import pytest

from repro.errors import TraceError
from repro.instrument.codeimage import CodeImage
from repro.instrument.expand import ExpansionConfig, RuntimeLibrary, expand_trace
from repro.instrument.trace import CALL, EXEC, RET, Trace, validate_trace


def base_image(sizes=(400, 200)):
    image = CodeImage()
    for i, size in enumerate(sizes):
        image.register_synthetic(f"app::f{i}", size)
    return image


def long_exec_trace(fid=0, length=399):
    trace = Trace()
    trace.add_exec(fid, 0, length)
    return trace


def test_helpers_registered_into_image():
    image = base_image()
    config = ExpansionConfig(pool_size=16)
    before = image.function_count
    expand_trace(long_exec_trace(), image, config)
    assert image.function_count == before + 16


def test_expansion_inserts_calls():
    image = base_image()
    config = ExpansionConfig(call_every_instrs=50, pool_size=16)
    out = expand_trace(long_exec_trace(length=399), image, config)
    calls = out.counts()["CALL"]
    assert calls >= 6  # ~399/50 call sites
    assert out.counts()["CALL"] == out.counts()["RET"]
    validate_trace(out, image)


def test_expansion_is_deterministic():
    image_a = base_image()
    image_b = base_image()
    config = ExpansionConfig()
    a = expand_trace(long_exec_trace(), image_a, config)
    b = expand_trace(long_exec_trace(), image_b, config)
    assert list(a.events()) == list(b.events())


def test_same_call_site_same_helper():
    """Stability: re-executing the same code region calls the same
    helpers (what the CGHC relies on)."""
    image = base_image()
    config = ExpansionConfig(call_every_instrs=50, pool_size=32)
    trace = Trace()
    trace.add_exec(0, 0, 399)
    trace.add_exec(0, 0, 399)  # same region twice
    out = expand_trace(trace, image, config)
    calls = [(a, c) for kind, a, _b, c in out.events() if kind == CALL]
    half = len(calls) // 2
    assert calls[:half] == calls[half:]


def test_short_execs_pass_through():
    image = base_image()
    config = ExpansionConfig(call_every_instrs=50)
    trace = Trace()
    trace.add_exec(0, 0, 30)
    out = expand_trace(trace, image, config)
    events = [e for e in out.events()]
    assert events[0] == (EXEC, 0, 0, 30)
    assert out.counts()["CALL"] == 0


def test_call_ret_events_pass_through():
    image = base_image()
    trace = Trace()
    trace.add_call(1, 0, 10)
    trace.add_exec(1, 0, 20)
    trace.add_return(1, 0, 20)
    out = expand_trace(trace, image, ExpansionConfig())
    kinds = [k for k, *_rest in out.events()]
    assert kinds[0] == CALL
    assert kinds[-1] == RET


def test_backward_exec_spans_expanded():
    image = base_image()
    config = ExpansionConfig(call_every_instrs=50, pool_size=8)
    trace = Trace()
    trace.add_exec(0, 399, 0)  # a loop back-edge
    out = expand_trace(trace, image, config)
    validate_trace(out, image)
    total = sum(
        abs(c - b) + 1 for k, _a, b, c in out.events() if k == EXEC and _a == 0
    )
    # caller instructions preserved up to one re-fetched boundary
    # instruction per inserted chunk
    chunks = sum(1 for k, a, _b, _c in out.events() if k == EXEC and a == 0)
    assert 400 <= total <= 400 + chunks


def test_two_level_helpers_appear():
    image = base_image()
    config = ExpansionConfig(call_every_instrs=40, pool_size=64,
                             two_level_every=2)
    out = expand_trace(long_exec_trace(), image, config)
    max_depth = validate_trace(out, image)
    assert max_depth == 2  # helper -> sub-helper


def test_instr_spacing_near_target():
    image = base_image(sizes=(5000,))
    config = ExpansionConfig(call_every_instrs=32)
    trace = Trace()
    trace.add_exec(0, 0, 4999)
    out = expand_trace(trace, image, config)
    spacing = out.total_instructions() / max(1, out.call_count())
    assert 30 <= spacing <= 90  # the paper's regime (~43), not hundreds


BAD_CONFIGS = [
    {"call_every_instrs": 0},
    {"pool_size": 0},
    {"helpers_per_function": 0},
    {"two_level_every": 0},
    {"helper_min_instrs": 65, "helper_max_instrs": 64},
    # would silently size helpers outside [min, max]
    {"helper_min_instrs": 64, "helper_max_instrs": 8},
]


@pytest.mark.parametrize(
    "fields", BAD_CONFIGS,
    ids=[",".join(f"{k}={v}" for k, v in f.items()) for f in BAD_CONFIGS])
def test_bad_config_rejected(fields):
    config = ExpansionConfig(**fields)
    with pytest.raises(TraceError):
        RuntimeLibrary(base_image(), config)
    with pytest.raises(TraceError):
        expand_trace(long_exec_trace(), base_image(), config)


def test_helper_for_matches_expansion():
    """The public helper_for() must agree with the expansion."""
    image = base_image()
    config = ExpansionConfig(call_every_instrs=50, pool_size=32)
    library = RuntimeLibrary(image, config)
    out = expand_trace(long_exec_trace(length=399), image, config)
    for kind, a, b, c in out.events():
        if kind == CALL and b == 0:  # helper call from caller fid 0
            expected = library.helper_fids[library.helper_for(0, c)]
            assert a == expected
