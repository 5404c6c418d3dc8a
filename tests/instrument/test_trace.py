"""Trace container: events, counting, persistence, validation."""

import pytest

from repro.errors import TraceError
from repro.instrument.codeimage import CodeImage
from repro.instrument.trace import CALL, EXEC, RET, Trace, validate_trace


def image_with(sizes):
    image = CodeImage()
    for i, size in enumerate(sizes):
        image.register_synthetic(f"f{i}", size)
    return image


def test_event_building_and_iteration():
    trace = Trace()
    trace.add_call(1, 0, 5)
    trace.add_exec(1, 0, 9)
    trace.add_return(1, 0, 9)
    events = list(trace.events())
    assert events == [(CALL, 1, 0, 5), (EXEC, 1, 0, 9), (RET, 1, 0, 9)]
    assert len(trace) == 3


def test_counts_by_kind():
    trace = Trace()
    trace.add_exec(0, 0, 1)
    trace.add_exec(0, 1, 2)
    trace.add_call(1, 0, 1)
    trace.add_return(1, 0, 0)
    trace.add_switch(2)
    counts = trace.counts()
    assert counts == {"EXEC": 2, "CALL": 1, "RET": 1, "SWITCH": 1}


def test_total_instructions():
    trace = Trace()
    trace.add_exec(0, 0, 9)  # 10 instructions
    trace.add_call(1, 0, 9)  # overhead 2
    trace.add_exec(1, 5, 0)  # backwards: still 6 instructions
    trace.add_return(1, 0, 0)  # overhead 2
    assert trace.total_instructions(call_overhead=2) == 10 + 2 + 6 + 2
    assert trace.call_count() == 1


def test_extend_concatenates():
    a = Trace()
    a.add_exec(0, 0, 1)
    b = Trace()
    b.add_exec(1, 0, 1)
    a.extend(b)
    assert len(a) == 2
    assert list(a.a) == [0, 1]


def test_save_load_roundtrip(tmp_path):
    trace = Trace()
    trace.add_call(1, 0, 3)
    trace.add_exec(1, 0, 20)
    trace.add_return(1, 0, 20)
    path = tmp_path / "trace.pickle"
    trace.save(path)
    loaded = Trace.load(path)
    assert list(loaded.events()) == list(trace.events())


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pickle"
    import pickle

    path.write_bytes(pickle.dumps({"kinds": [0], "a": []}))
    with pytest.raises(TraceError):
        Trace.load(path)


def test_save_load_empty_trace(tmp_path):
    path = tmp_path / "empty.trace"
    Trace().save(path)
    loaded = Trace.load(path)
    assert len(loaded) == 0
    assert list(loaded.events()) == []


def test_load_rejects_future_format_version(tmp_path):
    from repro.instrument.trace import TRACE_FORMAT_VERSION

    trace = Trace()
    trace.add_exec(0, 0, 5)
    path = tmp_path / "future.trace"
    trace.save(path)
    blob = bytearray(path.read_bytes())
    # u16 version sits right after the 4-byte magic (little endian)
    blob[4:6] = (TRACE_FORMAT_VERSION + 1).to_bytes(2, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(TraceError, match="format version"):
        Trace.load(path)


def test_load_rejects_corrupt_payload(tmp_path):
    trace = Trace()
    trace.add_call(1, 0, 3)
    trace.add_exec(1, 0, 20)
    path = tmp_path / "corrupt.trace"
    trace.save(path)
    blob = bytearray(path.read_bytes())
    blob[20] ^= 0xFF  # flip one payload byte; header stays valid
    path.write_bytes(bytes(blob))
    with pytest.raises(TraceError, match="checksum"):
        Trace.load(path)


def test_load_rejects_truncated_file(tmp_path):
    trace = Trace()
    trace.add_exec(0, 0, 9)
    trace.add_exec(0, 10, 19)
    path = tmp_path / "cut.trace"
    trace.save(path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-7])
    with pytest.raises(TraceError, match="truncated"):
        Trace.load(path)


def test_counters_stay_correct_across_appends():
    """counts()/call_count()/total_instructions() must see events
    appended after a read."""
    trace = Trace()
    trace.add_exec(0, 0, 9)
    assert trace.counts()["EXEC"] == 1
    assert trace.total_instructions(call_overhead=2) == 10
    trace.add_call(1, 0, 9)
    trace.add_exec(1, 0, 4)
    trace.add_return(1, 0, 4)
    assert trace.counts() == {"EXEC": 2, "CALL": 1, "RET": 1, "SWITCH": 0}
    assert trace.call_count() == 1
    assert trace.total_instructions(call_overhead=2) == 10 + 2 + 5 + 2


def test_counts_reject_unknown_event_kind():
    trace = Trace()
    trace.add_exec(0, 0, 9)
    trace.kinds.append(7)
    for field in (trace.a, trace.b, trace.c):
        field.append(0)
    with pytest.raises(TraceError, match="unknown trace event kind 7"):
        trace.counts()


def test_validate_balanced_trace():
    image = image_with([32, 32])
    trace = Trace()
    trace.add_exec(0, 0, 10)
    trace.add_call(1, 0, 10)
    trace.add_exec(1, 0, 31)
    trace.add_return(1, 0, 31)
    trace.add_exec(0, 10, 20)
    assert validate_trace(trace, image) == 1


def test_validate_detects_underflow():
    image = image_with([32])
    trace = Trace()
    trace.add_return(0, -1, 0)
    with pytest.raises(TraceError):
        validate_trace(trace, image)


def test_validate_detects_bad_offsets():
    image = image_with([8])
    trace = Trace()
    trace.add_exec(0, 0, 99)
    with pytest.raises(TraceError):
        validate_trace(trace, image)


def test_validate_reports_max_depth():
    image = image_with([32, 32, 32])
    trace = Trace()
    trace.add_call(0, -1, 0)
    trace.add_call(1, 0, 0)
    trace.add_call(2, 1, 0)
    trace.add_return(2, 1, 0)
    trace.add_return(1, 0, 0)
    trace.add_return(0, -1, 0)
    assert validate_trace(trace, image) == 3
