"""Differential fuzz: ``CallGraphProfile.add_trace`` against the loop.

``loop_add_trace`` is the profile pass as one Python loop over the
events, kept here verbatim as the oracle for the array tallies in
:mod:`repro.layout.profile`.  The three counters must agree item for
item, key order included (``most_common`` breaks ties by it, and the
profile is pickled into artifacts), with Python-int keys and values.
Raw traces come from ``tests/instrument/test_expand_fuzz.py``'s
strategy, expanded or not; ``REPRO_FUZZ_EXAMPLES`` bounds the example
count.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.instrument.expand import expand_trace
from repro.instrument.trace import CALL, EXEC, Trace
from repro.layout.profile import CallGraphProfile, profile_of

from tests.instrument.test_expand_fuzz import (
    FUZZ,
    base_image,
    config_and_trace,
)

COUNTERS = ("edge_counts", "call_counts", "instr_counts")


def loop_add_trace(profile, trace):
    """The profile pass as a per-event loop (the oracle)."""
    edges = profile.edge_counts
    calls = profile.call_counts
    instrs = profile.instr_counts
    for kind, a, b, c in trace.events():
        if kind == CALL:
            calls[a] += 1
            if b >= 0:
                edges[(b, a)] += 1
        elif kind == EXEC:
            instrs[a] += abs(c - b) + 1
    return profile


def items(profile):
    return {name: list(getattr(profile, name).items()) for name in COUNTERS}


def assert_python_ints(profile):
    for name in COUNTERS:
        for key, value in getattr(profile, name).items():
            parts = key if isinstance(key, tuple) else (key,)
            assert all(type(part) is int for part in parts), (name, key)
            assert type(value) is int, (name, key)


@st.composite
def traces(draw):
    """A raw trace, or the same trace after expansion."""
    config, trace = draw(config_and_trace())
    if draw(st.booleans()):
        trace = expand_trace(trace, base_image(), config)
    return trace


@FUZZ
@given(trace=traces())
def test_add_trace_matches_loop(trace):
    profile = CallGraphProfile().add_trace(trace)
    assert items(profile) == items(loop_add_trace(CallGraphProfile(), trace))
    assert_python_ints(profile)


@FUZZ
@given(first=traces(), second=traces())
def test_profile_of_two_traces_matches_loop(first, second):
    """``profile_of(t1, t2)``: the second trace accumulates onto a
    non-empty profile, keeping the first trace's keys in place."""
    want = loop_add_trace(loop_add_trace(CallGraphProfile(), first), second)
    got = profile_of(first, second)
    assert items(got) == items(want)
    assert_python_ints(got)


def test_empty_trace_leaves_profile_unchanged():
    profile = profile_of(Trace())
    assert items(profile) == {name: [] for name in COUNTERS}
