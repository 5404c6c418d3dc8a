"""The replay checks: every malformed event that
``repro.uarch.fetch_engine.check_events`` refuses, one bad event among
well-formed ones per case.

Both engines run the same check over the whole trace before the first
event, the fast engine's compile over the trace's vocabulary and the
reference engine over its columns, so both refuse each case with the
same ``SimulationError`` message and replay nothing from wrong lines.
"""

import re

import pytest

from repro.errors import SimulationError
from repro.instrument.trace import Trace
from repro.uarch.fast_engine import compile_trace
from repro.uarch.fetch_engine import simulate
from tests.uarch.test_engine_equivalence import (
    CHAIN,
    FUNC_SIZE,
    N_FUNCTIONS,
    SMALL_CONFIG,
    build_layout,
    make_prefetcher,
)

BEYOND = FUNC_SIZE * 100  # past every function's last line

BAD_EVENTS = {
    "unknown kind": ((4, 0, 0, 0), "unknown trace event kind 4"),
    "unknown EXEC fid": ((0, N_FUNCTIONS, 0, 5),
                         "EXEC event references unknown function"),
    "negative EXEC fid": ((0, -1, 0, 5),
                          "EXEC event references unknown function"),
    "negative offset": ((0, 1, -3, 5), "EXEC event has a negative offset"),
    "offset beyond extent": ((0, 1, 0, BEYOND),
                             "EXEC offset beyond function extent"),
    "unknown caller": ((1, 2, N_FUNCTIONS, 0),
                       "CALL event references unknown caller"),
    "negative call-site offset": (
        (1, 2, 1, -1), "CALL event has a negative call-site offset"),
    "call-site beyond extent": (
        (1, 2, 1, BEYOND), "call-site offset beyond function extent"),
    "unknown callee": ((1, N_FUNCTIONS, 1, 0),
                       "CALL event references unknown function"),
    "negative callee": ((1, -1, 1, 0),
                        "CALL event references unknown function"),
    "unknown returning fid": ((2, N_FUNCTIONS, 1, 0),
                              "RET event references unknown function"),
    "negative returning fid": ((2, -1, 1, 0),
                               "RET event references unknown function"),
}


def with_bad_event(event):
    """CHAIN with ``event`` spliced into its middle."""
    events = list(CHAIN.events())
    middle = len(events) // 2
    trace = Trace()
    for kind, a, b, c in events[:middle] + [event] + events[middle:]:
        trace.kinds.append(kind)
        trace.a.append(a)
        trace.b.append(b)
        trace.c.append(c)
    return trace


def test_the_well_formed_part_compiles():
    for kind in ("identity", "scrambled"):
        compiled = compile_trace(CHAIN, build_layout(kind))
        assert compiled.n_events == len(CHAIN)


@pytest.mark.parametrize("case", sorted(BAD_EVENTS))
@pytest.mark.parametrize("layout_kind", ["identity", "scrambled"])
def test_compile_rejects_a_bad_event(case, layout_kind):
    event, message = BAD_EVENTS[case]
    trace = with_bad_event(event)
    with pytest.raises(SimulationError, match=re.escape(message)):
        compile_trace(trace, build_layout(layout_kind))


@pytest.mark.parametrize("case", sorted(BAD_EVENTS))
@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_both_engines_reject_a_bad_event(case, engine):
    event, message = BAD_EVENTS[case]
    trace = with_bad_event(event)
    layout = build_layout("identity")
    with pytest.raises(SimulationError, match=re.escape(message)):
        simulate(trace, layout, SMALL_CONFIG,
                 prefetcher=make_prefetcher("cgp", layout, 4), engine=engine)
